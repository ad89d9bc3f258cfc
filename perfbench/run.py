#!/usr/bin/env python3
"""Pipeline benchmark for shapprune.

Runs the library pipeline in the order the CLI stages run it (train, eval,
attribute, oracle, codebook, curve, prune, eval, masked fine-tune, eval) on
offline synthetic data. Every stage boundary goes through a checkpoint file
written and read with the public save/load functions. Run it from the root
of a source checkout:

    python3 perfbench/run.py --workload large-table --seed 3 --seconds 40 --trace 0

A run first sets up each of the workload's datasets, all derived from
--seed: generate rows, write and read them as CSV, build the vocabulary and
encode. It then runs the pipeline on the datasets in turn, checking every
output, until the next repetition would end after --seconds. Every dataset
gets at least one repetition, so quality is averaged over all of them.
Timings are means over the run's repetitions; see end_to_end_metrics.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 each repetition runs the pipeline twice on the same data, once
untraced and once traced, and the last line holds the per-layer self times
and counts of the traced runs and the tracing overhead. The line before the
last holds the run's provenance. A full record of every repetition, with the
spans of a traced run, is written to perfbench/results/.
"""

from __future__ import annotations

import os
import sys

# One process, estimate_shapley(threads=1), and a one-thread BLAS pool: two
# threads at most, which fits the two cores this benchmark was sized on. On
# such a 2-core x86_64 box threads=2 made attribution slower: toy went from
# 9.8 s to 12.9 s per 100k visits, wide-deepfm from 8.3-9.1 s to
# 10.1-12.2 s per 2048 visits. The pool size must be fixed before numpy loads.
BLAS_THREADS = 1
SHAPLEY_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

if not (SRC / "shapprune" / "__init__.py").is_file():
    sys.exit(f"perfbench: no shapprune sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import shapprune as sp  # noqa: E402
from shapprune.model import model_to_bytes  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402

if Path(sp.__file__).resolve().parent != SRC / "shapprune":
    sys.exit(f"perfbench: imported shapprune from {sp.__file__}, not from {SRC}")

SPARSITY = 0.8
EFFICIENCY_TOL = 1e-9
ORACLE_MAE_TOL = 5e-3
ORACLE_PASSES = 500
MIN_TRACE_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_steps_per_s": "1/s",
    "attribute_visits_per_s": "1/s",
    "eval_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "dense_logloss": "nats",
    "pruned_logloss": "nats",
}

# Per-layer metric -> (unit, end-to-end metric it should move, workloads it
# should move it on). A name ending in _s is the summed self time of the spans
# of that name in one pipeline repetition; any other name is a count.
PER_LAYER = {
    "attribution.estimate_shapley_s": ("s", "attribute_visits_per_s, pipeline_s", "toy, wide-deepfm"),
    "attribution.visits": ("count", "attribute_visits_per_s", "all"),
    "attribution.forwards": ("count", "attribute_visits_per_s", "all"),
    "attribution.exact_shapley_global_s": ("s", "pipeline_s", "toy"),
    "attribution.scores_save_s": ("s", "pipeline_s", "large-table"),
    "attribution.scores_load_s": ("s", "pipeline_s", "large-table"),
    "attribution.scores_bytes": ("count", "pipeline_s", "large-table"),
    "model.train_s": ("s", "train_steps_per_s, pipeline_s, dense_logloss", "large-table"),
    "model.train_steps": ("count", "train_steps_per_s", "all"),
    "model.train_masked_s": ("s", "pipeline_s", "wide-deepfm"),
    "model.save_model_s": ("s", "pipeline_s", "large-table"),
    "model.load_model_s": ("s", "pipeline_s", "large-table"),
    "model.checkpoint_bytes": ("count", "pipeline_s", "large-table"),
    "codebook.compute_codebook_s": ("s", "pipeline_s", "wide-deepfm"),
    "pruner.prune_s": ("s", "pipeline_s, pruned_logloss", "large-table"),
    "pruner.prune_curve_s": ("s", "pipeline_s, pruned_logloss", "large-table"),
    "pruner.kept_params": ("count", "pruned_logloss", "all"),
    "pruner.evaluate_s": ("s", "eval_rows_per_s", "large-table, wide-deepfm"),
    "pruner.save_s": ("s", "pipeline_s", "large-table"),
    "pruner.load_pruned_s": ("s", "pipeline_s", "large-table"),
    "pruner.pruned_bytes": ("count", "pipeline_s", "large-table"),
    "synth.synthetic_rows_s": ("s", "setup_s", "large-table, wide-deepfm"),
    "data.write_csv_rows_s": ("s", "setup_s", "large-table, wide-deepfm"),
    "data.read_csv_rows_s": ("s", "setup_s", "large-table, wide-deepfm"),
    "data.build_vocabulary_s": ("s", "setup_s", "large-table, wide-deepfm"),
    "data.encode_rows_s": ("s", "setup_s", "large-table, wide-deepfm"),
    "data.rows": ("count", "setup_s", "all"),
    "data.vocab_n": ("count", "setup_s, train_steps_per_s", "all"),
    "trace.pipeline_s": ("s", "pipeline_s (traced)", "all"),
    "trace.uncovered_s": ("s", "pipeline_s: time no stage span covers", "all"),
    "trace.overhead_s": ("s", "pipeline_s: traced minus untraced", "all"),
}


@dataclass(frozen=True)
class Workload:
    synth: sp.SyntheticConfig | None  # None: the fixed 40-row toy corpus
    train_rows: int | None  # rows before the held-out cut; None: no cut
    train: dict  # TrainConfig arguments of the main train call
    fraction: float  # share of the training rows the estimator visits
    passes: int
    curve: tuple  # sparsity grid of the curve stage, () for none
    padding: str
    oracle: bool
    finetune_epochs: int  # masked fine-tune after pruning, 0 for none
    datasets: int  # seeded datasets a run sets up, then cycles through


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "toy": Workload(
        synth=None,
        train_rows=None,
        train=dict(backbone=sp.DEEPFM, dim=3, hidden=(3, 3), epochs=150, batch_size=16,
                   learning_rate=1e-2, seed=1),
        fraction=1.0,
        passes=64,
        curve=(),
        padding=sp.ZERO,
        oracle=True,
        finetune_epochs=0,
        datasets=64,
    ),
    "large-table": Workload(
        synth=sp.SyntheticConfig(fields=5, tokens_per_field=(20000,) * 5, rows=60_000),
        train_rows=50_000,
        train=dict(backbone=sp.FM, dim=16, epochs=1, batch_size=256, learning_rate=1e-3, seed=0),
        fraction=0.1,
        passes=1,
        curve=(0.5, 0.8, 0.95),
        padding=sp.ZERO,
        oracle=False,
        finetune_epochs=0,
        datasets=3,
    ),
    "wide-deepfm": Workload(
        synth=sp.SyntheticConfig(fields=39, tokens_per_field=(200,) * 39, rows=10_000),
        train_rows=8_000,
        train=dict(backbone=sp.DEEPFM, dim=16, hidden=(64, 32), epochs=2, batch_size=256,
                   learning_rate=1e-3, seed=0),
        fraction=0.0625,
        passes=1,
        curve=(0.5, 0.8, 0.95),
        padding=sp.CODEBOOK,
        oracle=False,
        finetune_epochs=1,
        datasets=3,
    ),
}


@dataclass
class Data:
    train: sp.Dataset
    holdout: sp.Dataset


def data_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def timed(tr: Tracer, name: str, fn, *args, **kwargs):
    with tr.span(name) as span:
        result = fn(*args, **kwargs)
    return result, span


def setup(wl: Workload, seed: int, work: str, tr: Tracer) -> tuple:
    """Generate rows, round-trip them through CSV, build the vocabulary on
    the training rows and encode both splits. Returns (data, seconds)."""
    with tr.span("setup") as whole:
        if wl.synth is None:
            (rows, schema), _ = timed(tr, "synth.synthetic_rows", sp.toy_rows, seed)
            min_count = sp.TOY_MIN_COUNT
        else:
            config = replace(wl.synth, seed=seed)
            rows, _ = timed(tr, "synth.synthetic_rows", sp.synthetic_rows, config)
            schema = sp.synthetic_schema(config)
            min_count = 0
        path = os.path.join(work, "data.csv")
        timed(tr, "data.write_csv_rows", sp.write_csv_rows, path, rows)
        rows, span = timed(tr, "data.read_csv_rows", sp.read_csv_rows, path)
        span.counts["data.rows"] = len(rows)
        cut = wl.train_rows or len(rows)
        vocab, span = timed(tr, "data.build_vocabulary", sp.build_vocabulary, rows[:cut], schema, min_count)
        span.counts["data.vocab_n"] = vocab.n
        train, _ = timed(tr, "data.encode_rows", sp.encode_rows, rows[:cut], vocab)
        holdout = train
        if cut < len(rows):
            holdout, _ = timed(tr, "data.encode_rows", sp.encode_rows, rows[cut:], vocab)
    return Data(train, holdout), whole.seconds


def pipeline(wl: Workload, data: Data, work: str, tr: Tracer) -> dict:
    """One pass through the CLI stages. Returns the timings the end-to-end
    metrics need plus every loaded artifact the checks look at."""
    path = lambda name: os.path.join(work, name)  # noqa: E731
    vocab = data.train.vocab
    files = []  # (path, object loaded from it, serializer)
    out = {"files": files}

    def save(name, fn, target, count=None):
        _, span = timed(tr, name, fn, target)
        if count:
            span.counts[count] = os.path.getsize(target)

    def load_model(target):
        model, _ = timed(tr, "model.load_model", sp.load_model, target, vocab)
        files.append((target, model, model_to_bytes))
        return model

    def load_scores(target):
        scores, _ = timed(tr, "attribution.scores_load", sp.AttributionScores.load, target)
        files.append((target, scores, sp.AttributionScores.to_bytes))
        return scores

    def load_pruned(target):
        pruned, _ = timed(tr, "pruner.load_pruned", sp.load_pruned, target)
        files.append((target, pruned, sp.PrunedModel.to_bytes))
        return pruned

    def evaluate(target, loader):
        with tr.span("stage.eval"):
            loaded = loader(target)
            report, span = timed(tr, "pruner.evaluate", sp.evaluate, loaded, data.holdout)
        return loaded, report, span.seconds

    model_path = path("model.shvr")
    with tr.span("pipeline") as whole:
        with tr.span("stage.train"):
            config = sp.TrainConfig(**wl.train)
            model, span = timed(tr, "model.train", sp.train, data.train, config)
            steps = config.epochs * math.ceil(len(data.train) / config.batch_size)
            out["steps"] = span.counts["model.train_steps"] = steps
            out["train_s"] = span.seconds
            save("model.save_model", partial(sp.save_model, model), model_path, "model.checkpoint_bytes")

        _, report, _ = evaluate(model_path, load_model)
        out["dense_logloss"] = report.logloss

        with tr.span("stage.attribute"):
            model = load_model(model_path)
            subset, _ = timed(tr, "data.subsample", data.train.subsample, wl.fraction, 0)
            scores, span = timed(
                tr, "attribution.estimate_shapley", sp.estimate_shapley,
                model, subset, passes=wl.passes, seed=0, threads=SHAPLEY_THREADS,
            )
            out["visits"] = span.counts["attribution.visits"] = wl.passes * len(subset)
            span.counts["attribution.forwards"] = scores.forward_count
            out["attribute_s"] = span.seconds
            out["subset"] = subset
            scores_path = path("scores.shvr")
            save("attribution.scores_save", scores.save, scores_path, "attribution.scores_bytes")

        if wl.oracle:
            with tr.span("stage.oracle"):
                model = load_model(model_path)
                exact, _ = timed(
                    tr, "attribution.exact_shapley_global", sp.exact_shapley_global, model, data.train
                )
                oracle_path = path("oracle.shvr")
                save("attribution.scores_save", exact.save, oracle_path)
                out["oracle"] = load_scores(oracle_path)

        if wl.padding == sp.CODEBOOK:
            with tr.span("stage.codebook"):
                model = load_model(model_path)
                codebook, _ = timed(tr, "codebook.compute_codebook", sp.compute_codebook, model, data.train)
                model = replace(model, codebook=codebook)
                model_path = path("model_codebook.shvr")
                save("model.save_model", partial(sp.save_model, model), model_path)

        if wl.curve:
            with tr.span("stage.curve"):
                model = load_model(model_path)
                scores = load_scores(scores_path)
                out["curve"], _ = timed(
                    tr, "pruner.prune_curve", sp.prune_curve, model, scores, wl.curve, data.holdout,
                    padding=wl.padding, codebook=model.codebook, frequencies=data.train.frequencies,
                )
                timed(tr, "pruner.write_curve_csv", sp.write_curve_csv, path("curve.csv"), out["curve"])

        with tr.span("stage.prune"):
            model = load_model(model_path)
            scores = load_scores(scores_path)
            pruned, span = timed(
                tr, "pruner.prune", sp.prune, model, scores, SPARSITY, wl.padding,
                model.codebook, data.train.frequencies,
            )
            span.counts["pruner.kept_params"] = pruned.kept_count
            pruned_path = path("pruned.shvr")
            save("pruner.save", pruned.save, pruned_path, "pruner.pruned_bytes")
        out["model"], out["scores"] = model, scores

        pruned, report, out["eval_s"] = evaluate(pruned_path, load_pruned)
        out["pruned"], out["pruned_logloss"] = pruned, report.logloss

        if wl.finetune_epochs:
            with tr.span("stage.finetune"):
                pruned = load_pruned(pruned_path)
                init = sp.Model(
                    sp.EmbeddingTable(pruned.effective_values().copy(), pruned.offsets.copy()),
                    pruned.backbone,
                    vocab,
                )
                config = sp.TrainConfig(**{**wl.train, "epochs": wl.finetune_epochs})
                tuned, _ = timed(
                    tr, "model.train_masked", sp.train, data.train, config, init=init,
                    mask=pruned.prune_mask(),
                    padding=pruned.codebook if wl.padding == sp.CODEBOOK else sp.ZERO,
                )
                tuned_path = path("finetuned.shvr")
                save("model.save_model", partial(sp.save_model, tuned), tuned_path)
            out["finetuned"], _, _ = evaluate(tuned_path, load_model)
    out["pipeline_s"] = whole.seconds
    return out


# Correctness checks. Each returns (ok, detail) and counts as one operation.

def check_forward_count(scores, m: int, d: int, visits: int) -> tuple:
    expect = (m * d + 1) * visits
    return scores.forward_count == expect, f"forward_count={scores.forward_count} expected={expect}"


def check_efficiency(model, subset, scores) -> tuple:
    """Score total against the mean loss jump from the model to a copy with an
    all-zero table, scored through predict_proba."""
    zeroed = sp.Model(
        sp.EmbeddingTable(np.zeros_like(model.embedding.values), model.embedding.offsets),
        model.backbone,
        model.vocab,
    )
    labels = subset.labels.astype(np.float64)
    full = sp.log_loss(sp.predict_proba(model, subset.ids), labels)
    empty = sp.log_loss(sp.predict_proba(zeroed, subset.ids), labels)
    jump = float(np.mean(empty - full))
    gap = abs(float(scores.values.sum()) - jump) / max(1.0, abs(jump))
    return gap <= EFFICIENCY_TOL, f"normalised_gap={gap:.3e} tol={EFFICIENCY_TOL:g}"


def check_null_rows(scores, subset) -> tuple:
    untouched = np.ones(scores.values.shape[0], bool)
    untouched[np.unique(subset.ids)] = False
    ok = bool(np.all(scores.values[untouched] == 0.0))
    return ok, f"untouched_rows={int(untouched.sum())} bitwise_zero={ok}"


def check_budget(kept: int, n: int, d: int, sparsity: float) -> tuple:
    expect = n * d - round(sparsity * n * d)
    return kept == expect, f"t={sparsity:g} kept_params={kept} expected={expect}"


def check_round_trip(path: str, loaded, serialize) -> tuple:
    with open(path, "rb") as fh:
        ok = fh.read() == serialize(loaded)
    return ok, f"{os.path.basename(path)} bit_identical={ok}"


def check_oracle(model, dataset, exact) -> tuple:
    """Acceptance criterion 01: a 20k-walk estimate on the 40-row toy corpus
    lies within ORACLE_MAE_TOL mean absolute error of the exact oracle."""
    estimate = sp.estimate_shapley(model, dataset, passes=ORACLE_PASSES, seed=0, threads=SHAPLEY_THREADS)
    mae = float(np.abs(estimate.values - exact.values).mean())
    walks = ORACLE_PASSES * len(dataset)
    return mae <= ORACLE_MAE_TOL, f"walks={walks} oracle_mae={mae:.3e} tol={ORACLE_MAE_TOL:g}"


def check_frozen(tuned, pruned) -> tuple:
    flags = pruned.prune_mask().dense()
    ok = bool(np.array_equal(tuned.embedding.values[flags], pruned.effective_values()[flags]))
    return ok, f"pruned_coords={int(flags.sum())} unmoved={ok}"


def run_checks(wl: Workload, data: Data, out: dict, accuracy: bool) -> list:
    """Every check of one pipeline's outputs. The oracle accuracy check runs
    its own 20k-walk estimate, so only runs when `accuracy` is set."""
    model, scores, subset = out["model"], out["scores"], out["subset"]
    n, d = model.embedding.values.shape
    results = [
        ("forward_accounting", check_forward_count(scores, subset.ids.shape[1], d, out["visits"])),
        ("efficiency", check_efficiency(model, subset, scores)),
        ("null_rows", check_null_rows(scores, subset)),
        ("budget", check_budget(out["pruned"].kept_count, n, d, SPARSITY)),
    ]
    results += [
        ("budget", check_budget(row["kept_params"], n, d, row["sparsity"])) for row in out.get("curve", ())
    ]
    results += [("round_trip", check_round_trip(*entry)) for entry in out["files"]]
    if "oracle" in out and accuracy:
        results.append(("oracle", check_oracle(model, data.train, out["oracle"])))
    if "finetuned" in out:
        results.append(("frozen", check_frozen(out["finetuned"], out["pruned"])))
    return results


def blas_info() -> tuple:
    """(BLAS library name, thread count the loaded library reports)."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        fn = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return name, int(fn())
    return name, None


def git_state() -> tuple:
    """(sha, dirty) of the checkout, or (None, None) when it is not a git
    working tree of its own."""
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30, env=env, check=True,
        ).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def provenance(name: str, seed: int, shape: dict) -> dict:
    sha, dirty = git_state()
    blas, blas_threads = blas_info()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "shapley_threads": SHAPLEY_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": name,
        "seed": seed,
        "shape": shape,
    }


def shape_of(data: Data, out: dict) -> dict:
    n, d = out["model"].embedding.values.shape
    m = data.train.ids.shape[1]
    return {"n": n, "m": m, "d": d, "md": m * d,
            "rows": len(data.train) + (len(data.holdout) if data.holdout is not data.train else 0),
            "visits": out["visits"]}


def run(name: str, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up each of the workload's datasets, then repeat pipeline + checks
    over them in turn until the next repetition would end after `seconds`
    (set-up included). An untraced run visits every dataset at least once; a
    traced one runs at least MIN_TRACE_REPS repetitions. Returns the full
    record of the run."""
    quiet, tracer = Tracer(False), Tracer(True)
    setup_tracer = tracer if trace else quiet
    datasets, setups, samples, pairs, failures = [], [], [], [], []
    checks = 0
    min_reps = MIN_TRACE_REPS if trace else wl.datasets
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as work:
        start = time.perf_counter()
        for index in range(wl.datasets):
            tracer.trace_id = f"{name}/seed{seed}/setup{index}"
            data, setup_s = setup(wl, data_seed(seed, index), work, setup_tracer)
            datasets.append(data)
            setups.append(setup_s)
        rep, last = 0, 0.0
        while rep < min_reps or time.perf_counter() - start + last < seconds:
            began = time.perf_counter()
            data = datasets[rep % wl.datasets]
            tracer.trace_id = f"{name}/seed{seed}/rep{rep}"
            runs = [quiet, tracer] if trace else [quiet]
            if rep % 2:
                runs.reverse()
            for tr in runs:
                out = pipeline(wl, data, work, tr)
                if tr is quiet:
                    untraced = out
                for check, (ok, detail) in run_checks(wl, data, out, accuracy=rep == 0 and tr is quiet):
                    checks += 1
                    if not ok:
                        failures.append(f"rep{rep} {check}: {detail}")
            if trace:
                pairs.append((tracer.trace_id, untraced["pipeline_s"]))
            samples.append({
                "dataset": rep % wl.datasets,
                "shape": shape_of(data, untraced),
                "pipeline_s": untraced["pipeline_s"],
                "train_s": untraced["train_s"],
                "steps": untraced["steps"],
                "attribute_s": untraced["attribute_s"],
                "visits": untraced["visits"],
                "eval_s": untraced["eval_s"],
                "eval_rows": len(data.holdout),
                "dense_logloss": untraced["dense_logloss"],
                "pruned_logloss": untraced["pruned_logloss"],
            })
            rep += 1
            last = time.perf_counter() - began
    record = {
        "provenance": provenance(name, seed, samples[0]["shape"]),
        "repetitions": len(samples),
        "setup_s": setups,
        "samples": samples,
        "checks": checks,
        "failures": failures,
    }
    if trace:
        record["metrics"] = trace_metrics(tracer, pairs)
        record["layers"] = {key: {"moves": moves, "on": on} for key, (_, moves, on) in PER_LAYER.items()}
        record["spans"] = [span.as_dict() for span in tracer.spans]
    else:
        record["metrics"] = end_to_end_metrics(wl, setups, samples)
    return record


def end_to_end_metrics(wl: Workload, setups: list, samples: list) -> dict:
    # Other tenants of a shared host slow this process in phases lasting
    # seconds to minutes. Across runs on a 2-core VM, a run's mean (total work
    # over total time, for the rates) spread less than its median or its
    # fastest repetition, so timings are means over the run's repetitions.
    # Set-up reports its median. Quality is a pure function of the dataset,
    # so it is averaged once over each distinct dataset of the run.
    def total(key):
        return sum(s[key] for s in samples)

    values = {
        "setup_s": float(statistics.median(setups)),
        "pipeline_s": total("pipeline_s") / len(samples),
        "train_steps_per_s": total("steps") / total("train_s"),
        "attribute_visits_per_s": total("visits") / total("attribute_s"),
        "eval_rows_per_s": total("eval_rows") / total("eval_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for key in ("dense_logloss", "pruned_logloss"):
        values[key] = float(np.mean([s[key] for s in samples[: wl.datasets]]))
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}


def trace_metrics(tracer: Tracer, pairs: list) -> dict:
    """Per-layer metrics over the traced repetitions: the mean of each self
    time, like the end-to-end timings, and the median of each count. Set-up
    layers come from the set-up traces."""
    by_trace = {}
    for span in tracer.spans:
        by_trace.setdefault(span.trace, []).append(span)
    times, counts = {}, {}
    for spans in by_trace.values():
        seconds, tally = layer_totals(spans)
        for key, value in seconds.items():
            times.setdefault(key, []).append(value)
        for key, value in tally.items():
            counts.setdefault(key, []).append(value)
    traced = [next(s.seconds for s in by_trace[trace_id] if s.name == "pipeline") for trace_id, _ in pairs]
    values = {
        "trace.pipeline_s": float(np.mean(traced)),
        "trace.uncovered_s": float(np.mean(times["pipeline"])),
        "trace.overhead_s": float(np.mean(traced)) - float(np.mean([untraced for _, untraced in pairs])),
    }
    for key in PER_LAYER:
        if key.startswith("trace."):
            continue
        if key.endswith("_s"):
            values[key] = float(np.mean(times.get(key[:-2], [0.0])))
        else:
            values[key] = float(statistics.median(counts.get(key, [0])))
    return {key: {"value": values[key], "unit": unit} for key, (unit, _, _) in PER_LAYER.items()}


def result_line(record: dict) -> dict:
    return {
        "correct": not record["failures"],
        "attempted": record["checks"],
        "failed": len(record["failures"]),
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    record = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
