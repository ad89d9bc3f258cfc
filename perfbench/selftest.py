#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload shrunk to a few hundred rows, untraced and traced, and
checks that the result line names every metric of BENCHMARK.json with its
unit and that all correctness checks pass. Then shows that the checks fire:
one perturbed score coordinate must trip the efficiency check and a wrong
kept-parameter count must trip the budget check. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from run import sp  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "toy": dict(passes=32, datasets=2),
    "large-table": dict(
        synth=sp.SyntheticConfig(fields=5, tokens_per_field=(300,) * 5, rows=600),
        train_rows=500,
        train=dict(run.WORKLOADS["large-table"].train, epochs=1),
        datasets=2,
    ),
    "wide-deepfm": dict(
        synth=sp.SyntheticConfig(fields=39, tokens_per_field=(20,) * 39, rows=300),
        train_rows=240,
        train=dict(run.WORKLOADS["wide-deepfm"].train, hidden=(8, 4), epochs=1),
        datasets=2,
    ),
}


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], **TINY[name])


def main() -> int:
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads differ from the harness")
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for name in run.WORKLOADS:
        for trace, metrics in wanted.items():
            record = run.run(name, tiny(name), seed=0, seconds=0, trace=bool(trace))
            line = run.result_line(record)
            where = f"{name} --trace {trace}"
            problems.extend(f"{where}: {failure}" for failure in record["failures"])
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(line)}")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{where}: {line['failed']} of {line['attempted']} checks failed")
            expect(set(line["metrics"]) == {m["name"] for m in metrics},
                   f"{where}: metric names differ from BENCHMARK.json")
            for metric in metrics:
                got = line["metrics"].get(metric["name"], {})
                expect(got.get("unit") == metric["unit"],
                       f"{where}: {metric['name']} unit {got.get('unit')!r}")
                expect(isinstance(got.get("value"), (int, float)), f"{where}: {metric['name']} has no value")

    wl = tiny("large-table")
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as work:
        data, _ = run.setup(wl, run.data_seed(0, 0), work, Tracer(False))
        out = run.pipeline(wl, data, work, Tracer(False))
    model, subset, scores = out["model"], out["subset"], out["scores"]
    n, d = model.embedding.values.shape

    expect(run.check_efficiency(model, subset, scores)[0], "efficiency check fails on true scores")
    perturbed = replace(scores, values=scores.values.copy())
    perturbed.values[subset.ids[0, 0], 0] += 1e-6
    expect(not run.check_efficiency(model, subset, perturbed)[0],
           "efficiency check passes with a perturbed score coordinate")

    kept = out["pruned"].kept_count
    expect(run.check_budget(kept, n, d, run.SPARSITY)[0], "budget check fails on the true count")
    expect(not run.check_budget(kept + 1, n, d, run.SPARSITY)[0],
           "budget check passes with a wrong kept_params")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
