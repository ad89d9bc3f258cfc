import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shapprune as sp
from shapprune import serialization as ser
from shapprune.attribution import _walk_losses
from shapprune.cli import _detect_and_load, main
from shapprune.codebook import codebook_section_payload
from shapprune.model import (
    NonFiniteError,
    model_from_bytes,
    model_to_bytes,
    write_backbone,
    write_head,
)
from shapprune.serialization import CheckpointError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """Toy corpus on disk plus every artifact of one full CLI run."""
    root = tmp_path_factory.mktemp("cli")
    rows, schema = sp.toy_rows(seed=0)
    paths = {
        "data": str(root / "toy.csv"),
        "schema": str(root / "schema.json"),
        "vocab": str(root / "toy.vocab"),
        "model": str(root / "model.shvr"),
        "scores": str(root / "scores.shvr"),
        "magnitude": str(root / "magnitude.shvr"),
        "pruned": str(root / "pruned.shvr"),
        "root": root,
    }
    sp.write_csv_rows(paths["data"], rows)
    schema.save(paths["schema"])
    assert main([
        "train", "--data", paths["data"], "--schema", paths["schema"],
        "--vocab-out", paths["vocab"], "--out", paths["model"],
        "--backbone", "deepfm", "--dim", "3", "--hidden", "3,3",
        "--epochs", "40", "--batch-size", "16", "--lr", "0.01",
        "--min-count", str(sp.TOY_MIN_COUNT), "--seed", "1",
    ]) == 0
    assert main([
        "attribute", "--model", paths["model"], "--vocab", paths["vocab"],
        "--data", paths["data"], "--out", paths["scores"],
        "--method", "shapley", "--passes", "4", "--seed", "0",
    ]) == 0
    assert main([
        "attribute", "--model", paths["model"], "--vocab", paths["vocab"],
        "--out", paths["magnitude"], "--method", "magnitude",
    ]) == 0
    assert main([
        "prune", "--model", paths["model"], "--scores", paths["scores"],
        "--vocab", paths["vocab"], "--data", paths["data"],
        "--sparsity", "0.5", "--out", paths["pruned"],
    ]) == 0
    return paths


class TestPipeline:
    def test_artifacts_exist_and_load(self, toy_files):
        vocab = sp.Vocabulary.load(toy_files["vocab"])
        assert vocab.field_sizes == (2, 2, 3)
        model = sp.load_model(toy_files["model"], vocab)
        assert model.backbone.kind == sp.DEEPFM
        scores = sp.AttributionScores.load(toy_files["scores"])
        assert scores.method == sp.SHAPLEY
        assert scores.passes == 4
        pruned = sp.load_pruned(toy_files["pruned"])
        assert pruned.kept_count == 11

    def test_train_reports_epochs_and_metrics(self, toy_files, capsys, tmp_path):
        out = str(tmp_path / "retrain.shvr")
        code, stdout, _ = run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--out", out, "--backbone", "fm", "--dim", "2", "--epochs", "2",
            "--batch-size", "16", "--seed", "3",
        )
        assert code == 0
        lines = stdout.splitlines()
        assert sum(1 for line in lines if line.startswith("event=epoch ")) == 2
        assert any(line.startswith("event=train_done ") for line in lines)
        assert "train_logloss=" in lines[-1]
        fields = dict(part.split("=") for part in lines[-1].split())
        assert {"seconds", "steps", "steps_per_s"} <= fields.keys()
        assert fields["steps"] == "6"  # 2 epochs of ceil(40 / 16) batches

    def test_eval_dense_model(self, toy_files, capsys):
        code, stdout, _ = run(
            capsys,
            "eval", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--data", toy_files["data"],
        )
        assert code == 0
        assert stdout.startswith("event=eval logloss=")
        assert "count=40" in stdout
        assert "freq_bucket" not in stdout
        keys = {pair.split("=")[0] for pair in stdout.split()}
        assert {"seconds", "rows_per_s"} <= keys
        assert f"bytes={Path(toy_files['model']).stat().st_size} " in stdout

    def test_eval_pruned_model_adds_bucket_lines(self, toy_files, capsys):
        code, stdout, _ = run(
            capsys,
            "eval", "--model", toy_files["pruned"], "--vocab", toy_files["vocab"],
            "--data", toy_files["data"],
        )
        assert code == 0
        buckets = [line for line in stdout.splitlines() if line.startswith("event=freq_bucket")]
        assert len(buckets) == 3
        assert "mean_kept_dims=" in buckets[0]
        assert f"bytes={Path(toy_files['pruned']).stat().st_size} " in stdout.splitlines()[0]

    def test_train_on_non_finite_numeric_cells(self, capsys, tmp_path):
        """inf, -inf, 1e400 and nan have no log2 bucket; each is kept as its
        own token instead of crashing the tokenizer."""
        data, schema = str(tmp_path / "num.csv"), str(tmp_path / "schema.json")
        vocab = str(tmp_path / "num.vocab")
        cells = ["inf", "-inf", "1e400", "nan", "9"]
        sp.write_csv_rows(data, [(k % 2, cell, "a") for k, cell in enumerate(cells)])
        sp.FieldSchema(("num", "cat"), (sp.NUMERIC_BUCKETED, sp.CATEGORICAL)).save(schema)
        code, _, stderr = run(
            capsys,
            "train", "--data", data, "--schema", schema, "--vocab-out", vocab,
            "--out", str(tmp_path / "m.shvr"), "--dim", "2", "--epochs", "1",
        )
        assert code == 0, stderr
        assert list(sp.Vocabulary.load(vocab).tables[0]) == cells[:4] + ["4"]

    def test_eval_pruned_model_with_fewer_features_than_buckets(self, capsys, tmp_path):
        """A one-field corpus keeps the single token a: a two-row table, so
        each frequency bucket holds one feature and none is empty."""
        data, schema = str(tmp_path / "one.csv"), str(tmp_path / "schema.json")
        vocab = str(tmp_path / "one.vocab")
        model, scores, pruned = (str(tmp_path / f"{name}.shvr") for name in ("m", "s", "p"))
        sp.write_csv_rows(data, [(1, "a"), (0, "a")])
        sp.FieldSchema.categorical(1).save(schema)
        for argv in (
            ["train", "--data", data, "--schema", schema, "--vocab-out", vocab, "--out", model,
             "--dim", "2", "--epochs", "1", "--min-count", "1"],
            ["attribute", "--model", model, "--vocab", vocab, "--out", scores,
             "--method", "magnitude"],
            ["prune", "--model", model, "--scores", scores, "--vocab", vocab, "--data", data,
             "--sparsity", "0.5", "--out", pruned],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        code, stdout, stderr = run(capsys, "eval", "--model", pruned, "--vocab", vocab,
                                   "--data", data)
        assert (code, stderr) == (0, "")
        buckets = [line for line in stdout.splitlines() if line.startswith("event=freq_bucket")]
        assert len(buckets) == sp.Vocabulary.load(vocab).n == 2
        assert all(" features=1 " in line for line in buckets)

    def test_curve_writes_csv(self, toy_files, capsys, tmp_path):
        out = str(tmp_path / "curve.csv")
        code, stdout, _ = run(
            capsys,
            "curve", "--model", toy_files["model"], "--scores", toy_files["scores"],
            "--vocab", toy_files["vocab"], "--data", toy_files["data"],
            "--sparsities", "0.2,0.8", "--out", out,
        )
        assert code == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == ",".join(sp.CURVE_HEADER)
        assert len(lines) == 3
        assert "event=curve_done points=2" in stdout
        done = stdout.splitlines()[-1]
        assert {"seconds", "points_per_s"} <= {pair.split("=")[0] for pair in done.split()}

    def test_prune_with_codebook_padding(self, toy_files, capsys, tmp_path):
        # a codebook embedded in the dense file is not read: the codebook
        # comes from --data
        model = sp.load_model(toy_files["model"])
        stamped = str(tmp_path / "stamped.shvr")
        sp.save_model(dataclasses.replace(model, codebook=sp.Codebook(np.ones((3, 3)))), stamped)
        out = str(tmp_path / "pruned_cb.shvr")
        code, stdout, _ = run(
            capsys,
            "prune", "--model", stamped, "--scores", toy_files["scores"],
            "--vocab", toy_files["vocab"], "--data", toy_files["data"],
            "--sparsity", "0.8", "--padding", "codebook", "--out", out,
        )
        assert code == 0
        assert stdout.startswith("event=prune ")
        assert {"seconds", "coords_per_s"} <= {pair.split("=")[0] for pair in stdout.split()}
        pruned = sp.load_pruned(out)
        assert pruned.padding == sp.CODEBOOK
        dataset = sp.encode_rows(
            sp.read_csv_rows(toy_files["data"]), sp.Vocabulary.load(toy_files["vocab"])
        )
        expected = sp.compute_codebook(model, dataset)
        assert np.array_equal(pruned.codebook.values, expected.values)
        assert pruned.codebook.frequency_fingerprint == expected.frequency_fingerprint

    def test_finetune_freezes_mask(self, toy_files, capsys, tmp_path):
        out = str(tmp_path / "tuned.shvr")
        code, stdout, _ = run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--out", out, "--backbone", "deepfm", "--dim", "3", "--hidden", "3,3",
            "--epochs", "2", "--batch-size", "16", "--lr", "0.001", "--seed", "1",
            "--mask", toy_files["pruned"],
        )
        assert code == 0
        assert "event=finetune" in stdout
        pruned = sp.load_pruned(toy_files["pruned"])
        tuned = sp.load_model(out)
        flags = pruned.prune_mask().dense()
        assert np.all(tuned.embedding.values[flags] == 0.0)
        assert not np.array_equal(tuned.embedding.values, pruned.effective_values())

    @pytest.mark.parametrize(
        "argv, event, rate",
        [
            ("synth --rows 50 --fields 2 --tokens-per-field 5 --out {out}", "synth", None),
            ("train --data {data} --vocab {vocab} --epochs 1 --out {out}",
             "train_done", "steps_per_s"),
            ("attribute --model {model} --vocab {vocab} --data {data} --out {out}",
             "attribute", "visits_per_s"),
            ("attribute --model {model} --vocab {vocab} --data {data} --method taylor --out {out}",
             "attribute", None),
            ("attribute --model {model} --vocab {vocab} --method magnitude --out {out}",
             "attribute", None),
            ("prune --model {model} --scores {scores} --sparsity 0.5 --out {out}",
             "prune", "coords_per_s"),
            ("curve --model {model} --scores {scores} --vocab {vocab} --data {data} "
             "--sparsities 0.5 --out {out}", "curve_done", "points_per_s"),
            ("oracle --model {model} --vocab {vocab} --data {data} --out {out}",
             "oracle", "forwards_per_s"),
            ("eval --model {model} --vocab {vocab} --data {data}", "eval", "rows_per_s"),
        ],
        ids=["synth", "train", "shapley", "taylor", "magnitude", "prune", "curve", "oracle", "eval"],
    )
    def test_every_stage_closes_with_its_time(self, toy_files, capsys, tmp_path, argv, event, rate):
        argv = argv.format(**toy_files, out=tmp_path / "out").split()
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        fields = dict(pair.split("=", 1) for pair in stdout.splitlines()[-1].split())
        assert fields["event"] == event
        assert float(fields["seconds"]) > 0.0
        if rate is not None:
            assert float(fields[rate]) > 0.0

    @pytest.mark.parametrize(
        "flags, config",
        [
            ((), "fm dim=8"),
            (("--backbone", "fm", "--dim", "3"), "fm dim=3"),
            (("--backbone", "deepfm", "--dim", "4", "--hidden", "3,3"), "deepfm dim=4 hidden=3,3"),
            (("--backbone", "deepfm", "--dim", "3", "--hidden", "3"), "deepfm dim=3 hidden=3"),
            (("--backbone", "deepfm", "--dim", "3", "--hidden", "4,3"), "deepfm dim=3 hidden=4,3"),
        ],
        ids=["defaults", "backbone", "dim", "depth", "width"],
    )
    def test_finetune_refuses_a_config_that_differs(self, toy_files, capsys, tmp_path, flags, config):
        # the pruned toy model is a DeepFM with d = 3 and hidden sizes (3, 3)
        code, _, stderr = run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--out", str(tmp_path / "tuned.shvr"), "--epochs", "1", *flags,
            "--mask", toy_files["pruned"],
        )
        assert code == 1
        assert stderr.count("error:") == 1
        assert f"is deepfm dim=3 hidden=3,3, but the config describes {config}" in stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--dim", "4", "--min-count", str(sp.TOY_MIN_COUNT)), "but the config describes"),
            (("--dim", "3", "--min-count", "0"), "vocabulary does not match this checkpoint"),
        ],
        ids=["config", "vocabulary"],
    )
    def test_failed_finetune_writes_no_vocabulary(self, toy_files, capsys, tmp_path, flags, message):
        # the vocabulary is built from --schema; a run that fails must not
        # leave it behind as <out>.vocab
        code, stdout, stderr = run(
            capsys,
            "train", "--data", toy_files["data"], "--schema", toy_files["schema"],
            "--out", str(tmp_path / "tuned.shvr"), "--epochs", "1",
            "--backbone", "deepfm", "--hidden", "3,3", *flags, "--mask", toy_files["pruned"],
        )
        assert code == 1
        assert stderr.count("error:") == 1 and message in stderr
        assert "event=vocabulary" not in stdout
        assert list(tmp_path.iterdir()) == []

    def test_oracle_compare_reports_mae(self, toy_files, capsys, tmp_path):
        out = str(tmp_path / "exact.shvr")
        code, stdout, _ = run(
            capsys,
            "oracle", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--data", toy_files["data"], "--out", out,
            "--compare", toy_files["scores"],
        )
        assert code == 0
        assert "event=oracle " in stdout
        compare_line = [l for l in stdout.splitlines() if l.startswith("event=oracle_compare")][0]
        mae = float(compare_line.split("mae=")[1])
        assert 0.0 < mae < 0.01
        exact = sp.AttributionScores.load(out)
        estimate = sp.AttributionScores.load(toy_files["scores"])
        assert np.abs(exact.values - estimate.values).mean() == pytest.approx(mae, abs=5e-7)


    def test_train_reports_validation_metrics(self, toy_files, capsys, tmp_path):
        code, stdout, _ = run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--val-data", toy_files["data"], "--out", str(tmp_path / "m.shvr"),
            "--backbone", "fm", "--dim", "2", "--epochs", "1", "--batch-size", "16",
        )
        assert code == 0
        done = stdout.splitlines()[-1]
        assert done.startswith("event=train_done ")
        # validating on the training rows must repeat the training metrics
        fields = dict(part.split("=") for part in done.split())
        assert fields["val_logloss"] == fields["train_logloss"]
        assert fields["val_auc"] == fields["train_auc"]

    @pytest.mark.parametrize(
        "extra, lines, method, forwards",
        [
            (("--method", "taylor"), [], sp.TAYLOR, 40),
            (
                ("--fraction", "0.5", "--passes", "1"),
                ["event=subsample fraction=0.500000 rows=20"],
                sp.SHAPLEY,
                (9 + 1) * 20,
            ),
        ],
        ids=["taylor", "fraction"],
    )
    def test_attribute_variants(self, toy_files, capsys, tmp_path, extra, lines, method, forwards):
        out = str(tmp_path / "s.shvr")
        code, stdout, _ = run(
            capsys,
            "attribute", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--data", toy_files["data"], "--out", out, *extra,
        )
        assert code == 0
        assert stdout.splitlines()[:-1] == lines
        assert f"event=attribute method={method} " in stdout
        keys = {pair.split("=")[0] for pair in stdout.splitlines()[-1].split()}
        assert "seconds" in keys
        rates = {"visits_per_s", "forwards_per_s"}
        assert rates <= keys if method == sp.SHAPLEY else not rates & keys
        scores = sp.AttributionScores.load(out)
        assert scores.method == method
        assert scores.forward_count == forwards

    @pytest.mark.parametrize("backbone", [sp.FM, sp.DEEPFM])
    def test_attribute_logs_the_efficiency_gap(self, toy_files, capsys, tmp_path, backbone):
        # every walk runs from the model to the zeroed table, so the score
        # total is the mean full-removal loss jump up to rounding
        model = str(tmp_path / "m.shvr")
        hidden = ["--hidden", "3,3"] if backbone == sp.DEEPFM else []
        assert main([
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"], "--out", model,
            "--backbone", backbone, "--dim", "3", *hidden, "--epochs", "20", "--batch-size", "16",
        ]) == 0
        capsys.readouterr()
        code, stdout, _ = run(
            capsys,
            "attribute", "--model", model, "--vocab", toy_files["vocab"],
            "--data", toy_files["data"], "--out", str(tmp_path / "s.shvr"), "--passes", "3",
        )
        assert code == 0
        fields = dict(part.split("=", 1) for part in stdout.splitlines()[-1].split())
        assert fields["event"] == "attribute"
        assert float(fields["efficiency_gap"]) <= 1e-9


class TestImportCost:
    def test_cli_import_leaves_out_scipy_stats(self):
        """numpy is the only runtime dependency: neither `import shapprune`
        nor `import shapprune.cli` loads a scipy module. scipy.stats alone
        cost about a second of every CLI process, scipy.special ~0.4 s."""
        src = Path(__file__).resolve().parent.parent / "src"
        loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
        probe = f"import sys, shapprune; print({loaded}); import shapprune.cli; print({loaded})"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines() == ["[]", "[]"]


class TestDetectAndLoad:
    @pytest.mark.parametrize("kind, loaded", [("model", sp.Model), ("pruned", sp.PrunedModel)])
    def test_one_checksum_pass_per_file(self, toy_files, monkeypatch, kind, loaded):
        calls = []

        def crc32(data, *start):
            calls.append(len(data))
            return zlib.crc32(data, *start)

        monkeypatch.setattr(ser, "zlib", SimpleNamespace(crc32=crc32))
        assert isinstance(_detect_and_load(toy_files[kind]), loaded)
        assert calls == [Path(toy_files[kind]).stat().st_size - 4]

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("tag to pruned", "checksum mismatch"),
            ("tag to unknown", "checksum mismatch"),
            ("cut to header", "truncated file"),
            ("cut in half", "checksum mismatch"),
            ("vocabulary", r"neither a model nor a pruned model \(kind tag 16\)"),
        ],
    )
    def test_damaged_or_wrong_kind_file(self, toy_files, tmp_path, damage, message):
        data = bytearray(Path(toy_files["model"]).read_bytes())
        if damage.startswith("tag"):
            data[ser.BODY_START] = ser.TAG_PRUNED if damage == "tag to pruned" else 99
        elif damage == "cut to header":
            data = data[: ser.BODY_START]
        elif damage == "cut in half":
            data = data[: len(data) // 2]
        else:
            data = Path(toy_files["vocab"]).read_bytes()
        path = tmp_path / "bad.shvr"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=message):
            _detect_and_load(path)


class TestSynth:
    def test_writes_rows_and_schema(self, capsys, tmp_path):
        out = str(tmp_path / "synth.csv")
        schema_out = str(tmp_path / "schema.json")
        code, stdout, _ = run(
            capsys,
            "synth", "--out", out, "--schema-out", schema_out,
            "--rows", "200", "--fields", "3", "--tokens-per-field", "20", "--seed", "4",
        )
        assert code == 0
        rows = sp.read_csv_rows(out)
        assert len(rows) == 200
        assert all(len(row) == 4 for row in rows)
        assert set(row[0] for row in rows) <= {"0", "1"}
        schema = sp.FieldSchema.load(schema_out)
        assert schema.field_count == 3
        assert "event=synth" in stdout

    def test_deterministic_for_a_seed(self, capsys, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            assert run(capsys, "synth", "--out", out, "--rows", "80",
                       "--fields", "2", "--tokens-per-field", "10", "--seed", "7")[0] == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestDeterminism:
    def test_same_seed_scores_are_byte_identical(self, toy_files, capsys, tmp_path):
        a = str(tmp_path / "a.shvr")
        b = str(tmp_path / "b.shvr")
        for out in (a, b):
            code, _, _ = run(
                capsys,
                "attribute", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
                "--data", toy_files["data"], "--out", out,
                "--method", "shapley", "--passes", "2", "--seed", "5",
            )
            assert code == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_different_seeds_differ(self, toy_files, capsys, tmp_path):
        a = str(tmp_path / "s0.shvr")
        b = str(tmp_path / "s1.shvr")
        for out, seed in ((a, "0"), (b, "1")):
            assert run(
                capsys,
                "attribute", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
                "--data", toy_files["data"], "--out", out,
                "--method", "shapley", "--passes", "1", "--seed", seed,
            )[0] == 0
        assert Path(a).read_bytes() != Path(b).read_bytes()


class TestConfigFile:
    def test_config_overrides_flags(self, toy_files, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# comment line\nepochs=1\nlr=0.02\n\nseed=9\n")
        out = str(tmp_path / "model.shvr")
        code, stdout, _ = run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--out", out, "--backbone", "fm", "--dim", "2", "--epochs", "50",
            "--config", str(config),
        )
        assert code == 0
        epochs = [line for line in stdout.splitlines() if line.startswith("event=epoch")]
        assert len(epochs) == 1

    def test_dashed_keys_accepted(self, toy_files, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("batch-size=8\nepochs=1\n")
        out = str(tmp_path / "model.shvr")
        assert run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--out", out, "--backbone", "fm", "--dim", "2",
            "--config", str(config),
        )[0] == 0

    def test_unknown_key_is_a_domain_error(self, toy_files, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("momentum=0.9\n")
        out = str(tmp_path / "model.shvr")
        code, _, stderr = run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--out", out, "--config", str(config),
        )
        assert code == 1
        assert "unknown key 'momentum'" in stderr

    def test_no_stage_accepts_threads(self, toy_files, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("threads=2\n")
        scores = tmp_path / "scores.shvr"
        attribute = ["attribute", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
                     "--data", toy_files["data"], "--out", str(scores)]
        pruned = tmp_path / "pruned.shvr"
        prune = ["prune", "--model", toy_files["model"], "--scores", toy_files["scores"],
                 "--sparsity", "0.5", "--out", str(pruned)]
        for args, out in ((attribute, scores), (prune, pruned)):
            assert run(capsys, *args, "--threads", "2")[0] == 2
            code, _, stderr = run(capsys, *args, "--config", str(config))
            assert code == 1
            assert "unknown key 'threads'" in stderr
            assert not out.exists()

    def test_malformed_line_is_a_domain_error(self, toy_files, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("epochs 3\n")
        code, _, stderr = run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--out", str(tmp_path / "m.shvr"), "--config", str(config),
        )
        assert code == 1
        assert "config line 1" in stderr

    @pytest.mark.parametrize(
        "command, line",
        [("attribute", "method=bogus"), ("prune", "padding=mean")],
    )
    def test_value_outside_choices_is_a_domain_error(
        self, toy_files, capsys, tmp_path, command, line
    ):
        config = tmp_path / "run.cfg"
        config.write_text(f"# override\n{line}\n")
        out = tmp_path / "out.shvr"
        inputs = {
            "attribute": ["--vocab", toy_files["vocab"], "--data", toy_files["data"]],
            "prune": ["--scores", toy_files["scores"], "--sparsity", "0.5"],
        }[command]
        code, _, stderr = run(
            capsys,
            command, "--model", toy_files["model"], *inputs, "--out", str(out),
            "--config", str(config),
        )
        assert code == 1
        assert f"config line 2: {line.split('=')[0]} must be one of" in stderr
        assert not out.exists()

    def test_missing_config_file(self, toy_files, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "train", "--data", toy_files["data"], "--vocab", toy_files["vocab"],
            "--out", str(tmp_path / "m.shvr"), "--config", str(tmp_path / "nope.cfg"),
        )
        assert code == 2
        assert "no such file" in stderr


class TestErrorPaths:
    def test_missing_input_file_is_exit_two(self, toy_files, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "eval", "--model", str(tmp_path / "ghost.shvr"),
            "--vocab", toy_files["vocab"], "--data", toy_files["data"],
        )
        assert code == 2
        assert "no such file" in stderr

    def test_bad_sparsity_is_exit_one(self, toy_files, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "prune", "--model", toy_files["model"], "--scores", toy_files["scores"],
            "--sparsity", "1.5", "--out", str(tmp_path / "p.shvr"),
        )
        assert code == 1
        assert "sparsity must be in [0, 1]" in stderr

    def test_oversized_csv_cell_is_exit_one(self, toy_files, capsys, tmp_path):
        rows = sp.read_csv_rows(toy_files["data"])
        rows[2][1] = "x" * 200_000  # past the csv module's field size limit
        data, out = tmp_path / "big.csv", tmp_path / "m.shvr"
        sp.write_csv_rows(data, rows)
        code, _, stderr = run(
            capsys,
            "train", "--data", str(data), "--schema", toy_files["schema"],
            "--vocab-out", str(tmp_path / "v.vocab"), "--out", str(out),
        )
        assert code == 1
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"{data} line 3" in lines[0]
        assert not out.exists()

    def test_csv_byte_that_is_not_utf8_is_exit_one(self, toy_files, capsys, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_bytes(Path(toy_files["data"]).read_bytes() + b"1,t1,t2,\xff\n")
        code, stdout, stderr = run(
            capsys,
            "eval", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--data", str(data),
        )
        assert code == 1 and stdout == ""
        assert stderr == f"error: {data} line 41: byte 0xff is not UTF-8 (invalid start byte)\n"

    def test_corrupt_checkpoint_is_exit_one(self, toy_files, capsys, tmp_path):
        bad = tmp_path / "bad.shvr"
        data = bytearray(Path(toy_files["model"]).read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad.write_bytes(bytes(data))
        code, _, stderr = run(
            capsys,
            "eval", "--model", str(bad), "--vocab", toy_files["vocab"],
            "--data", toy_files["data"],
        )
        assert code == 1
        assert "corrupt" in stderr

    def test_shapley_without_data_is_exit_two(self, toy_files, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "attribute", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--out", str(tmp_path / "s.shvr"), "--method", "shapley",
        )
        assert code == 2
        assert "--data is required" in stderr

    def test_prune_data_without_vocab_is_exit_two(self, toy_files, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "prune", "--model", toy_files["model"], "--scores", toy_files["scores"],
            "--data", toy_files["data"], "--sparsity", "0.5",
            "--out", str(tmp_path / "p.shvr"),
        )
        assert code == 2
        assert "--data needs --vocab" in stderr

    def test_prune_codebook_padding_without_data_is_exit_two(self, toy_files, capsys, tmp_path):
        code, stdout, stderr = run(
            capsys,
            "prune", "--model", toy_files["model"], "--scores", toy_files["scores"],
            "--vocab", toy_files["vocab"], "--sparsity", "0.5", "--padding", "codebook",
            "--out", str(tmp_path / "p.shvr"),
        )
        assert code == 2
        assert stderr.count("error:") == 1 and "--padding codebook needs --data" in stderr
        assert stdout == "" and list(tmp_path.iterdir()) == []

    def test_train_without_schema_or_vocab_is_exit_two(self, toy_files, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "train", "--data", toy_files["data"], "--out", str(tmp_path / "m.shvr"),
        )
        assert code == 2
        assert "--schema is required" in stderr

    def test_wrong_vocabulary_is_exit_one(self, toy_files, capsys, tmp_path):
        rows = [["1", "a"], ["0", "b"]]
        vocab = sp.build_vocabulary(rows, sp.FieldSchema.categorical(1))
        other = tmp_path / "other.vocab"
        vocab.save(other)
        code, _, stderr = run(
            capsys,
            "attribute", "--model", toy_files["model"], "--vocab", str(other),
            "--out", str(tmp_path / "s.shvr"), "--method", "magnitude",
        )
        assert code == 1
        assert "vocabulary does not match" in stderr

    @pytest.mark.parametrize("case", ["more_tokens", "same_n_other_offsets", "finetune"])
    def test_pruned_file_checks_the_vocabulary(self, toy_files, capsys, tmp_path, case):
        if case == "more_tokens":
            # a pruned file built over a 3 x 5-token vocabulary, evaluated
            # with a 3 x 40-token vocabulary and its data
            for name, tokens in (("small", "5"), ("large", "40")):
                assert main([
                    "synth", "--fields", "3", "--tokens-per-field", tokens, "--rows", "300",
                    "--seed", "1", "--out", str(tmp_path / f"{name}.csv"),
                    "--schema-out", str(tmp_path / f"{name}.json"),
                ]) == 0
                assert main([
                    "train", "--data", str(tmp_path / f"{name}.csv"),
                    "--schema", str(tmp_path / f"{name}.json"),
                    "--vocab-out", str(tmp_path / f"{name}.vocab"),
                    "--out", str(tmp_path / f"{name}.shvr"), "--dim", "2", "--epochs", "1",
                ]) == 0
            assert main([
                "attribute", "--model", str(tmp_path / "small.shvr"),
                "--vocab", str(tmp_path / "small.vocab"), "--method", "magnitude",
                "--out", str(tmp_path / "small.scores"),
            ]) == 0
            assert main([
                "prune", "--model", str(tmp_path / "small.shvr"),
                "--scores", str(tmp_path / "small.scores"), "--sparsity", "0.5",
                "--out", str(tmp_path / "small.pruned"),
            ]) == 0
            pruned, vocab, data = (
                str(tmp_path / name) for name in ("small.pruned", "large.vocab", "large.csv")
            )
        else:
            # the toy table's n = 7 rows split 3 + 2 + 2 instead of 2 + 2 + 3
            other = sp.Vocabulary(
                sp.FieldSchema.categorical(3), ({"a": 0, "b": 1}, {"r5": 0}, {"c": 0}), 0
            )
            assert other.n == 7 and list(other.offsets) != [0, 2, 4, 7]
            vocab = str(tmp_path / "other.vocab")
            other.save(vocab)
            pruned, data = toy_files["pruned"], toy_files["data"]
        capsys.readouterr()
        if case == "finetune":
            argv = ["train", "--data", data, "--vocab", vocab, "--mask", pruned,
                    "--out", str(tmp_path / "tuned.shvr"), "--epochs", "1"]
        else:
            argv = ["eval", "--model", pruned, "--vocab", vocab, "--data", data]
        code, _, stderr = run(capsys, *argv)
        assert code == 1
        assert "vocabulary does not match this checkpoint" in stderr

    @pytest.mark.parametrize("case, message", [("compare_shape_mismatch", "different shapes")])
    def test_unusable_inputs_are_exit_one(self, toy_files, capsys, tmp_path, case, message):
        other = str(tmp_path / "other.shvr")
        sp.AttributionScores(np.zeros((2, 2)), sp.MAGNITUDE).save(other)
        code, _, stderr = run(
            capsys,
            "oracle", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--data", toy_files["data"], "--out", str(tmp_path / "exact.shvr"),
            "--compare", other,
        )
        assert code == 1
        assert message in stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--batch-size", "0"), "batch_size"),
            (("--epochs", "-1"), "epochs"),
            (("--lr", "-0.01"), "learning_rate"),
            (("--lr", "0"), "learning_rate"),
            (("--lr", "nan"), "learning_rate"),
            (("--lr", "inf"), "learning_rate"),
            (("--seed", "-1"), "seed must be non-negative, got -1"),
            # refused before any row is counted, so no <out>.vocab is left
            (("--min-count", "-1"), "min_count must be in [0, 2**64), got -1"),
            (("--min-count", str(2**64)), f"min_count must be in [0, 2**64), got {2**64}"),
        ],
    )
    def test_bad_training_config_is_exit_one(self, toy_files, capsys, tmp_path, flags, message):
        code, stdout, stderr = run(
            capsys,
            "train", "--data", toy_files["data"], "--schema", toy_files["schema"],
            "--out", str(tmp_path / "m.shvr"), *flags,
        )
        assert code == 1
        assert stderr.count("error:") == 1 and message in stderr
        assert stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", [5, None, ["a"]], ids=["int", "null", "list"])
    def test_field_name_that_is_not_a_string_is_exit_one(self, toy_files, capsys, tmp_path, name):
        doc = json.loads(Path(toy_files["schema"]).read_text())
        doc["fields"][1]["name"] = name
        schema = tmp_path / "bad.json"
        schema.write_text(json.dumps(doc))
        code, _, stderr = run(
            capsys,
            "train", "--data", toy_files["data"], "--schema", str(schema),
            "--out", str(tmp_path / "m.shvr"),
        )
        assert code == 1
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "is not a string" in lines[0]
        assert list(tmp_path.iterdir()) == [schema]

    def test_zero_width_layer_is_exit_one(self, toy_files, capsys, tmp_path):
        model, out = tmp_path / "zero.shvr", tmp_path / "scores.shvr"
        model.write_bytes(_model_file(layers=ZERO_WIDTH))
        code, _, stderr = run(
            capsys,
            "attribute", "--model", str(model), "--vocab", toy_files["vocab"],
            "--data", toy_files["data"], "--out", str(out),
        )
        assert code == 1
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "MLP layer shapes do not fit the backbone" in lines[0]
        assert not out.exists()

    def test_negative_synth_seed_is_exit_one(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "synth", "--out", str(tmp_path / "x.csv"), "--seed", "-1")
        assert code == 1
        assert stderr.count("error:") == 1 and "seed must be non-negative, got -1" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_zero_synth_fields_is_exit_one(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "synth", "--out", str(tmp_path / "x.csv"), "--fields", "0")
        assert code == 1
        assert stderr.count("error:") == 1 and "fields must be at least 1" in stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_recorded_range_is_exit_one(self, toy_files, capsys, tmp_path, seed):
        out = tmp_path / "s.shvr"
        code, _, stderr = run(
            capsys,
            "attribute", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--data", toy_files["data"], "--out", str(out), "--seed", seed,
        )
        assert code == 1
        assert stderr.count("error:") == 1 and "seed must be in [0, 2**64)" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["1.5", "inf", "nan"])
    def test_fraction_outside_the_range_is_exit_one(self, toy_files, capsys, tmp_path, fraction):
        out = tmp_path / "s.shvr"
        code, _, stderr = run(
            capsys,
            "attribute", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--data", toy_files["data"], "--out", str(out), "--fraction", fraction,
        )
        assert code == 1
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "fraction must be in (0, 1]" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_subsample_seed_outside_the_range_is_exit_one(self, toy_files, capsys, tmp_path, seed):
        out = tmp_path / "s.shvr"
        code, _, stderr = run(
            capsys,
            "attribute", "--model", toy_files["model"], "--vocab", toy_files["vocab"],
            "--data", toy_files["data"], "--out", str(out), "--fraction", "0.01", "--seed", seed,
        )
        assert code == 1
        assert stderr.count("error:") == 1 and f"seed must be in [0, 2**64), got {seed}" in stderr
        assert not out.exists()

    def test_no_subcommand_is_exit_two(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_flag_is_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--out", str(tmp_path / "x.csv"), "--zipf", "2")
        assert code == 2


# a first layer with no units, and an output layer that reads none
ZERO_WIDTH = ((0, 9), (1, 0))


def _model_file(kind=sp.DEEPFM, offsets=(0, 2, 4, 7), layers=((3, 9), (3, 3), (1, 3))):
    """CRC-valid dense checkpoint in the toy layout (n = 7, d = 3, m = 3),
    every parameter zero, with MLP layers of the given (rows, cols) shapes."""
    w = ser.ByteWriter()
    write_head(w, kind, np.array(offsets), 7, 3)
    w.array(np.zeros(7 * 3, "<f8"))
    mlp = [(np.zeros(shape), np.zeros(shape[0])) for shape in layers]
    write_backbone(w, sp.BackboneParams(kind, 0.0, np.zeros(7), mlp))
    return ser.seal(w.getvalue())


def _table_file(pruned, offsets, d):
    """CRC-valid FM file, dense or pruned with zero padding, whose head
    declares the given field offsets and column count; every parameter is
    zero and every coordinate of a pruned one is pruned."""
    n = offsets[-1]
    w = ser.ByteWriter()
    if pruned:
        w.u8(ser.TAG_PRUNED)
    write_head(w, sp.FM, np.array(offsets), n, d)
    if pruned:
        w.u8(0)  # padding code: zero
        w.f64(1.0)  # sparsity
    else:
        w.array(np.zeros(n * d, "<f8"))
    write_backbone(w, sp.BackboneParams(sp.FM, 0.0, np.zeros(n), []))
    if pruned:
        w.section(ser.SECTION_KEPT, bytes(n * ((d + 7) // 8)))
    return ser.seal(w.getvalue())


def _flip_padding_code(pruned):
    """pruned's file with its padding code flipped between 0 (zero) and 1
    (codebook) and the CRC recomputed; the sections stay as written."""
    body = bytearray(pruned.to_bytes()[len(ser.MAGIC) + 4 : -4])
    at = 2 + 8 * 3 + 8 * pruned.offsets.shape[0]  # kind and backbone tags, m, n, d, offsets
    body[at] ^= 1
    return ser.seal(bytes(body))


def _codebook_padding_without_codebook(files):
    pruned = sp.load_pruned(files["pruned"])
    assert pruned.codebook is None  # the toy pipeline prunes with zero padding
    return _flip_padding_code(pruned)


def _zero_padding_with_codebook(files):
    pruned = sp.load_pruned(files["pruned"])
    pruned.codebook = sp.Codebook(np.zeros((3, 3)))  # written as code 1 with its section
    return _flip_padding_code(pruned)


def _pruned_with_sparsity(sparsity):
    """A crafter of the toy pruned file (t = 0.5: 10 of 7 * 3 coordinates
    pruned) whose header claims the given sparsity."""

    def craft(files):
        pruned = sp.load_pruned(files["pruned"])
        pruned.sparsity = sparsity
        return pruned.to_bytes()

    return craft


def _pruned_zero_width(files):
    """The toy pruned file with the MLP of ZERO_WIDTH, every weight zero."""
    pruned = sp.load_pruned(files["pruned"])
    pruned.backbone.layers = [(np.zeros(shape), np.zeros(shape[0])) for shape in ZERO_WIDTH]
    return pruned.to_bytes()


def _scores_file(files, n=7, nan=False):
    """The toy score file, optionally with one NaN score or a header that
    claims n rows while the section still holds 7 * 3 values."""
    scores = sp.AttributionScores.load(files["scores"])
    if nan:
        scores.values[0, 0] = np.nan
    body = scores.to_bytes()[len(ser.MAGIC) + 4 : -4]
    return ser.seal(body[:1] + struct.pack("<Q", n) + body[9:])


def _pruned_codebook(files):
    """The toy model pruned to t = 0.5 with codebook padding."""
    vocab = sp.Vocabulary.load(files["vocab"])
    model = sp.load_model(files["model"])
    dataset = sp.encode_rows(sp.read_csv_rows(files["data"]), vocab)
    codebook = sp.compute_codebook(model, dataset)
    scores = sp.AttributionScores.load(files["scores"])
    return sp.prune(model, scores, 0.5, sp.CODEBOOK, codebook, dataset.frequencies)


def _with_section(blob, tag, payload):
    """blob with one more section appended to its body, CRC recomputed."""
    w = ser.ByteWriter()
    w.section(tag, payload)
    return ser.seal(blob[ser.BODY_START : -4] + w.getvalue())


def _grow_last_section(blob, length, extra):
    """blob with extra appended to the payload of its last section, which
    is length bytes long, the section's length and the CRC rewritten."""
    body = blob[ser.BODY_START : -4]
    at = len(body) - length - 8
    return ser.seal(body[:at] + struct.pack("<Q", length + len(extra)) + body[at + 8 :] + extra)


def _duplicated_codebook(files):
    model = sp.load_model(files["model"])
    blob = model_to_bytes(dataclasses.replace(model, codebook=sp.Codebook(np.zeros((3, 3)))))
    second = codebook_section_payload(sp.Codebook(np.ones((3, 3))))
    return _with_section(blob, ser.SECTION_CODEBOOK, second)


def _codebook_trailing_bytes(files):
    pruned = _pruned_codebook(files)
    length = len(codebook_section_payload(pruned.codebook))
    return _grow_last_section(pruned.to_bytes(), length, b"\0")


MALFORMED = {
    "deepfm_without_layers": (sp.load_model, lambda files: _model_file(layers=()), "MLP layer"),
    "fm_with_layers": (sp.load_model, lambda files: _model_file(kind=sp.FM), "MLP layer"),
    "first_layer_not_m_times_d": (
        sp.load_model, lambda files: _model_file(layers=((3, 8), (1, 3))), "MLP layer"
    ),
    "layer_widths_do_not_chain": (
        sp.load_model, lambda files: _model_file(layers=((3, 9), (1, 2))), "MLP layer"
    ),
    "output_wider_than_one": (
        sp.load_model, lambda files: _model_file(layers=((3, 9), (2, 3))), "MLP layer"
    ),
    "zero_width_layer": (
        sp.load_model, lambda files: _model_file(layers=ZERO_WIDTH), "MLP layer"
    ),
    "pruned_zero_width_layer": (sp.load_pruned, _pruned_zero_width, "MLP layer"),
    "offsets_past_n": (
        sp.load_model, lambda files: _model_file(offsets=(0, 2, 4, 9)), "field offsets"
    ),
    "offsets_not_increasing": (
        sp.load_model, lambda files: _model_file(offsets=(0, 4, 2, 7)), "field offsets"
    ),
    "zero_fields": (sp.load_model, lambda files: _table_file(False, (0,), 3), "at least 1"),
    "zero_columns": (
        sp.load_model, lambda files: _table_file(False, (0, 2, 4, 7), 0), "at least 1"
    ),
    "no_rows_and_huge_d": (
        sp.load_model, lambda files: _table_file(False, (0,), 2**62), "at least 1"
    ),
    "pruned_zero_fields": (
        sp.load_pruned, lambda files: _table_file(True, (0,), 3), "at least 1"
    ),
    "pruned_zero_columns": (
        sp.load_pruned, lambda files: _table_file(True, (0, 2, 4, 7), 0), "at least 1"
    ),
    "pruned_no_rows_and_huge_d": (
        sp.load_pruned, lambda files: _table_file(True, (0,), 2**62), "at least 1"
    ),
    "codebook_padding_without_codebook": (
        sp.load_pruned, _codebook_padding_without_codebook, "codebook section"
    ),
    "zero_padding_with_codebook": (
        sp.load_pruned, _zero_padding_with_codebook, "codebook section"
    ),
    "sparsity_nan": (sp.load_pruned, _pruned_with_sparsity(math.nan), "header sparsity"),
    "sparsity_above_one": (sp.load_pruned, _pruned_with_sparsity(7.0), "header sparsity"),
    "sparsity_below_zero": (sp.load_pruned, _pruned_with_sparsity(-1.0), "header sparsity"),
    "sparsity_not_the_pruned_count": (
        sp.load_pruned, _pruned_with_sparsity(0.9), "header sparsity"
    ),
    "scores_section_length": (
        sp.AttributionScores.load, lambda files: _scores_file(files, n=8), "n \\* d values"
    ),
    "non_finite_score": (
        sp.AttributionScores.load, lambda files: _scores_file(files, nan=True), "non-finite"
    ),
    "duplicated_scores_section": (
        sp.AttributionScores.load,
        lambda files: _with_section(_scores_file(files), ser.SECTION_SCORES, bytes(8 * 7 * 3)),
        "appears twice",
    ),
    "duplicated_codebook_section": (sp.load_model, _duplicated_codebook, "appears twice"),
    "metadata_trailing_bytes": (
        # the metadata section is last: method u8, seed, passes, count u64, fingerprint u32
        sp.AttributionScores.load,
        lambda files: _grow_last_section(_scores_file(files), 1 + 3 * 8 + 4, b"\0"),
        "trailing bytes",
    ),
    "pruned_codebook_trailing_bytes": (sp.load_pruned, _codebook_trailing_bytes, "trailing bytes"),
    "vocabulary_trailing_bytes": (
        sp.Vocabulary.load,
        lambda files: ser.seal(Path(files["vocab"]).read_bytes()[ser.BODY_START : -4] + b"\0"),
        "trailing bytes",
    ),
}


class TestMalformedArtifacts:
    """Files the writers never produce but whose CRC is valid: every decoder
    must refuse them with a CheckpointError, and the CLI must exit 1."""

    def test_crafting_helpers_write_loadable_files(self, toy_files, tmp_path):
        path = tmp_path / "good.shvr"
        path.write_bytes(_model_file())
        sp.load_model(path)
        path.write_bytes(_scores_file(toy_files))
        sp.AttributionScores.load(path)

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_crafted_file_is_a_checkpoint_error(self, case, toy_files, capsys, tmp_path):
        load, craft, message = MALFORMED[case]
        path = tmp_path / "bad.shvr"
        path.write_bytes(craft(toy_files))
        if load == sp.AttributionScores.load:
            argv = ["prune", "--model", toy_files["model"], "--scores", str(path),
                    "--sparsity", "0.5", "--out", str(tmp_path / "p.shvr")]
        elif load == sp.Vocabulary.load:
            argv = ["eval", "--model", toy_files["model"], "--vocab", str(path),
                    "--data", toy_files["data"]]
        else:
            argv = ["eval", "--model", str(path), "--vocab", toy_files["vocab"],
                    "--data", toy_files["data"]]
        with pytest.raises(CheckpointError, match=message):
            load(path)
        code, _, stderr = run(capsys, *argv)
        assert code == 1
        assert "error:" in stderr


@pytest.fixture(scope="module")
def fuzz_artifacts(toy_files):
    """Name -> (loader, bytes) for nine small artifacts: the toy DeepFM
    with and without a codebook section, an untrained FM, the zero-width
    DeepFM of ZERO_WIDTH, the toy model pruned with zero and with codebook
    padding, the Shapley and magnitude score files and the vocabulary."""
    vocab = sp.Vocabulary.load(toy_files["vocab"])
    model = sp.load_model(toy_files["model"])
    dataset = sp.encode_rows(sp.read_csv_rows(toy_files["data"]), vocab)
    fm = sp.init_model(vocab, sp.TrainConfig(backbone=sp.FM, dim=2, seed=3))
    stamped = dataclasses.replace(model, codebook=sp.compute_codebook(model, dataset))
    files = {key: Path(toy_files[key]).read_bytes() for key in ("model", "scores", "magnitude", "vocab")}
    return {
        "deepfm": (model_from_bytes, files["model"]),
        "deepfm_codebook": (model_from_bytes, model_to_bytes(stamped)),
        "fm": (model_from_bytes, model_to_bytes(fm)),
        "zero_width": (model_from_bytes, _model_file(layers=ZERO_WIDTH)),
        "pruned_zero": (sp.PrunedModel.from_bytes, Path(toy_files["pruned"]).read_bytes()),
        "pruned_codebook": (sp.PrunedModel.from_bytes, _pruned_codebook(toy_files).to_bytes()),
        "shapley": (sp.AttributionScores.from_bytes, files["scores"]),
        "magnitude": (sp.AttributionScores.from_bytes, files["magnitude"]),
        "vocab": (sp.Vocabulary.from_bytes, files["vocab"]),
    }


def _mutate(body, op, at, data):
    """body with one bit of byte at flipped (bit data[0] % 8), cut after at
    bytes, or with data inserted before byte at; at wraps modulo the length
    (plus one for a cut or an insert)."""
    if op == "flip":
        at %= len(body)
        return body[:at] + bytes([body[at] ^ 1 << data[0] % 8]) + body[at + 1 :]
    at %= len(body) + 1
    return body[:at] if op == "cut" else body[:at] + data + body[at:]


class TestArtifactFuzz:
    """A damaged dense-model, pruned-model, score or vocabulary file whose
    CRC is valid is refused with a CheckpointError and nothing else. A dense
    or pruned model file that does load can be walked: its one walk over the
    first id of every field ends in losses or a NonFiniteError, never a
    crash."""

    @given(
        name=st.sampled_from(
            [
                "deepfm", "deepfm_codebook", "fm", "zero_width", "pruned_zero",
                "pruned_codebook", "shapley", "magnitude", "vocab",
            ]
        ),
        op=st.sampled_from(["flip", "cut", "insert"]),
        at=st.integers(0, 2**16),
        data=st.binary(min_size=1, max_size=16),
    )
    @example(name="zero_width", op="cut", at=-1, data=b"\0")  # cut at the end: the file as crafted
    @settings(max_examples=400, deadline=None)
    def test_damage_is_a_checkpoint_error(self, fuzz_artifacts, name, op, at, data):
        load, blob = fuzz_artifacts[name]
        _load_and_walk(load, ser.seal(_mutate(blob[ser.BODY_START : -4], op, at, data)))


def _load_and_walk(load, blob):
    """Load blob, which may raise CheckpointError and nothing else; walk a
    dense or pruned model that loads once over the first id of every field,
    which may end in a NonFiniteError and nothing else."""
    try:
        loaded = load(blob)
    except CheckpointError:
        return
    if isinstance(loaded, sp.PrunedModel):
        table = sp.EmbeddingTable(loaded.effective_values(), loaded.offsets)
        loaded = sp.Model(table, loaded.backbone)
    if isinstance(loaded, sp.Model):
        ids = loaded.embedding.offsets[None, :-1]
        md = ids.shape[1] * loaded.embedding.d
        with np.errstate(all="ignore"):
            try:
                _walk_losses(loaded, ids, np.ones(1), np.arange(md)[None])
            except NonFiniteError:
                pass


def _section_frames(body, start):
    """(payload start, payload end) of each framed section of body, whose
    sections begin at byte start and run to its end."""
    frames = []
    while start < len(body):
        length = struct.unpack_from("<Q", body, start + 1)[0]  # after the tag byte
        frames.append((start + 9, start + 9 + length))
        start += 9 + length
    assert start == len(body)
    return frames


def _pruned_sections_start(blob):
    """Body offset of a pruned file's first section: after its kind tag,
    head, padding code, sparsity and backbone."""
    pruned = sp.PrunedModel.from_bytes(blob)
    w = ser.ByteWriter()
    write_head(w, pruned.backbone.kind, pruned.offsets, pruned.n, pruned.dim)
    write_backbone(w, pruned.backbone)
    return 1 + len(w.getvalue()) + 1 + 8


@pytest.fixture(scope="module")
def sectioned_artifacts(fuzz_artifacts):
    """Name -> (loader, body, section frames) for the fuzz artifacts that
    carry sections. The dense DeepFM and FM, the zero-width DeepFM and the
    vocabulary carry none."""
    starts = {
        # the toy DeepFM's file is the stamped one's up to its codebook section
        "deepfm_codebook": len(fuzz_artifacts["deepfm"][1]) - ser.BODY_START - 4,
        "pruned_zero": _pruned_sections_start(fuzz_artifacts["pruned_zero"][1]),
        "pruned_codebook": _pruned_sections_start(fuzz_artifacts["pruned_codebook"][1]),
        "shapley": 1 + 8 + 8,  # kind tag, n, d
        "magnitude": 1 + 8 + 8,
    }
    out = {}
    for name, start in starts.items():
        load, blob = fuzz_artifacts[name]
        body = blob[ser.BODY_START : -4]
        out[name] = (load, body, _section_frames(body, start))
    return out


class TestCraftedSectionFuzz:
    """A file whose sections stay well framed but one of whose payloads is
    replaced, after a kept prefix of it, by random bytes (as many as were
    cut, or any number), with its length and the CRC rewritten: the load
    raises CheckpointError or gives a model that walks, as in
    TestArtifactFuzz."""

    def test_frames_cover_every_section(self, sectioned_artifacts):
        tags = {
            name: [body[begin - 9] for begin, _ in frames]
            for name, (_, body, frames) in sectioned_artifacts.items()
        }
        kept, codebook = ser.SECTION_KEPT, ser.SECTION_CODEBOOK
        scores = [ser.SECTION_SCORES, ser.SECTION_METADATA]
        assert tags == {
            "deepfm_codebook": [codebook],
            "pruned_zero": [kept],
            "pruned_codebook": [kept, codebook],
            "shapley": scores,
            "magnitude": scores,
        }

    @given(
        name=st.sampled_from(
            ["deepfm_codebook", "pruned_zero", "pruned_codebook", "shapley", "magnitude"]
        ),
        section=st.integers(0, 1),
        keep=st.integers(0, 2**16),
        size=st.one_of(st.none(), st.integers(0, 256)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_payload_is_a_checkpoint_error(
        self, sectioned_artifacts, name, section, keep, size, seed
    ):
        load, body, frames = sectioned_artifacts[name]
        begin, end = frames[section % len(frames)]
        keep = begin + keep % (end - begin + 1)
        tail = np.random.default_rng(seed).bytes(end - keep if size is None else size)
        payload = body[begin:keep] + tail
        crafted = body[: begin - 8] + struct.pack("<Q", len(payload)) + payload + body[end:]
        _load_and_walk(load, ser.seal(crafted))
