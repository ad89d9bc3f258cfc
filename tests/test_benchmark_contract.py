"""The benchmark harness (perfbench/) calls the library directly. These are
its calls, so a change to any of them is a change to the benchmark:

- data: toy_rows, TOY_MIN_COUNT, SyntheticConfig, synthetic_rows,
  synthetic_schema, write_csv_rows, read_csv_rows, build_vocabulary,
  encode_rows, Dataset.subsample and Dataset.frequencies;
- training: TrainConfig(**kwargs) and train(dataset, config), plus the
  masked fine-tune train(dataset, config, init=, mask=, padding=);
- models: positional Model(table, backbone, vocab), EmbeddingTable,
  predict_proba, log_loss, save_model, load_model,
  shapprune.model.model_to_bytes, and dataclasses.replace(model,
  codebook=) with a compute_codebook result;
- attribution: estimate_shapley with threads=1 (the only value it
  accepts), exact_shapley_global, AttributionScores.save, .load,
  .to_bytes, .values and .forward_count;
- pruning: positional prune(model, scores, t, padding, codebook,
  frequencies), prune_curve(model, scores, grid, holdout, padding=,
  codebook=, frequencies=), write_curve_csv, evaluate and load_pruned. Of
  PrunedModel it calls prune_mask().dense(), effective_values(),
  kept_count, offsets, backbone, codebook, to_bytes() and save().

Running its self-test here makes a break in that API fail the test suite
instead of the next benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
