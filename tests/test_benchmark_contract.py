"""The benchmark harness calls the library directly (estimate_shapley with
threads=, positional Model(table, backbone, vocab), predict_proba). Of
PrunedModel it calls prune_mask().dense(), effective_values(), kept_count,
offsets, backbone, codebook, to_bytes() and save(), plus load_pruned.
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
