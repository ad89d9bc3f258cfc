import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


def run_python(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    result = run_python([str(script)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_snippet_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    result = run_python(["-c", blocks[0]], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("EvalReport(logloss=")
