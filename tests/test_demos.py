import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from shapprune.cli import main

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


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    """Every shapprune line of the README's command-line session, its
    backslash continuations joined, runs in order and exits 0."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("shapprune ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = main(shlex.split(line)[1:])
        assert code == 0, (line, capsys.readouterr().err)
