"""The declared runtime dependencies match what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shapprune"


def imported_top_level_packages(source: str) -> set:
    """Top-level names of every absolute import in a module, including
    imports nested inside functions; relative imports are left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_dependencies_are_exactly_the_third_party_imports():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.\-]+", dep).group().lower() for dep in project["dependencies"]}
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        imported |= imported_top_level_packages(path.read_text(encoding="utf-8"))
    third_party = {name for name in imported if name not in sys.stdlib_module_names} - {PACKAGE.name}
    assert declared == third_party


def test_nested_imports_are_found():
    source = "import os\nfrom . import data\ndef f():\n    from scipy.special import expit\n"
    assert imported_top_level_packages(source) == {"os", "scipy"}
