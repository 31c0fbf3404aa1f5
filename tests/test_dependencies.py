"""The package runs on the standard library alone."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "tidalecon").glob("*.py"))
# The package's exact line count: a change that cuts lines lowers the cap, which
# the test checks by failing below it as well as above, and one that adds lines
# raises it and names in CHANGES.md the deletions that paid for part of them.
SRC_LINE_CAP = 1969


def test_cli_import_leaves_numpy_unloaded():
    # Nor exact arithmetic, nor the machinery of dataclasses and typing: the
    # CLI's cold start pays for no module it does not use. ``-S`` keeps
    # ``site`` from loading any of them first.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    unused = {"numpy", "fractions", "decimal", "dataclasses", "inspect", "typing"}
    probe = f"import sys, tidalecon.cli; print(sorted({unused!r} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_stdlib_or_intra_package(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # not an import, or a relative one
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "tidalecon", (
                f"{path.name}:{node.lineno} imports {name}"
            )


def test_package_lines_stay_within_the_cap():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in MODULES)
    assert lines <= SRC_LINE_CAP, f"src/tidalecon has {lines} lines, above {SRC_LINE_CAP}"
    assert lines == SRC_LINE_CAP, f"src/tidalecon has {lines} lines: lower SRC_LINE_CAP to them"
