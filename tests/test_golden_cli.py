"""CLI machine output on the demo config, compared byte for byte.

The files in ``tests/golden/`` are the ``--plain`` stdout of each command
below, in the format their extension names. A change that alters them on
purpose regenerates them, for example::

    PYTHONPATH=src python -m tidalecon.cli metrics demos/example_config.json \\
        --format json --plain > tests/golden/metrics.json

and records the change in CHANGES.md.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from tidalecon.cli import EXIT_OK, main

TESTS = Path(__file__).resolve().parent
CONFIG = str(TESTS.parent / "demos" / "example_config.json")
SWEEP = ["--param", "tariff", "--from", "60", "--to", "300", "--steps", "25", "--metric", "irr"]

COMMANDS = {
    "metrics.json": ["metrics", CONFIG],
    "scenarios.json": ["scenarios", CONFIG],
    "sweep_tariff_irr.csv": ["sweep", CONFIG, *SWEEP],
    "sweep_tariff_irr.json": ["sweep", CONFIG, *SWEEP],
}


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_output_matches_golden_file(capsys, golden):
    output_format = Path(golden).suffix[1:]
    assert main([*COMMANDS[golden], "--format", output_format, "--plain"]) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == (TESTS / "golden" / golden).read_bytes()
