"""CLI machine output, compared byte for byte.

The files in ``tests/golden/`` are the ``--plain`` stdout of each command
below, in the format their extension names (``.txt`` is ``--format human``),
and what ``--out FILE`` writes for it.
The commands run on the demo config and on the observation and power-curve
CSVs in ``tests/data/``. A change that alters them on purpose regenerates
them, for example::

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
DATA = TESTS / "data"
SWEEP = ["--param", "tariff", "--from", "60", "--to", "300", "--steps", "25", "--metric", "irr"]
CURVE = ["curve", CONFIG, "--power-curve", str(DATA / "power_curve.csv")]
SPLIT_TWO_POINTS = [
    "split", "two-points", "--capex", "2=16.8", "--capex", "60=297",
    "--opex", "2=1.2", "--opex", "60=8.1", "--currency-rate", "0.79",
]

COMMANDS = {
    "metrics.json": ["metrics", CONFIG],
    "metrics.txt": ["metrics", CONFIG],
    "scenarios.json": ["scenarios", CONFIG],
    "scenarios.txt": ["scenarios", CONFIG],
    "sweep_tariff_irr.csv": ["sweep", CONFIG, *SWEEP],
    "sweep_tariff_irr.json": ["sweep", CONFIG, *SWEEP],
    # sweep writes CSV by default; --format human gives its table
    "sweep_tariff_irr.txt": ["sweep", CONFIG, *SWEEP],
    # README's two split examples (the two-point one in every format), the
    # ratio method's total route, and a two-point split of a total CSV (CAPEX)
    # and a per-MW CSV (OPEX)
    "split_two_points.json": SPLIT_TWO_POINTS,
    "split_two_points.csv": SPLIT_TWO_POINTS,
    "split_two_points.txt": SPLIT_TWO_POINTS,
    "split_ratio_per_mw.json": [
        "split", "ratio", "--ratio", "2.3", "--capex-per-mw", "2.27",
        "--capacity", "100", "--mw-t", "1.5", "--opex-per-mw", "0.08",
    ],
    "split_ratio_total.json": [
        "split", "ratio", "--ratio", "2.3", "--capex-total", "227", "--opex-total", "8",
        "--n-t", "66.67", "--currency-rate", "0.79",
    ],
    "split_two_points_csv.json": [
        "split", "two-points", "--capex-csv", str(DATA / "capex_totals.csv"),
        "--opex-csv", str(DATA / "opex_per_mw.csv"), "--mw-t", "1.5",
    ],
    "curve.csv": CURVE,
    "curve.json": CURVE,
    "curve.txt": CURVE,
}


def golden_argv(golden: str) -> list[str]:
    extension = Path(golden).suffix[1:]
    output_format = "human" if extension == "txt" else extension
    return [*COMMANDS[golden], "--format", output_format, "--plain"]


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_output_matches_golden_file(capsys, golden):
    assert main(golden_argv(golden)) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == (TESTS / "golden" / golden).read_bytes()


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_out_file_gets_the_golden_bytes(capsys, tmp_path, golden):
    target = tmp_path / golden
    assert main([*golden_argv(golden), "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (TESTS / "golden" / golden).read_bytes()
