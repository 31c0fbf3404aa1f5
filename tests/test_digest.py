"""One digest of the library's whole output on the benchmark's input pools.

The benchmark's own generator and ops (``bench/gen.py``, ``bench/inproc.py``)
are imported read-only: ``gen.projects`` and ``gen.designs`` write no files.
Every ``project_op`` result of the seed-3 ``portfolio`` and ``overhaul`` pools
and every ``study_op`` result of the seed-21 and seed-22 ``design_sweep``
pools is hashed as ``repr((result, [warning messages]))``, or as its
exception's class name, into one sha256. A change that moves any reported
bit moves the digest; a deliberate one re-pins it and says why in CHANGES.md.
Neither module sums floats with the builtin ``sum``, and the library adds
every reported sum left to right, so one digest holds on every Python version.
"""
from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

import pytest

import tidalecon

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGEST = "1ef22137cc81cd51747e8f5c5f9b561b1604769f16c5f9647173dcbd42c4926d"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))  # ``inproc`` imports ``oracle`` by its bare name
    try:
        import gen
        import inproc
    finally:
        sys.path.remove(str(BENCH))
    return gen, inproc


def _direct(_layer: str, function, *args):
    return function(*args)


def test_whole_output_digest_is_pinned(bench_modules):
    gen, inproc = bench_modules
    runs = [(inproc.project_op, gen.projects(name, 3)) for name in ("portfolio", "overhaul")]
    runs += [(inproc.study_op, gen.designs(seed)) for seed in (21, 22)]
    digest = hashlib.sha256()
    for op, pool in runs:
        for entry in pool:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = op(tidalecon, entry, _direct)
                    outcome = repr((result, [str(w.message) for w in caught]))
                except Exception as err:  # an op that raises is pinned by its error's class
                    outcome = type(err).__name__
            digest.update(outcome.encode())
            digest.update(b"\n")
    assert digest.hexdigest() == DIGEST
