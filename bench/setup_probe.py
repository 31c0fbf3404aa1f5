"""One set-up in a fresh interpreter: ``import tidalecon``, then generate inputs.

Prints ``{"import_s": ..., "generate_s": ...}``. The benchmark runs this
several times per run and reports the median sum as ``setup_s``.

    PYTHONPATH=src python3 bench/setup_probe.py portfolio 1 .bench_out/probe
"""
from __future__ import annotations

import json
import sys
import time

import gen


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    started = time.perf_counter()
    import tidalecon  # noqa: F401  (the import is what is timed)
    imported = time.perf_counter()
    gen.generate(workload, seed, workdir)
    generated = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "generate_s": generated - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
