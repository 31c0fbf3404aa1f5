"""Time ``tidalecon.cli.main`` after import, once per argv, in one process.

Reads a JSON list of argv lists on stdin and a repeat count as the only
argument; prints a JSON object mapping each subcommand to its wall times
in ms. Output of ``main`` is captured and discarded.

    echo '[["metrics", "config.json", "--format", "json"]]' | python3 bench/cli_main_timer.py 3
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import warnings

from tidalecon import cli


def main() -> int:
    repeats = int(sys.argv[1])
    argv_list = json.load(sys.stdin)
    times: dict[str, list[float]] = {}
    for _ in range(repeats):
        for argv in argv_list:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                started = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - started
            if code != 0:
                print(f"cli.main{argv} exited {code}", file=sys.stderr)
                return 1
            times.setdefault(argv[0], []).append(elapsed * 1000.0)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
