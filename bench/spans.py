"""Spans recorded around the benchmark's calls into the library, and the
percentile helpers shared by the report.

Spans stay in memory while the run measures and are written out once, at
the end. A layer span's parent is the op span with the same ``op`` id.
"""
from __future__ import annotations

import json
import statistics
import time


def direct(name: str, function, *args):
    """The untraced ``call``: straight through."""
    return function(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float]] = []
        self._op = -1

    def begin(self, op: int) -> None:
        self._op = op

    def call(self, name: str, function, *args):
        started = time.perf_counter()
        try:
            return function(*args)
        finally:
            self.spans.append((self._op, name, started, time.perf_counter()))

    def end(self, started: float, ended: float) -> None:
        self.spans.append((self._op, "op", started, ended))

    def durations(self) -> dict[str, list[float]]:
        """Seconds per span name."""
        out: dict[str, list[float]] = {}
        for _, name, started, ended in self.spans:
            out.setdefault(name, []).append(ended - started)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, name, started, ended in self.spans:
                parent = None if name == "op" else op
                handle.write(json.dumps({"op": op, "name": name, "parent_op": parent,
                                         "start_s": started, "end_s": ended}) + "\n")


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]
