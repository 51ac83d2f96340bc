"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared cores whose speed drifts, for tens of seconds
at a time, by up to 1.6x: other tenants, not the program, set it, and it
moves every wall-clock figure of a run by the same factor.  A fixed
pure-Python reference workload (argparse, JSON round trips, frozen
dataclasses, tuple sets and a small dense integer product: the standard
library work the program spends its time in) is timed next to the ops to
measure that drift.  A calibrated time is
the raw time scaled by REFERENCE_S / (the reference's time now): seconds on
a machine where the reference takes REFERENCE_S.  The reference does not
use the program, so a change to the program moves calibrated times exactly
as it moves raw ones.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass

REFERENCE_S = 0.006
INTERVAL_S = 0.5


@dataclass(frozen=True)
class _Record:
    key: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(x) for x in self.values))


def reference_work() -> int:
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for name in ("one", "two", "three"):
            p = sub.add_parser(name)
            p.add_argument("--input")
            p.add_argument("--length", type=int, default=3)
            p.add_argument("--flag", action="store_true")
        parser.parse_args(["two", "--input", "x", "--length", "4", "--flag"])
    doc = {"groups": [{"rank": i % 3, "torsion": [], "pretty": "Z"} for i in range(60)], "sizes": list(range(50))}
    for _ in range(5):
        json.loads(json.dumps(doc, indent=2, sort_keys=True))
    records = {(r.key % 50, r.values) for r in (_Record(i, (i, i + 1, i + 2)) for i in range(800))}
    n = 16
    a = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(n)) for i in range(n))
    product = [tuple(sum(row[k] * a[k][j] for k in range(n)) for j in range(n)) for row in a]
    return len(records) + len(product)


def reference_seconds() -> float:
    """Fastest of three timings of the reference workload."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Calibration factors, re-measured at most every INTERVAL_S.

    Each timed interval is scaled by the mean of the factors measured just
    before and just after it, so a drift during a long op is split evenly.
    """

    def __init__(self):
        self.factors: list[float] = []
        self._pending: list[list[float]] = []
        self._due = 0.0

    def refresh(self, force: bool = False) -> None:
        """Measure the reference if due, closing the intervals timed since the last one."""
        if not (force or time.perf_counter() >= self._due):
            return
        factor = REFERENCE_S / reference_seconds()
        for interval in self._pending:
            interval[1] = (interval[1] + factor) / 2
        self._pending.clear()
        self.factors.append(factor)
        self._due = time.perf_counter() + INTERVAL_S

    def record(self, seconds: float) -> list[float]:
        """[raw seconds, factor]; the factor is final after the next refresh."""
        interval = [seconds, self.factors[-1]]
        self._pending.append(interval)
        return interval
