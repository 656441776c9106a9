"""Machine-speed reference for normalizing the measured times.

On a shared machine the speed of pure-Python work drifts by up to 1.7x over
tens of seconds (measured on a 2-vCPU Intel Xeon virtual machine with Python
3.11), which would swamp any program change in a 20-second run.
The benchmark therefore runs a fixed reference loop between jobs (outside
the timed region) and reports every end-to-end time scaled to a machine on
which the loop takes ``REF_MS`` milliseconds:

    normalized = measured * REF_MS / (reference time measured nearby)

The loop mixes the operations ``sumrules`` spends its time on (Fraction
arithmetic, complex doubles in tuples, dict churn, argument parsing and
JSON) and calls no ``sumrules`` code, so a change to the program moves the normalized times exactly as much
as the measured ones.  The measured times are printed next to them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from fractions import Fraction

REF_MS = 10.0
# Job time between two reference samples, and samples per smoothed factor.
SAMPLE_EVERY_S = 0.1
WINDOW = 5


def reference_work() -> tuple:
    """About 10 ms of Fraction, complex-tuple, argparse and JSON work."""
    table: dict[tuple[int, int], int] = {}
    acc = Fraction(0)
    for i in range(1000):
        key = (i % 50, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    point = (0.0,) * 8
    total = 0.0
    for i in range(700):
        shifted = tuple(x + 0.5 * i for x in point)
        w = sum(x * complex(0.3, -0.7) for x in shifted)
        total += abs(w) ** 2
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for n in range(8):
        cmd = sub.add_parser(f"c{n}")
        cmd.add_argument("--name")
        cmd.add_argument("--count", type=int, default=0)
    parser.parse_args(["c3", "--name", "x", "--count", "4"])
    payload = json.dumps({"rows": [{"key": [i, i + 1], "value": i / 7}
                                   for i in range(200)]},
                         sort_keys=True, indent=2)
    return acc, total, len(table), len(json.loads(payload)["rows"])


class Speed:
    """Reference samples taken between jobs and the scale factor they give."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = SAMPLE_EVERY_S

    def sample(self) -> float:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self._since = 0.0
        return elapsed

    def before_job(self) -> None:
        """Sample if enough job time has passed since the last sample."""
        if self._since >= SAMPLE_EVERY_S:
            self.sample()

    def after_job(self, seconds: float) -> float:
        """Count the job's time and return it normalized."""
        self._since += seconds
        return seconds * self.factor()

    def factor(self) -> float:
        recent = self.samples[-WINDOW:]
        return REF_MS / 1e3 / statistics.median(recent)
