"""Correction for the drift in machine speed between and within runs.

On a shared machine the same pure-Python code can run twice as fast in one
minute as in the next.  A fixed routine that does not touch lamlab, doing
the kind of work lamlab does (Fraction arithmetic, tuples in a set,
sorting), is timed next to every job.  A job's reported latency is its
measured wall time scaled by REFERENCE_S over the probe time around it:
the time the job would take on a machine where the probe takes
REFERENCE_S.  Raw wall times are kept beside the scaled ones.  The steps
of the in-process set-up are scaled the same way (`Clock`).  The time to
import lamlab in a fresh interpreter is not scaled: starting an
interpreter and importing did not follow the probe.

The probe does not depend on the program under test, so a change to
lamlab moves the scaled times in proportion to the wall times.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, TypeVar

REFERENCE_S = 0.020

T = TypeVar("T")


def probe() -> float:
    """Wall seconds of the fixed calibration routine."""
    t0 = time.perf_counter()
    seen = set()
    x = Fraction(1, 7)
    for i in range(1, 600):
        y = (x * 3 + Fraction(i, 97)) % 1
        seen.add((min(x, y), max(x, y)))
        x = y
    sorted(seen)
    return time.perf_counter() - t0


def scale(wall_s: float, probe_before: float, probe_after: float) -> float:
    """Wall time at the reference speed, from the probes on either side."""
    return wall_s * 2 * REFERENCE_S / (probe_before + probe_after)


class Clock:
    """Sums the wall and scaled times of a sequence of steps, probing between them."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.scaled = 0.0
        self.last = probe()

    def time(self, step: Callable[[], T]) -> T:
        t0 = time.perf_counter()
        out = step()
        wall_s = time.perf_counter() - t0
        after = probe()
        self.wall += wall_s
        self.scaled += scale(wall_s, self.last, after)
        self.last = after
        return out
