"""A fixed reference kernel that measures how fast the machine runs Python right now.

On a shared host the same request can take 1.7 times longer while another
tenant loads the core, in phases lasting seconds to minutes.  The benchmark
times the kernel right before and right after each measured interval and
reports the interval in reference seconds: wall seconds times
NOMINAL_S / (kernel time), i.e. the time it would take on a machine where
the kernel takes NOMINAL_S.  Like feec's own hot loops, the kernel is
`Fraction` arithmetic accumulated in a dict keyed by tuples, so contention
slows both alike.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.1
_ROUNDS = 15_000


def reference_s() -> float:
    """Wall time of one pass of the kernel (about 0.1 s on an idle 2 GHz core)."""
    t0 = time.perf_counter()
    table: dict[tuple[int, int], Fraction] = {}
    x = Fraction(1, 3)
    for i in range(_ROUNDS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, Fraction(0)) + x * (i % 7 - 3)
        x = Fraction(x.numerator % 1000 + 1, x.denominator % 997 + 2)
    return time.perf_counter() - t0


def scaled(wall_s: float, refs: list[float]) -> float:
    """wall_s in reference seconds, given kernel times taken around it."""
    return wall_s * NOMINAL_S / (sum(refs) / len(refs))
