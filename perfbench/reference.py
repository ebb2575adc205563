"""The reference computation that every benchmark time is scaled by.

A shared host runs this benchmark at a speed that swings by up to a factor
of two within seconds (another tenant's load on the same core changes how
fast the same Python code runs; CPU time and wall time swing alike, so this
is not time spent descheduled).  Every timed interval is therefore bracketed
by a fixed piece of pure-Python work built from the operations envlld spends
its time in: Fraction arithmetic, dict updates keyed by exponent tuples, and
big-integer products.  An interval is reported in seconds of a nominal host,
on which that work takes exactly NOMINAL_S:

    nominal seconds = wall seconds * NOMINAL_S / reference seconds

where the reference seconds are the mean of the reference timed just before
and just after the interval.  The reference shares no code with envlld, so no
change to envlld moves it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 1e-3


def _work():
    acc = Fraction(0)
    table = {}
    x = 1
    for i in range(1, 140):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
        key = (i % 13, i % 7, i % 3)
        table[key] = table.get(key, 0) + i
        x = (x * 1000003 + i) % (1 << 127)
    return acc, len(table), x


def reference_s():
    """Wall seconds the reference work takes now.  The collector is held
    off so that garbage left by the program is not collected on its clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def nominal(wall_s, before_s, after_s):
    """`wall_s` in nominal seconds, given the reference timed around it."""
    return wall_s * NOMINAL_S * 2 / (before_s + after_s)
