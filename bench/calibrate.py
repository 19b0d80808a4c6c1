"""How fast the interpreter runs right now, from a fixed piece of work.

The benchmark runs on shared virtual machines whose speed drifts with
the load of other tenants: between identical runs minutes apart, the
raw time of the same pdnegate calls moved by up to 55 %, and the time of
this calibration moved with it. Each timing the benchmark reports is
therefore scaled to a reference speed, the one at which ``work`` takes
``REFERENCE_S``. A rate is multiplied, and a time divided, by the
time of ``work`` measured next to it over ``REFERENCE_S``.

The work is plain bytecode on floats, lists, tuples and small objects,
the same kind of work pdnegate does, and uses nothing pdnegate could
change. Tracking both kinds matters: a loop of list arithmetic alone
left a spread of 8 % between runs of ``orbits``; with the small calls
added it was 3 %.
"""

from __future__ import annotations

import time

# Seconds ``work`` takes at the reference speed: its typical time on a
# 2.1 GHz Xeon vCPU under CPython 3.11.7.
REFERENCE_S = 2e-3

_DATA = [i / 9999.0 for i in range(10_000)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def _pair(v: float, w: float) -> _Pair:
    return _Pair(v + w, abs(v - w))


def work() -> float:
    """Float arithmetic over a long list, as in one negate at n = 10 000,
    then many small calls that build objects, as along an orbit."""
    out = [(1.0 - v) / 9999.0 for v in _DATA]
    total = 0.0
    for v in out:
        if v < 0.0 or v > 1.0:
            raise ArithmeticError(v)
        total += v
    pairs = [_pair(v, 0.5) for v in _DATA[:4000]]
    return total + len(tuple(out)) + max(p.b for p in pairs)


def factor() -> float:
    """Scale from the current speed to the reference one, from the mean
    time of three ``work`` calls: multiply a rate by it, divide a time
    by it."""
    t0 = time.perf_counter()
    for _ in range(3):
        work()
    return (time.perf_counter() - t0) / 3 / REFERENCE_S
