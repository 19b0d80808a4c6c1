"""Validated points on the probability simplex and their summary measures.

A distribution here is a finite ordered tuple of probabilities summing to
one. Constructors reject invalid input instead of repairing it; a ``Dist``
built directly is validated by the first library function that reads it.

The entropy used throughout is the quadratic (Gini) form

    H(P) = sum_i (1 - p_i) * p_i = 1 - sum_i p_i**2,

which ranges over [0, (n-1)/n], vanishing exactly on point distributions
and peaking exactly on the uniform one. Distance to the uniform
distribution is measured in the max norm, the metric in which iterated
linear negation contracts at an exactly geometric rate.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DomainError,
    LengthError,
    LengthMismatchError,
    RangeError,
    SumError,
)

__all__ = [
    "Dist",
    "make_dist",
    "uniform_dist",
    "point_dist",
    "entropy",
    "linf_to_uniform",
    "max_abs_diff",
    "parse_dist",
]


# How far a distribution's sum may stray from one: ample headroom for
# double-precision sums of up to ~1e4 terms.
_TOL_SIMPLEX = 1e-9
# How far apart two probabilities, or two distributions in the max norm,
# may be and still count as equal: the slack of converge's cycle test,
# classify's brackets and check_involution.
_TOL_EQ = 1e-9
_new = object.__new__  # builds an instance without its __init__


@dataclass(frozen=True)
class Dist:
    """A probability distribution over n >= 2 ordered outcomes.

    Build through :func:`make_dist` (or ``uniform_dist`` / ``point_dist``),
    which enforce the invariants; one built directly is validated by the
    first library function that reads it. Values are kept in input order
    and never renormalized or sorted.
    """

    values: tuple[float, ...]

    # min(values) and max(values), recorded by validation in the instance
    # dict as _lo and _hi. A Dist built directly records both at the first
    # read of _lo, which validates it as make_dist would; so every reader
    # reads _lo first. Neither is a field, so ==, hash, repr and replace see
    # only values. (A __getattr__ in place of the property would slow every
    # attribute read of every Dist.)
    @cached_property
    def _lo(self) -> float:
        checked = _validated(self.values)
        vars(self).update(_lo=checked._lo, _hi=checked._hi)
        return checked._lo

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]


def make_dist(values: Iterable[float]) -> Dist:
    """Validate ``values`` as a probability distribution and wrap them.

    The input is taken verbatim: no renormalization, no reordering; only
    a ``-0.0`` is stored as ``0.0``. Raises ``LengthError`` for fewer than
    two values, ``RangeError`` for a value outside [0, 1], ``SumError``
    when the total strays from one by more than ``_TOL_SIMPLEX`` (1e-9).
    """
    values = tuple(values)  # read twice if float() overflows
    try:
        vals = tuple(map(float, values))
    except OverflowError:
        vals = tuple([_float_or_huge(v) for v in values])
    dist = _validated(vals)
    if dist._lo == 0.0:
        # Store -0.0 as 0.0, which keeps the sums; other values stay as they are.
        return _accepted(tuple([v or 0.0 for v in dist.values]), 0.0, dist._hi)
    return dist


def _float_or_huge(v: object) -> object:
    """float(v), or ``v`` itself when it is a number past the largest float,
    such as a huge int or ``Fraction``: validation then names its position."""
    try:
        return float(v)
    except OverflowError:
        return v


def _validated(vals: tuple[float, ...]) -> Dist:
    """:func:`make_dist` on a tuple that holds only floats already, as the
    negators' and samplers' outputs do: the same checks, without coercion."""
    if len(vals) < 2:
        raise LengthError(f"need at least 2 values, got {len(vals)}")
    return _accepted(vals, min(vals), max(vals))


def _accepted(vals: tuple[float, ...], lo: float, hi: float) -> Dist:
    """:func:`_validated`'s tests, given ``lo`` and ``hi`` equal to
    ``min(vals)`` and ``max(vals)``: ``negate`` derives them from its input's
    instead of scanning. The ``Dist`` it accepts records both, and skips the
    generated ``__init__``: safe, as ``Dist`` is frozen, has no
    ``__post_init__`` and keeps all its state in its dict, here in the key
    order that ``vars()`` and pickles always saw."""
    # Fast path. min and max skip a NaN that is not first, but such a NaN
    # makes the sum NaN, which fails both sum tests as written.
    if 0.0 <= lo and hi <= 1.0:
        # With every value in [0, 1], a plain left-to-right sum is off from
        # the exact sum S by at most gamma_(n-1) * S, about (n-1) * 2**-53 * S
        # (Higham, Accuracy and Stability of Numerical Algorithms, 4.2), and
        # fsum's result is off by one rounding, at most 2**-53 * S. For S
        # near 1 the margin n * 2**-52 covers both about twice over, so
        # whatever this test accepts the fsum test accepts too, and fsum
        # decides the rest. From Python 3.12 on, sum() of floats is
        # compensated and its error is smaller still. Past about
        # _TOL_SIMPLEX * 2**52 values (4.5e6) the margin exceeds the
        # tolerance and fsum decides every input.
        slack = _TOL_SIMPLEX - len(vals) * 2**-52
        if -slack <= sum(vals) - 1.0 <= slack or abs(math.fsum(vals) - 1.0) <= _TOL_SIMPLEX:
            dist = _new(Dist)
            state = dist.__dict__
            state["values"] = vals
            state["_lo"], state["_hi"] = lo, hi
            return dist
    # Slow path, only to name the fault: the first value outside [0, 1],
    # else the sum.
    for i, v in enumerate(vals):
        if not 0.0 <= v <= 1.0:
            shown = f"{v!r} " if isinstance(v, float) else ""  # str() of a huge int raises
            raise RangeError(f"value {shown}at position {i + 1} outside [0, 1]")
    raise SumError(f"values sum to {math.fsum(vals)!r}, not 1 within {_TOL_SIMPLEX}")


def _check_int(x: int, name: str) -> int:
    """The seed rule: an int, as ``operator.index`` reads one (not 3.0 or NaN)."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{name} must be an integer") from None


def _check_count(x: int, least: int, name: str) -> None:
    """The one rule for every count: ``_check_int``'s, in [least, the largest
    float]. No message formats ``x``: str() of an int past 4300 digits raises."""
    x = _check_int(x, name)
    if x < least:
        raise DomainError(f"{name} must be >= {least}")
    if x > sys.float_info.max:  # exact for an int; 1.0 / x would overflow
        raise DomainError(f"{name} must be at most the largest float")


def uniform_dist(n: int) -> Dist:
    """The distribution with every probability equal to 1/n."""
    _check_count(n, 2, "n")
    u = 1.0 / operator.index(n)  # a float for a numpy int too
    return _accepted((u,) * n, u, u)


def point_dist(n: int, i: int) -> Dist:
    """The degenerate distribution with unit mass on outcome ``i`` (1-based)."""
    _check_count(n, 2, "n")
    if not (hasattr(type(i), "__index__") and 1 <= i <= n):  # a non-int is outside too
        raise IndexError(f"outcome index outside 1..{n}")
    return make_dist([1.0 if j == i else 0.0 for j in range(1, n + 1)])


def entropy(dist: Dist) -> float:
    """Quadratic entropy sum((1 - p) * p), in [0, (n-1)/n]."""
    dist._lo  # validates a hand-built Dist, as every reader does
    return math.fsum([(1.0 - v) * v for v in dist.values])


def linf_to_uniform(dist: Dist) -> float:
    """Max-norm distance to the uniform distribution of the same length.

    Reads the min and max that validation recorded on ``dist``, so it does
    not scan; it reads them before the length, so that an empty hand-built
    ``Dist`` raises ``LengthError``.
    """
    # Equal to max(abs(v - u)): rounding is monotone, so the largest v - u
    # comes from max(v), and u - v is exactly -(v - u).
    lo, hi = dist._lo, dist._hi
    u = 1.0 / len(dist.values)
    return max(hi - u, u - lo)


def max_abs_diff(a: Dist, b: Dist) -> float:
    """Largest componentwise absolute difference between two distributions."""
    a._lo, b._lo  # validates a hand-built Dist, before the length test
    if len(a.values) != len(b.values):
        raise LengthMismatchError(f"lengths differ: {a.n} vs {b.n}")
    return max(map(abs, map(operator.sub, a.values, b.values)))


def parse_dist(text: str) -> Dist:
    """Parse comma-separated decimal literals, e.g. ``0.1,0.2,0.7``."""
    try:
        values = [float(part) for part in text.split(",")]  # float() strips whitespace
    except ValueError:
        raise ValueError(f"not a comma-separated list of numbers: {text!r}") from None
    return make_dist(values)
