"""Negator families: single-step negations of a probability distribution.

A negator maps each probability value so that larger inputs get smaller
outputs while the results still form a distribution. Five families are
implemented, selected by a tagged spec value:

    yager                (1 - p) / (n - 1)
    uniform              1 / n
    linear (alpha)       alpha/n + (1 - alpha) * (1 - p)/(n - 1)
    tsallis (k != 0)     (1 - p_i**k) / sum_j (1 - p_j**k)
    involutive           (mp - p_i) / sum_j (mp - p_j),  mp = max(P) + min(P)

The first three read only the value being transformed; the linear family
is their common closed form (alpha=0 gives yager, alpha=1 gives uniform).
The last two read the whole distribution and divide non-negative
numerators by their sum, so every output lies in [0, 1]: tsallis takes
p**k - 1 for k < 0, and |expm1(k*log(p))| for |1 - p**k| when |k| < 2**-4.
The involutive family undoes itself: negating twice returns the original
distribution.

Every family fixes the value 1/n and therefore the uniform distribution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .errors import (
    DomainError,
    NegatorSyntaxError,
    RangeError,
    SumError,
)
from .simplex import Dist, _accepted, _check_length

__all__ = [
    "Yager",
    "Uniform",
    "Linear",
    "Tsallis",
    "Involutive",
    "NegatorSpec",
    "negate",
    "parse_negator",
    "format_negator",
]


@dataclass(frozen=True)
class Yager:
    """p -> (1 - p)/(n - 1)."""


@dataclass(frozen=True)
class Uniform:
    """p -> 1/n, regardless of p."""


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must be in [0, 1]")


@dataclass(frozen=True)
class Linear:
    """Convex mix of the uniform and yager families with weight ``alpha``
    on the uniform side; alpha must lie in [0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class Tsallis:
    """p_i -> (1 - p_i**k) / sum_j (1 - p_j**k) with a finite exponent
    ``k != 0``.

    Negative k requires strictly positive probabilities. A negative
    exponent can make some p_i**k or their sum overflow, and one so close
    to 0 that the numerators are subnormal, such as 1e-320, leaves them
    too few bits; ``negate`` raises ``DomainError`` for both.
    """

    k: float

    def __post_init__(self) -> None:
        # Exact for an int too, where math.isfinite would overflow.
        if self.k == 0.0 or not -sys.float_info.max <= self.k <= sys.float_info.max:
            raise DomainError("k must be a finite nonzero number within the float range")


@dataclass(frozen=True)
class Involutive:
    """p_i -> (mp - p_i) / sum_j (mp - p_j), mp = max(P) + min(P); self-inverse."""


NegatorSpec = Yager | Uniform | Linear | Tsallis | Involutive


# The smallest |k| whose tsallis numerators are computed with pow: 1 - p**k
# loses about 1e-16/|k| to cancellation, which from 2**-4 up keeps every
# output within the test suite's bound of 2e-15 of its exact value.
_POW_MIN_K = 2**-4


# One kernel per family keeps comprehensions out of negate: before 3.12 each
# name a comprehension reads from its function is a closure cell, made on
# every call. Each kernel hands _accepted its floats, skipping make_dist's
# coercion, and their extremes. Every family but tsallis reverses order
# through ops that are monotone under round-to-nearest (1 - p or mp - p, a
# multiply by w >= 0, a divide by a positive d or total, an add of a), so its
# output's extremes are its own expression at the input's max and min, equal
# to min(out) and max(out) exactly. Tsallis scans its output: libm's pow is
# not guaranteed monotone.


def _yager(vals: tuple[float, ...], lo: float, hi: float) -> Dist:
    d = len(vals) - 1.0  # float / float is faster than float / int, same bits
    out = [(1.0 - p) / d for p in vals]
    return _accepted(tuple(out), (1.0 - hi) / d, (1.0 - lo) / d)


def _uniform(n: int) -> Dist:
    u = 1.0 / n
    return _accepted(tuple([u] * n), u, u)


def _linear(vals: tuple[float, ...], lo: float, hi: float, alpha: float) -> Dist:
    n = len(vals)
    a, w, d = alpha / n, 1.0 - alpha, n - 1.0
    out = [a + w * (1.0 - p) / d for p in vals]
    return _accepted(tuple(out), a + w * (1.0 - hi) / d, a + w * (1.0 - lo) / d)


def _tsallis(vals: tuple[float, ...], lo: float, k: float) -> Dist:
    if k < 0.0 and lo <= 0.0:
        raise DomainError("tsallis with k < 0 requires strictly positive probabilities")
    # Numerators 1 - p**k, or p**k - 1 for k < 0, so that each is >= 0
    # and +0.0 where p**k rounds to 1. Below |k| = _POW_MIN_K they
    # cancel, so they are read as |expm1(k*log(p))|, with 1.0 for p = 0.
    try:
        if abs(k) >= _POW_MIN_K:
            nums = [1.0 - p**k for p in vals] if k > 0.0 else [p**k - 1.0 for p in vals]
        else:
            nums = [abs(math.expm1(k * math.log(p))) if p else 1.0 for p in vals]
        total = math.fsum(nums)
    except OverflowError:
        raise DomainError(f"tsallis:k={k!r} overflows p**k on this distribution") from None
    # Below the smallest normal float the numerators keep only a few
    # bits, as for k = 1e-320.
    if not total >= 2**-1022:
        raise DomainError(f"tsallis:k={k!r} gives numerators that sum to {total!r}")
    out = [x / total for x in nums]
    return _accepted(tuple(out), min(out), max(out))


def _involutive(vals: tuple[float, ...], lo: float, hi: float) -> Dist:
    # total > 0 for every valid Dist (TestStats in test_simplex.py).
    mp = hi + lo
    nums = [mp - p for p in vals]
    total = math.fsum(nums)
    out = [x / total for x in nums]
    return _accepted(tuple(out), (mp - hi) / total, (mp - lo) / total)


def negate(spec: NegatorSpec, dist: Dist) -> Dist:
    """Apply one negation step, returning a validated distribution.

    The output is routed through the validating constructor rather than
    renormalized, so the sum-to-one guarantee is checked, not imposed.
    Every family's output lies in [0, 1] by construction, and no value is
    moved onto a boundary. An output that fails validation raises
    ``DomainError``: the input was valid, so the negation left the
    simplex. A ``Dist`` built without ``make_dist`` is validated here
    first, so an invalid one raises its ``LengthError``, ``RangeError``
    or ``SumError`` for every family and is never negated.
    ``spec`` must be an instance of one of the five spec classes itself:
    any other value, a subclass's instance too, raises ``TypeError``.

    Each family's arithmetic is its own function, with its per-call
    constants hoisted, in the same operation order as the references
    ``yager_point``, ``linear_point`` and ``involutive_point`` in the test
    suite's ``tests/oracles.py``, so the outputs equal theirs bit for bit.
    """
    lo, hi = dist._lo, dist._hi
    family = type(spec)  # exact-class tests are cheaper than class patterns
    try:
        if family is Yager:
            return _yager(dist.values, lo, hi)
        if family is Uniform:
            return _uniform(len(dist.values))
        if family is Linear:
            return _linear(dist.values, lo, hi, spec.alpha)
        if family is Tsallis:
            return _tsallis(dist.values, lo, spec.k)
        if family is Involutive:
            return _involutive(dist.values, lo, hi)
    except (RangeError, SumError) as exc:
        raise DomainError(f"negated output fails validation: {exc}") from exc
    raise TypeError(f"not a negator spec: {spec!r}")


def _linear_alpha(spec: NegatorSpec) -> float | None:
    """The weight ``alpha`` of the linear negator that ``spec`` equals
    value for value, or None for the families that read the whole
    distribution.

    Yager is alpha = 0 and uniform alpha = 1; ``negate``'s linear
    arithmetic computes their values bit for bit at those weights.
    """
    family = type(spec)
    if family is Yager:
        return 0.0
    if family is Uniform:
        return 1.0
    if family is Linear:
        return spec.alpha
    if family is Tsallis or family is Involutive:
        return None
    raise TypeError(f"not a negator spec: {spec!r}")


def contraction_factor(n: int, alpha: float) -> float:
    """Per-step scaling of the offset from 1/n under the linear negator:
    -(1 - alpha)/(n - 1), always in [-1/(n-1), 0]. Orbits converge iff
    its absolute value is below 1, which fails exactly for n = 2 with
    alpha = 0."""
    _check_length(n)
    _check_alpha(alpha)
    return -(1.0 - alpha) / (n - 1)


# The spec classes are the family table. A family's spec text is its
# lowercased class name, followed by ``:<field>=<float>`` when its
# dataclass has a parameter field, so renaming either changes the syntax.
_FAMILIES = NegatorSpec.__args__

_SPEC_SYNTAX = ", ".join(
    family.__name__.lower() + "".join(f":{f.name}=<float>" for f in fields(family))
    for family in _FAMILIES
)


def parse_negator(text: str) -> NegatorSpec:
    """Parse the textual negator syntax.

    Accepted forms: ``yager``, ``uniform``, ``linear:alpha=<float>``,
    ``tsallis:k=<float>``, ``involutive``. Malformed text raises
    ``NegatorSyntaxError``; well-formed text with an out-of-domain
    parameter raises ``DomainError``.
    """
    head, sep, rest = text.strip().partition(":")
    name = head.strip().lower()
    family = next((f for f in _FAMILIES if f.__name__.lower() == name), None)
    if family is None:
        raise NegatorSyntaxError(f"unknown negator {name!r}; expected one of {_SPEC_SYNTAX}")

    params = fields(family)
    if not params:
        if sep:
            raise NegatorSyntaxError(f"{name!r} takes no parameters, got {text!r}")
        return family()

    expected = params[0].name
    key, eq, value_text = rest.partition("=")
    if not sep or key.strip() != expected or not eq:
        raise NegatorSyntaxError(f"expected {name}:{expected}=<float>, got {text!r}")
    try:
        value = float(value_text)
    except ValueError:
        raise NegatorSyntaxError(f"{expected}={value_text!r} is not a number") from None
    return family(value)


def format_negator(spec: NegatorSpec) -> str:
    """Inverse of :func:`parse_negator`."""
    if type(spec) not in _FAMILIES:
        raise TypeError(f"not a negator spec: {spec!r}")
    return type(spec).__name__.lower() + "".join(
        f":{f.name}={float(getattr(spec, f.name))!r}" for f in fields(spec)
    )
