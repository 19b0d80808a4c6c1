"""Negator families: single-step negations of a probability distribution.

A negator maps each probability value so that larger inputs get smaller
outputs while the results still form a distribution. Five families are
implemented, selected by a tagged spec value:

    yager                (1 - p) / (n - 1)
    uniform              1 / n
    linear (alpha)       alpha/n + (1 - alpha) * (1 - p)/(n - 1)
    tsallis (k != 0)     (1 - p_i**k) / (n - sum_j p_j**k)
    involutive           (mp - p_i) / (n*mp - 1),  mp = max(P) + min(P)

The first three read only the value being transformed; the linear family
is their common closed form (alpha=0 gives yager, alpha=1 gives uniform).
The last two read the whole distribution. The involutive family undoes
itself: negating twice returns the original distribution.

Every family fixes the value 1/n and therefore the uniform distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import (
    DegenerateStatsError,
    DomainError,
    LengthError,
    NegatorSyntaxError,
    RangeError,
    SumError,
)
from .simplex import Dist, DistStats, _validated

__all__ = [
    "Yager",
    "Uniform",
    "Linear",
    "Tsallis",
    "Involutive",
    "NegatorSpec",
    "negate",
    "linear_point",
    "involutive_point",
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
        raise DomainError(f"alpha must be in [0, 1], got {alpha!r}")


@dataclass(frozen=True)
class Linear:
    """Convex mix of the uniform and yager families with weight ``alpha``
    on the uniform side; alpha must lie in [0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class Tsallis:
    """p_i -> (1 - p_i**k) / (n - sum_j p_j**k) with a finite exponent
    ``k != 0``.

    Negative k requires strictly positive probabilities. An exponent so
    close to 0 that every p_i**k rounds to 1 leaves the denominator zero,
    and a negative one can make some p_i**k overflow; ``negate`` raises
    ``DomainError`` for both.
    """

    k: float

    def __post_init__(self) -> None:
        if self.k == 0.0 or not math.isfinite(self.k):
            raise DomainError(f"k must be a finite nonzero number, got {self.k!r}")


@dataclass(frozen=True)
class Involutive:
    """p_i -> (mp - p_i)/(n*mp - 1) with mp = max(P) + min(P); self-inverse."""


NegatorSpec = Yager | Uniform | Linear | Tsallis | Involutive


def linear_point(p: float, n: int, alpha: float) -> float:
    """Value of the linear family at ``p``; raises for alpha outside [0, 1]."""
    _check_alpha(alpha)
    return alpha / n + (1.0 - alpha) * (1.0 - p) / (n - 1)


def involutive_point(p: float, s: DistStats) -> float:
    """Value of the involutive family at ``p`` given the summary stats of
    the distribution ``p`` belongs to.

    ``n*mp - 1 > 0`` holds for the stats of any valid distribution; the
    guard only fires on hand-built degenerate stats.
    """
    denom = s.n * s.mp - 1.0
    if denom <= 0.0:
        raise DegenerateStatsError(f"n*mp - 1 = {denom!r} is not positive")
    return (s.mp - p) / denom


# Inputs whose sum is an ulp off 1 can push an exact-arithmetic boundary
# output a few ulps past it, e.g. (0, 0, 0, 1) under the involutive family.
_SNAP = 1e-12


def _snap_unit(values: list[float]) -> list[float]:
    out = []
    for v in values:
        if -_SNAP <= v < 0.0:
            v = 0.0
        elif 1.0 < v <= 1.0 + _SNAP:
            v = 1.0
        out.append(v)
    return out


def negate(spec: NegatorSpec, dist: Dist) -> Dist:
    """Apply one negation step, returning a validated distribution.

    The output is routed through the validating constructor rather than
    renormalized, so the sum-to-one guarantee is checked, not imposed.
    Roundoff excursions past 0 or 1 of at most 1e-12 are snapped to the
    boundary first; anything larger is a genuine range violation. An
    output that fails validation even so raises ``DomainError``: the
    input was valid, so the negation left the simplex. A ``Dist`` of fewer
    than two values, which only direct construction can build, raises
    ``LengthError`` for every family.

    Each family's arithmetic is written out here with its per-call
    constants hoisted, in the same operation order as ``linear_point``
    and ``involutive_point`` above and, for yager, the reference
    ``yager_point`` in the test suite's ``tests/oracles.py``, so the
    outputs equal theirs bit for bit.
    """
    vals = dist.values
    n = len(vals)
    # Only a Dist built without make_dist can be this short; without the
    # check each family would fail in its own arithmetic.
    if n < 2:
        raise LengthError(f"need at least 2 values, got {n}")
    # Every family but tsallis reverses order through ops that are
    # monotone under round-to-nearest (1 - p, a multiply by w >= 0, a
    # divide by a positive d or denom, an add of a), so its output's
    # extremes are its own expression at the input's max and min, equal to
    # min(out) and max(out) exactly. Tsallis keeps the scan: libm's pow is
    # not guaranteed monotone.
    extremes = None
    match spec:
        case Yager():
            d = n - 1
            out = [(1.0 - p) / d for p in vals]
            extremes = ((1.0 - dist._hi) / d, (1.0 - dist._lo) / d)
        case Uniform():
            u = 1.0 / n
            out = [u] * n
            extremes = (u, u)
        case Linear(alpha=alpha):
            a, w, d = alpha / n, 1.0 - alpha, n - 1
            out = [a + w * (1.0 - p) / d for p in vals]
            extremes = (a + w * (1.0 - dist._hi) / d, a + w * (1.0 - dist._lo) / d)
        case Tsallis(k=k):
            if k < 0.0 and dist._lo <= 0.0:
                raise DomainError(
                    "tsallis with k < 0 requires strictly positive probabilities"
                )
            try:
                powers = [p**k for p in vals]
                denom = n - math.fsum(powers)
            except OverflowError:
                raise DomainError(
                    f"tsallis:k={k!r} overflows p**k on this distribution"
                ) from None
            # Zero when every p**k rounds to 1, as for k = 1e-320.
            if denom == 0.0:
                raise DomainError(
                    f"tsallis:k={k!r} gives denominator n - sum(p**k) = {denom!r}"
                )
            if denom < 0.0:  # k < 0: +0.0, not -0.0, where p**k rounds to 1
                out = [(w - 1.0) / -denom for w in powers]
            else:
                out = [(1.0 - w) / denom for w in powers]
        case Involutive():
            lo, hi = dist._lo, dist._hi
            mp = hi + lo
            denom = n * mp - 1.0
            if denom <= 0.0:
                raise DegenerateStatsError(f"n*mp - 1 = {denom!r} is not positive")
            out = [(mp - p) / denom for p in vals]
            extremes = ((mp - hi) / denom, (mp - lo) / denom)
        case _:
            raise TypeError(f"not a negator spec: {spec!r}")
    # Snapping cannot change a list that is already inside [0, 1], so it
    # is only tried once validation has found a value outside; the snapped
    # list is scanned afresh. Every value is a float already, so
    # make_dist's coercion is skipped.
    out = tuple(out)
    try:
        try:
            return _validated(out, extremes=extremes)
        except RangeError:
            return _validated(tuple(_snap_unit(out)))
    except (RangeError, SumError) as exc:
        raise DomainError(f"negated output fails validation: {exc}") from exc


# The spec classes are the family table. A family's spec text is its
# lowercased class name, followed by ``:<field>=<float>`` when its
# dataclass has a parameter field, so renaming either changes the syntax.
_FAMILIES = (Yager, Uniform, Linear, Tsallis, Involutive)

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
        f":{f.name}={getattr(spec, f.name)!r}" for f in fields(spec)
    )
