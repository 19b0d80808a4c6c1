"""Negator classification, involution checks, fixed points, and seeded
random distributions for property testing.

At a probability value p with image q = N(p) and second image r = N(q):

    contracting at p:   min(p, q) <= r <= max(p, q)
    expanding at p:     min(q, r) <= p <= max(q, r)
    involutive at p:    r == p

Order reversal forces at least one of the first two to hold at every p;
both hold together exactly at involutive points. Strict contraction
additionally requires r strictly inside the first bracket, which can only
be asked away from the fixed value 1/n where the brackets collapse.

For the families that read the whole distribution, the second
application is a *different* scalar map (its context is the negated
distribution), so the pointwise brackets above lose their dichotomy and
can fail on both sides at once. ``classify`` therefore judges those
families at the distribution level, through the max-norm distances to
the uniform distribution along the orbit triple (P, NOT P, NOT NOT P):

    contracting at P:   d2 <= max(d0, d1)   (no escape past the envelope)
    expanding at P:     d0 <= max(d1, d2)   (P inside its successors' envelope)
    involutive at P:    NOT(NOT(P)) == P componentwise

One of the first two always holds (if d2 > max(d0, d1) then d0 < d2).
These are exactly what the pointwise brackets imply about distance to
the fixed value, which is the quantity the convergence theory tracks.
The strict flag stays False at the distribution level: strictness is a
pointwise-bracket notion and the distance envelope cannot witness it.
"""

from __future__ import annotations

import enum
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .simplex import (
    DEFAULT_TOLERANCE,
    Dist,
    Tolerance,
    _check_length,
    _validated,
    linf_to_uniform,
    max_abs_diff,
    stats,
    uniform_dist,
)
from .negators import (
    Involutive,
    Linear,
    NegatorSpec,
    Tsallis,
    Uniform,
    Yager,
    involutive_point,
    negate,
)

__all__ = [
    "PointVerdict",
    "Verdict",
    "ClassificationReport",
    "InvolutionCheck",
    "classify_point",
    "classify",
    "check_involution",
    "fixed_point",
    "random_dist",
]


@dataclass(frozen=True)
class PointVerdict:
    """Bracket flags for one orbit triple.

    For pointwise classification the slots hold a probability value, its
    image, and its second image. For distribution-level classification
    (the families that read the whole distribution) they hold the
    max-norm distances to uniform of P, NOT(P), NOT(NOT(P)).
    """

    p: float
    np: float
    nnp: float
    contracting: bool
    strictly_contracting: bool
    expanding: bool
    involutive: bool


class Verdict(enum.Enum):
    CONTRACTING = "contracting"
    STRICTLY_CONTRACTING = "strictly_contracting"
    EXPANDING = "expanding"
    INVOLUTIVE = "involutive"
    MIXED = "mixed"


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregate verdict over sampled points, with up to three witnesses."""

    spec: NegatorSpec
    n: int
    sample_count: int
    verdict: Verdict
    witnesses: tuple[PointVerdict, ...]


class InvolutionCheck(NamedTuple):
    ok: bool
    max_error: float


def _linear_alpha(spec: NegatorSpec) -> float | None:
    """The weight ``alpha`` of the linear negator that ``spec`` equals
    value for value, or None for the families that read the whole
    distribution.

    Yager is alpha = 0 and uniform alpha = 1; ``linear_point`` computes
    their values bit for bit at those weights.
    """
    match spec:
        case Yager():
            return 0.0
        case Uniform():
            return 1.0
        case Linear(alpha=alpha):
            return alpha
        case Tsallis() | Involutive():
            return None
    raise TypeError(f"not a negator spec: {spec!r}")


def _linear_map(n: int, alpha: float) -> Callable[[float], float]:
    """``linear_point`` at length ``n`` and weight ``alpha``, with its
    constants hoisted and alpha's domain check left to the spec: the same
    operation order as ``linear_point`` and ``negate``, so the same bits."""
    a, w, d = alpha / n, 1.0 - alpha, n - 1
    return lambda p: a + w * (1.0 - p) / d


def _point_verdict(p: float, np_: float, nnp: float, n: int, tol: Tolerance) -> PointVerdict:
    t = tol.tol_eq
    lo_c, hi_c = min(p, np_), max(p, np_)
    contracting = lo_c - t <= nnp <= hi_c + t
    lo_e, hi_e = min(np_, nnp), max(np_, nnp)
    expanding = lo_e - t <= p <= hi_e + t
    involutive = abs(nnp - p) <= t
    strict = (
        abs(p - 1.0 / n) > t and lo_c + t < nnp < hi_c - t
    )
    return PointVerdict(
        p=p,
        np=np_,
        nnp=nnp,
        contracting=contracting,
        strictly_contracting=strict,
        expanding=expanding,
        involutive=involutive,
    )


def classify_point(
    negator: Callable[[float], float],
    p: float,
    n: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> PointVerdict:
    """Classify one probability value under a pointwise negator.

    ``negator`` maps a value to its negation and is applied twice. The
    families that read the whole distribution negate in a new context the
    second time, so ``classify`` judges them at the distribution level.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")
    np_ = negator(p)
    nnp = negator(np_)
    return _point_verdict(p, np_, nnp, n, tol)


def _dist_verdict(
    d0: float, d1: float, d2: float, returned: bool, tol: Tolerance
) -> PointVerdict:
    t = tol.tol_eq
    return PointVerdict(
        p=d0,
        np=d1,
        nnp=d2,
        contracting=d2 <= max(d0, d1) + t,
        strictly_contracting=False,
        expanding=d0 <= max(d1, d2) + t,
        involutive=returned,
    )


def _grid_points(samples: int, rng: random.Random) -> list[float]:
    # 101 even points hit 0, 1 and the fixed point 1/n for common n.
    grid = [i / 100 for i in range(101)]
    grid += [rng.random() for _ in range(samples)]
    return grid


def _aggregate(verdicts: list[PointVerdict], n: int, tol: Tolerance) -> Verdict:
    if all(v.involutive for v in verdicts):
        return Verdict.INVOLUTIVE
    if all(v.contracting for v in verdicts):
        eligible = [v for v in verdicts if abs(v.p - 1.0 / n) > tol.tol_eq]
        if eligible and all(v.strictly_contracting for v in eligible):
            return Verdict.STRICTLY_CONTRACTING
        return Verdict.CONTRACTING
    if all(v.expanding for v in verdicts):
        return Verdict.EXPANDING
    return Verdict.MIXED


def _witnesses(
    verdicts: list[PointVerdict], verdict: Verdict, n: int, tol: Tolerance
) -> tuple[PointVerdict, ...]:
    def firstn(pred, count=3):
        return [v for v in verdicts if pred(v)][:count]

    if verdict is Verdict.INVOLUTIVE:
        picks = firstn(lambda v: v.involutive)
    elif verdict is Verdict.STRICTLY_CONTRACTING:
        picks = firstn(lambda v: v.strictly_contracting)
    elif verdict is Verdict.CONTRACTING:
        # Lead with a bracket-equality point: the evidence strictness fails.
        picks = firstn(
            lambda v: abs(v.p - 1.0 / n) > tol.tol_eq and not v.strictly_contracting, 1
        )
        picks += firstn(lambda v: v.contracting and v not in picks, 3 - len(picks))
    elif verdict is Verdict.EXPANDING:
        picks = firstn(lambda v: v.expanding and not v.involutive)
    else:
        picks = firstn(lambda v: v.contracting and not v.expanding, 1)
        picks += firstn(lambda v: v.expanding and not v.contracting, 1)
        picks += firstn(lambda v: not (v.contracting or v.expanding), 1)
    return tuple(picks[:3])


def classify(
    spec: NegatorSpec,
    n: int,
    samples: int,
    seed: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> ClassificationReport:
    """Classify a negator family at length ``n`` from sampled evidence.

    Pointwise families are sampled on a fixed 101-point grid plus
    ``samples`` seeded random values. Distribution-dependent families are
    sampled as ``samples`` whole random distributions; each contributes
    one distribution-level verdict built from the max-norm distances to
    uniform along (P, NOT(P), NOT(NOT(P))) together with an involution
    check (see the module docstring for why pointwise brackets are not
    usable there). The involution check compares the first coordinates
    first: a miss there decides it, and only a hit scans the rest.
    """
    _check_length(n)
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    alpha = _linear_alpha(spec)
    rng = random.Random(seed)

    verdicts: list[PointVerdict] = []
    if alpha is not None:
        # Grid points lie in [0, 1], so classify_point's domain check is skipped.
        f = _linear_map(n, alpha)
        for p in _grid_points(samples, rng):
            np_ = f(p)
            verdicts.append(_point_verdict(p, np_, f(np_), n, tol))
    else:
        t = tol.tol_eq
        for _ in range(samples):
            start = random_dist(n, seed=rng.randrange(2**32))
            once = negate(spec, start)
            twice = negate(spec, once)
            verdicts.append(
                _dist_verdict(
                    linf_to_uniform(start),
                    linf_to_uniform(once),
                    linf_to_uniform(twice),
                    # The max bounds every coordinate, so a first-coordinate
                    # miss decides the test without the full scan.
                    abs(start.values[0] - twice.values[0]) <= t
                    and max_abs_diff(start, twice) <= t,
                    tol,
                )
            )

    verdict = _aggregate(verdicts, n, tol)
    return ClassificationReport(
        spec=spec,
        n=n,
        sample_count=samples,
        verdict=verdict,
        witnesses=_witnesses(verdicts, verdict, n, tol),
    )


def check_involution(
    spec: NegatorSpec, dist: Dist, tol: Tolerance = DEFAULT_TOLERANCE
) -> InvolutionCheck:
    """Whether negating twice returns ``dist``, with the max componentwise error."""
    back = negate(spec, negate(spec, dist))
    err = max_abs_diff(dist, back)
    return InvolutionCheck(ok=err <= tol.tol_eq, max_error=err)


def fixed_point(
    spec: NegatorSpec,
    n: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """The unique fixed probability value, 1/n, after verification.

    Verifies that negating the uniform distribution reproduces it and,
    for families with a pointwise form, scans a grid on [0, 1] to confirm
    the value map crosses the identity only at 1/n. The involutive family
    needs a concrete distribution for its stats and uses a seeded random
    one. The tsallis family has no context-free pointwise form, so only
    the uniform-distribution check applies there.
    """
    _check_length(n)
    fp = 1.0 / n
    u = uniform_dist(n)
    if max_abs_diff(negate(spec, u), u) > tol.tol_eq:
        raise ArithmeticError(f"{spec!r} does not fix the uniform distribution")

    alpha = _linear_alpha(spec)
    if alpha is not None:
        f = _linear_map(n, alpha)
    elif isinstance(spec, Involutive):
        s = stats(random_dist(n, seed=0))
        f = lambda p: involutive_point(p, s)  # noqa: E731
    else:
        return fp
    if abs(f(fp) - fp) > tol.tol_eq:
        raise ArithmeticError(f"{spec!r} does not fix {fp} pointwise")
    step = 1.0 / 1000
    for i in range(1001):
        p = i * step
        diff = f(p) - p
        # A decreasing negator fixing 1/n must sit above the identity
        # left of 1/n and below it to the right.
        if p < fp - step and diff <= 0.0:
            raise ArithmeticError(f"unexpected fixed point near p={p}")
        if p > fp + step and diff >= 0.0:
            raise ArithmeticError(f"unexpected fixed point near p={p}")
    return fp


def random_dist(n: int, seed: int) -> Dist:
    """Deterministic sample from the flat Dirichlet distribution.

    Draws n unit-exponential variates and normalizes by their sum. All
    coordinates come out strictly positive, so every family (including
    tsallis with k < 0) accepts the result.

    The variates are ``expovariate(1.0)`` of ``random.Random(seed)``, which
    CPython computes as ``-log(1.0 - random()) / 1.0``. Dividing the logs
    ``l = log(1.0 - random())`` by their ``fsum`` gives the same bits as
    dividing the variates ``-l`` by theirs: ``fsum`` is correctly rounded,
    so it maps ``-l`` to exactly minus its result for ``l``, and the two
    sign flips cancel in each quotient, a zero's sign included.
    """
    _check_length(n)
    rnd = random.Random(seed).random
    log = math.log
    while True:
        logs = [log(1.0 - rnd()) for _ in range(n)]
        total = math.fsum(logs)
        dist = _validated(tuple([v / total for v in logs]))
        if dist._lo > 0.0:
            return dist
