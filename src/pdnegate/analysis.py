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
the uniform distribution along the orbit triple (P, NOT P, NOT NOT P)
from each start it draws (the involutive family's are its witnesses):

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
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .errors import DomainError
from .simplex import (
    _TOL_EQ,
    Dist,
    _check_length,
    _validated,
    linf_to_uniform,
    max_abs_diff,
    uniform_dist,
)
from .negators import Involutive, NegatorSpec, _linear_alpha, negate

__all__ = [
    "PointVerdict",
    "Verdict",
    "ClassificationReport",
    "InvolutionCheck",
    "classify",
    "check_involution",
    "fixed_point",
    "random_dist",
]


@dataclass(frozen=True)
class PointVerdict:
    """Bracket flags for one orbit triple. In its JSON form (see
    ``cli._jsonable``) the four flags sit under ``flags``.

    For pointwise classification the slots hold a probability value, its
    image, and its second image. For distribution-level classification
    (the families that read the whole distribution) they hold the
    max-norm distances to uniform of P, NOT(P), NOT(NOT(P)).
    """

    p: float
    np: float
    nnp: float
    contracting: bool = field(metadata={"json": ("flags", "contracting")})
    strictly_contracting: bool = field(metadata={"json": ("flags", "strictly_contracting")})
    expanding: bool = field(metadata={"json": ("flags", "expanding")})
    involutive: bool = field(metadata={"json": ("flags", "involutive")})


class Verdict(enum.Enum):
    CONTRACTING = "contracting"
    STRICTLY_CONTRACTING = "strictly_contracting"
    EXPANDING = "expanding"
    INVOLUTIVE = "involutive"
    MIXED = "mixed"


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregate verdict over sampled points, with up to three witnesses.
    Its JSON form names ``sample_count`` ``samples``, as ``classify`` does."""

    spec: NegatorSpec
    n: int
    sample_count: int = field(metadata={"json": ("samples",)})
    verdict: Verdict
    witnesses: tuple[PointVerdict, ...]


class InvolutionCheck(NamedTuple):
    ok: bool
    max_error: float


def _point_verdict(p: float, np_: float, nnp: float, n: int) -> tuple:
    """``PointVerdict``'s fields, in its order, as a plain tuple."""
    t = _TOL_EQ
    lo_c, hi_c = min(p, np_), max(p, np_)
    lo_e, hi_e = min(np_, nnp), max(np_, nnp)
    return (
        p,
        np_,
        nnp,
        lo_c - t <= nnp <= hi_c + t,
        abs(p - 1.0 / n) > t and lo_c + t < nnp < hi_c - t,
        lo_e - t <= p <= hi_e + t,
        abs(nnp - p) <= t,
    )


def _dist_verdict(d0: float, d1: float, d2: float, returned: bool) -> tuple:
    """``PointVerdict``'s fields, in its order, as a plain tuple."""
    t = _TOL_EQ
    return (d0, d1, d2, d2 <= max(d0, d1) + t, False, d0 <= max(d1, d2) + t, returned)


# Positions of PointVerdict's fields in the per-sample flag tuples.
_P, _CONTRACTING, _STRICT, _EXPANDING, _INVOLUTIVE = 0, 3, 4, 5, 6
_WITNESSES = 3  # the most witnesses a report keeps


def _judge(verdicts: list[tuple], fixed: float) -> tuple[Verdict, tuple]:
    """The verdict over the per-sample tuples and its witnesses, as
    ``classify`` states them; ``fixed`` is the first slot's fixed value."""

    def first(pred, count=_WITNESSES):
        return list(islice(filter(pred, verdicts), count))

    if all(v[_INVOLUTIVE] for v in verdicts):
        verdict, picks = Verdict.INVOLUTIVE, verdicts[:_WITNESSES]
    elif all(v[_CONTRACTING] for v in verdicts):
        # Strictness implies being away from the fixed point, so with no
        # lead witness the verdict is strict exactly when some sample is.
        picks = first(lambda v: abs(v[_P] - fixed) > _TOL_EQ and not v[_STRICT], 1)
        strict = [] if picks else first(lambda v: v[_STRICT])
        if strict:
            verdict, picks = Verdict.STRICTLY_CONTRACTING, strict
        else:
            verdict = Verdict.CONTRACTING
            picks += first(lambda v: v not in picks, _WITNESSES - len(picks))
    elif all(v[_EXPANDING] for v in verdicts):
        verdict, picks = Verdict.EXPANDING, first(lambda v: not v[_INVOLUTIVE])
    else:
        verdict = Verdict.MIXED
        picks = first(lambda v: v[_CONTRACTING] and not v[_EXPANDING], 1)
        picks += first(lambda v: v[_EXPANDING] and not v[_CONTRACTING], 1)
        picks += first(lambda v: not (v[_CONTRACTING] or v[_EXPANDING]), 1)
    return verdict, tuple(PointVerdict(*v) for v in picks)


def classify(spec: NegatorSpec, n: int, samples: int, seed: int) -> ClassificationReport:
    """Classify a negator family at length ``n`` from sampled evidence.

    Pointwise families are sampled on a fixed 101-point grid plus
    ``samples`` seeded random values. Distribution-dependent families are
    sampled as ``samples`` whole random distributions (the involutive
    family, whose verdict the paper's theorem settles, as only its three
    witnesses). Each gives a distribution-level verdict from the max-norm
    distances to uniform along (P, NOT(P), NOT(NOT(P))) and an involution
    check (see the module docstring for why pointwise brackets are not
    usable there). The involution check compares the first coordinates
    first: a miss there decides it, and only a hit scans the rest.

    Each per-sample verdict is kept as a plain tuple of ``PointVerdict``'s
    fields; only the witnesses, at most three, become ``PointVerdict``s.
    Each is the first sample in sampling order of its kind: for involutive,
    any; for strictly contracting, a strict one; for contracting, one away
    from the fixed point (1/n, or uniform at the distribution level) that
    is not strict, if there is one, then any others; for expanding, one
    that is not involutive; for mixed, one each that is contracting only,
    expanding only, and neither.
    """
    _check_length(n)
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    alpha = _linear_alpha(spec)
    rng = random.Random(seed)

    verdicts: list[tuple] = []
    if alpha is not None:
        # negate's operation order, so the same bits. The 101 even grid
        # points hit 0, 1 and the fixed point 1/n for common n.
        a, w, d = alpha / n, 1.0 - alpha, n - 1.0
        for p in [i / 100 for i in range(101)] + [rng.random() for _ in range(samples)]:
            np_ = a + w * (1.0 - p) / d
            verdicts.append(_point_verdict(p, np_, a + w * (1.0 - np_) / d, n))
    else:
        # Paper's theorem: N(N(P)) = P / sum(P) exactly (N(P)'s max + min is
        # mp / (n*mp - sum(P)), mp = max(P) + min(P)). random_dist's sum and each
        # negation's rounding are off by a few 2**-53 whatever n, so every start
        # returns within 2**-48 << _TOL_EQ: INVOLUTIVE, first three witnesses.
        t = _TOL_EQ
        draws = min(samples, _WITNESSES) if type(spec) is Involutive else samples
        for _ in range(draws):
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
                )
            )

    verdict, witnesses = _judge(verdicts, 0.0 if alpha is None else 1.0 / n)
    return ClassificationReport(
        spec=spec,
        n=n,
        sample_count=samples,
        verdict=verdict,
        witnesses=witnesses,
    )


def check_involution(spec: NegatorSpec, dist: Dist) -> InvolutionCheck:
    """Whether negating twice returns ``dist``, with the max componentwise error."""
    back = negate(spec, negate(spec, dist))
    err = max_abs_diff(dist, back)
    return InvolutionCheck(ok=err <= _TOL_EQ, max_error=err)


def fixed_point(spec: NegatorSpec, n: int) -> float:
    """The unique fixed probability value, 1/n, after checking that
    negating the uniform distribution reproduces it."""
    u = uniform_dist(n)
    if max_abs_diff(negate(spec, u), u) > _TOL_EQ:
        raise ArithmeticError(f"{spec!r} does not fix the uniform distribution")
    return 1.0 / n


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
