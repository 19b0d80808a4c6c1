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

For yager, uniform and linear the paper's linear theorem settles these:
q - 1/n = a*(p - 1/n) and r - 1/n = a**2*(p - 1/n), with a in [-1, 0]
the ``contraction_factor``. So every p is contracting; one other than
1/n is strictly contracting when 0 < |a| < 1, and expanding and
involutive only when |a| = 1. ``classify`` reads these flags from a.

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

from .simplex import (
    _TOL_EQ,
    Dist,
    _check_count,
    _check_int,
    _validated,
    linf_to_uniform,
    max_abs_diff,
)
from .negators import Involutive, NegatorSpec, _linear_alpha, contraction_factor, negate

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

    For the linear families the slots hold a probability value, its
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
    """A family's verdict at length ``n``, with up to three witnesses.
    Its JSON form names ``sample_count`` ``samples``, as ``classify`` does."""

    spec: NegatorSpec
    n: int
    sample_count: int = field(metadata={"json": ("samples",)})
    verdict: Verdict
    witnesses: tuple[PointVerdict, ...]


class InvolutionCheck(NamedTuple):
    ok: bool
    max_error: float


def _dist_verdict(d0: float, d1: float, d2: float, returned: bool) -> PointVerdict:
    """One start's distribution-level flags (see the module docstring)."""
    t = _TOL_EQ
    return PointVerdict(d0, d1, d2, d2 <= max(d0, d1) + t, False, d0 <= max(d1, d2) + t, returned)


_WITNESSES = 3  # the most witnesses a report keeps


def _judge(verdicts: list[PointVerdict]) -> tuple[Verdict, list[PointVerdict]]:
    """The verdict over the per-start distribution-level verdicts and its
    witnesses, as ``classify`` states them."""

    def first(pred, count=_WITNESSES):
        return list(islice(filter(pred, verdicts), count))

    if all(v.involutive for v in verdicts):
        verdict, picks = Verdict.INVOLUTIVE, verdicts[:_WITNESSES]
    elif all(v.contracting for v in verdicts):
        # Lead with a start away from uniform, if there is one.
        verdict, picks = Verdict.CONTRACTING, first(lambda v: v.p > _TOL_EQ, 1)
        picks += first(lambda v: v not in picks, _WITNESSES - len(picks))
    elif all(v.expanding for v in verdicts):
        verdict, picks = Verdict.EXPANDING, first(lambda v: not v.involutive)
    else:
        verdict = Verdict.MIXED
        picks = first(lambda v: v.contracting and not v.expanding, 1)
        picks += first(lambda v: v.expanding and not v.contracting, 1)
    return verdict, picks


def classify(spec: NegatorSpec, n: int, samples: int, seed: int) -> ClassificationReport:
    """Classify a negator family at length ``n``.

    For yager, uniform and linear, ``a = contraction_factor(n, alpha)``
    decides (see the module docstring): involutive when |a| = 1,
    contracting when a = 0, else strictly contracting. The witnesses are
    0, 0.01 and 0.02, or for a strict verdict the first three i/100 away
    from 1/n, with ``negate``'s images and the theorem's flags. Nothing is
    sampled: ``seed`` and ``samples`` are only checked, as for every
    family: ``seed`` must be an integer, and ``samples`` one that is >= 1.

    The families that read the whole distribution are sampled as
    ``samples`` whole random distributions (the involutive family, whose
    verdict the paper's involution theorem settles, as only its three
    witnesses). Each gives a distribution-level verdict from the max-norm
    distances to uniform along (P, NOT(P), NOT(NOT(P))) and an involution
    check (see the module docstring for why pointwise brackets are not
    usable there). The involution check compares the first coordinates
    first: a miss there decides it, and only a hit scans the rest.

    The witnesses are at most three of the per-start ``PointVerdict``s.
    Each is the first start in sampling order of its kind: for involutive,
    any; for contracting, one away from uniform, if there is one, then any
    others; for expanding, one that is not involutive; for mixed, one
    that is contracting only and one that is expanding only. No start is
    neither (see the module docstring).
    """
    _check_count(n, 2, "n")
    _check_count(samples, 1, "samples")
    seed = _check_int(seed, "seed")
    alpha = _linear_alpha(spec)
    if alpha is not None:
        a = abs(contraction_factor(n, alpha))
        strict = 0.0 < a < 1.0
        if strict:
            verdict = Verdict.STRICTLY_CONTRACTING
        else:
            verdict = Verdict.INVOLUTIVE if a == 1.0 else Verdict.CONTRACTING
        # The grid points are 0.01 apart, so a strict verdict skips at most
        # one of the first four, the one within the slack of 1/n.
        grid = [i / 100 for i in range(_WITNESSES + 1)]
        u, c, w, d = 1.0 / n, alpha / n, 1.0 - alpha, n - 1.0  # negate's order, so its bits
        witnesses = []
        for p in [p for p in grid if not strict or abs(p - u) > _TOL_EQ][:_WITNESSES]:
            np_ = c + w * (1.0 - p) / d
            nnp, back = c + w * (1.0 - np_) / d, a == 1.0 or p == u
            witnesses.append(PointVerdict(p, np_, nnp, True, strict, back, back))
    else:
        # Paper's involution theorem: N(N(P)) = P / sum(P) exactly (N(P)'s max + min is
        # mp / (n*mp - sum(P)), mp = max(P) + min(P)). random_dist's sum and each
        # negation's rounding are off by a few 2**-53 whatever n, so every start
        # returns within 2**-48 << _TOL_EQ: INVOLUTIVE, first three witnesses.
        t = _TOL_EQ
        rng = random.Random(seed)
        verdicts: list[PointVerdict] = []
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
        verdict, witnesses = _judge(verdicts)
    return ClassificationReport(
        spec=spec,
        n=n,
        sample_count=samples,
        verdict=verdict,
        witnesses=tuple(witnesses),
    )


def check_involution(spec: NegatorSpec, dist: Dist) -> InvolutionCheck:
    """Whether negating twice returns ``dist``, with the max componentwise error."""
    back = negate(spec, negate(spec, dist))
    err = max_abs_diff(dist, back)
    return InvolutionCheck(ok=err <= _TOL_EQ, max_error=err)


def fixed_point(spec: NegatorSpec, n: int) -> float:
    """1/n, the value every family fixes (the paper's theorem). Only ``n``
    and ``spec`` are checked: it holds even where ``negate`` cannot
    evaluate the uniform distribution, as for ``Tsallis(1e-320)``."""
    _check_count(n, 2, "n")
    _linear_alpha(spec)  # a non-spec raises TypeError, as in iterate
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
    _check_count(n, 2, "n")
    rnd = random.Random(_check_int(seed, "seed")).random
    log = math.log
    while True:
        logs = [log(1.0 - rnd()) for _ in range(n)]
        total = math.fsum(logs)
        dist = _validated(tuple([v / total for v in logs]))
        if dist._lo > 0.0:
            return dist
