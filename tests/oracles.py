"""Independent reference implementations that the tests check the library
against. None of them is part of the package's API.

``yager_point`` and ``yager_power_point`` are the yager family and its
k-step closed form written out on their own, not as ``Linear(0)``, so they
cannot share a fault with ``linear_point`` or ``linear_power_point``.
``linear_point`` and ``involutive_point`` are the linear and involutive
families' values at one probability, in the kernel's operation order, so
``negate``'s outputs must equal theirs bit for bit.
``exact_negate`` is every family's output computed exactly, in rational
or 60-digit decimal arithmetic, for accuracy bounds on ``negate``.
``negation_axioms_check`` tests the defining order structure of a
negation pairwise, with no reference to any family's formula.
``expovariate_random_dist`` is the flat-Dirichlet sampler written with the
stdlib's exponential variates, which the library's ``random_dist`` must
match bit for bit. ``reference_converge`` is ``converge`` with its
recurrence test written plainly, comparing whole distributions at every
step; the library's must give the same outcomes bit for bit.
``reference_classify`` is ``classify`` building a ``PointVerdict`` for
every sample and picking witnesses from the whole list. For the linear
families it keeps the sampled brackets that ``classify`` replaced by the
linear theorem. The two give equal reports outside the brackets' slack
band: where ``|a|`` or ``1 - |a|`` times some sample's ``|p - 1/n|`` is
within about ``TOL_EQ``, with ``a = contraction_factor(n, alpha)``, the
slack swallows a bracket. Both read a spec's linear weight through their
own ``_reference_alpha``, and ``reference_classify`` draws its own grid,
maps it with ``linear_point`` and samples with ``expovariate_random_dist``,
so neither shares a helper with the code it checks.
"""

import decimal
import functools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from pdnegate import (
    Converged,
    DomainError,
    Involutive,
    LeftDomain,
    Linear,
    LengthMismatchError,
    MaxIterReached,
    Oscillating,
    Tsallis,
    Uniform,
    Yager,
    linf_to_uniform,
    make_dist,
    max_abs_diff,
    negate,
)
from pdnegate.analysis import ClassificationReport, PointVerdict, Verdict

# The library's equality slack, restated: how far apart two values, or two
# distributions in the max norm, may be and still count as equal.
TOL_EQ = 1e-9


def yager_point(p, n):
    """Value of the yager family at ``p`` for length ``n``."""
    return (1.0 - p) / (n - 1)


def yager_power_point(p, n, k):
    """k-fold application of the yager negator to ``p``, in closed form:
    an explicit alternating power of 1/(n - 1)."""
    return 1.0 / n + (-1) ** k * (p - 1.0 / n) / (n - 1) ** k


def linear_point(p, n, alpha):
    """Value of the linear family at ``p`` for length ``n`` and weight
    ``alpha``; yager is ``alpha = 0``, uniform ``alpha = 1``."""
    return alpha / n + (1.0 - alpha) * (1.0 - p) / (n - 1)


@functools.lru_cache(maxsize=8)
def _involutive_constants(values):
    mp = max(values) + min(values)
    return mp, math.fsum([mp - q for q in values])


def involutive_point(p, dist):
    """Value of the involutive family at ``p``, a value of ``dist``:
    ``(mp - p) / sum_j (mp - p_j)`` with ``mp = max(dist) + min(dist)``.
    Both constants are cached per distribution, so a whole one costs one
    pass over it."""
    mp, total = _involutive_constants(dist.values)
    return (mp - p) / total


def _decimal_expm1(x):
    """``exp(x) - 1`` to the context's precision, tiny ``x`` included."""
    if abs(x) >= 1:
        return x.exp() - 1
    term = total = x
    j = 1
    while abs(term) > abs(total) * Decimal(10) ** -(decimal.getcontext().prec + 3):
        j += 1
        term = term * x / j
        total += term
    return total


def exact_negate(spec, dist):
    """``negate(spec, dist)``'s values as exact ``Fraction``s, from the
    family's formula: in rational arithmetic for yager, uniform, linear and
    involutive, and in 60-digit ``decimal`` for tsallis. The whole-distribution
    families divide by the sum of their numerators: ``n - sum(p**k)`` for
    tsallis, and for the involutive family ``n*mp - sum(p)``, which is
    ``n*mp - 1`` only when the values sum to exactly 1. ``None`` where the
    exact values cannot be a float output: tsallis with k < 0 on a zero
    entry, or numerators that sum above the largest float or below the
    smallest normal one."""
    ps = [Fraction(p) for p in dist.values]
    n = len(ps)
    match spec:
        case Yager():
            return tuple((1 - p) / (n - 1) for p in ps)
        case Uniform():
            return (Fraction(1, n),) * n
        case Linear(alpha=alpha):
            a = Fraction(alpha)
            return tuple(a / n + (1 - a) * (1 - p) / (n - 1) for p in ps)
        case Involutive():
            mp = max(ps) + min(ps)
            nums = [mp - p for p in ps]
        case Tsallis(k=k):
            if k < 0.0 and min(ps) == 0:
                return None
            with decimal.localcontext(decimal.Context(prec=60)):
                nums = [
                    Fraction(-_decimal_expm1(Decimal(k) * Decimal(p).ln()) if p else 1)
                    for p in dist.values
                ]
            if k < 0.0:
                nums = [-x for x in nums]
    total = sum(nums)
    if not sys.float_info.min <= total <= sys.float_info.max:
        return None
    return tuple(x / total for x in nums)


def expovariate_random_dist(n, seed):
    """The values of ``random_dist(n, seed)``: n ``expovariate(1.0)`` draws
    of ``random.Random(seed)`` over their ``fsum``, drawn again until every
    value is positive."""
    expovariate = random.Random(seed).expovariate
    while True:
        draws = [expovariate(1.0) for _ in range(n)]
        total = math.fsum(draws)
        values = tuple([d / total for d in draws])
        if min(values) > 0.0:
            return values


def _reference_alpha(spec):
    """The linear weight that ``spec`` stands for, or None for the families
    that read the whole distribution; a value that is not an instance of
    a spec class itself raises ``negate``'s ``TypeError``."""
    if type(spec) not in (Yager, Uniform, Linear, Tsallis, Involutive):
        raise TypeError(f"not a negator spec: {spec!r}")
    match spec:
        case Yager():
            return 0.0
        case Uniform():
            return 1.0
        case Linear(alpha=alpha):
            return alpha
    return None


class AxiomCheck(NamedTuple):
    ok: bool
    violation: str | None


def negation_axioms_check(p_dist, q_dist):
    """Whether ``q_dist`` is a valid negation of ``p_dist``: order-reversal
    with ties mapped to ties, within ``TOL_EQ`` slack.

    Reversal is required only of inputs more than ``TOL_EQ`` apart, and
    agreement within ``TOL_EQ`` only of exactly equal inputs.
    Distinct inputs closer than that are not checked: a steep map such as
    tsallis with k < 1 near 0 pulls their outputs far more than the slack
    apart, so treating them as a tie would reject a correct negation.
    """
    if p_dist.n != q_dist.n:
        raise LengthMismatchError(f"lengths differ: {p_dist.n} vs {q_dist.n}")
    t = TOL_EQ
    p, q = p_dist.values, q_dist.values
    for i in range(p_dist.n):
        for j in range(p_dist.n):
            if (p[i] == p[j] or p[i] < p[j] - t) and q[i] < q[j] - t:
                return AxiomCheck(
                    False,
                    f"order not reversed: p_{i + 1}={p[i]!r} <= p_{j + 1}={p[j]!r} "
                    f"but q_{i + 1}={q[i]!r} < q_{j + 1}={q[j]!r}",
                )
    return AxiomCheck(True, None)


def reference_converge(spec, dist, eps=1e-9, max_iter=1000):
    """``converge`` without its reading of the recorded extremes: every
    step scans for its gap to the step before, and from step 2 on scans
    again for its distance to the step two before whenever that gap
    exceeds ``TOL_EQ`` and has not shrunk by more than ``converge``'s
    slack. As in ``converge``, a linear negator with |factor| < 1 is
    never matched."""
    if not eps > 0.0:
        raise DomainError(f"eps must be > 0, got {eps!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")

    current = dist
    d0 = linf_to_uniform(current)  # a hand-built Dist is validated before the spec
    alpha = _reference_alpha(spec)
    cycles = alpha is None or 1.0 - alpha >= dist.n - 1
    if d0 < eps:
        return Converged(0, current)
    before, previous, last_gap = None, current, None
    for k in range(1, max_iter + 1):
        try:
            current = negate(spec, current)
        except DomainError:
            if k == 1:
                raise
            return LeftDomain(k - 1, current)
        if linf_to_uniform(current) < eps:
            return Converged(k, current)
        gap = max_abs_diff(current, previous)
        if (
            cycles
            and before is not None
            and gap > TOL_EQ
            and gap >= last_gap * (1.0 - 1e-12) - 2**-50 * current._hi
            and max_abs_diff(current, before) <= TOL_EQ
        ):
            return Oscillating(period=2, witness=before)
        before, previous, last_gap = previous, current, gap
    return MaxIterReached(current)


def _reference_point_verdict(p, np_, nnp, n):
    t = TOL_EQ
    lo_c, hi_c = min(p, np_), max(p, np_)
    contracting = lo_c - t <= nnp <= hi_c + t
    lo_e, hi_e = min(np_, nnp), max(np_, nnp)
    expanding = lo_e - t <= p <= hi_e + t
    involutive = abs(nnp - p) <= t
    strict = abs(p - 1.0 / n) > t and lo_c + t < nnp < hi_c - t
    return PointVerdict(
        p=p,
        np=np_,
        nnp=nnp,
        contracting=contracting,
        strictly_contracting=strict,
        expanding=expanding,
        involutive=involutive,
    )


def _reference_dist_verdict(d0, d1, d2, returned):
    t = TOL_EQ
    return PointVerdict(
        p=d0,
        np=d1,
        nnp=d2,
        contracting=d2 <= max(d0, d1) + t,
        strictly_contracting=False,
        expanding=d0 <= max(d1, d2) + t,
        involutive=returned,
    )


def _reference_aggregate(verdicts, n):
    if all(v.involutive for v in verdicts):
        return Verdict.INVOLUTIVE
    if all(v.contracting for v in verdicts):
        eligible = [v for v in verdicts if abs(v.p - 1.0 / n) > TOL_EQ]
        if eligible and all(v.strictly_contracting for v in eligible):
            return Verdict.STRICTLY_CONTRACTING
        return Verdict.CONTRACTING
    if all(v.expanding for v in verdicts):
        return Verdict.EXPANDING
    return Verdict.MIXED


def _reference_witnesses(verdicts, verdict, fixed):
    """The witnesses of ``verdict``; ``fixed`` is where the first slot sits
    at the fixed point: 1/n for values, 0.0 for distances to uniform."""

    def firstn(pred, count=3):
        return [v for v in verdicts if pred(v)][:count]

    if verdict is Verdict.INVOLUTIVE:
        picks = firstn(lambda v: v.involutive)
    elif verdict is Verdict.STRICTLY_CONTRACTING:
        picks = firstn(lambda v: v.strictly_contracting)
    elif verdict is Verdict.CONTRACTING:
        picks = firstn(lambda v: abs(v.p - fixed) > TOL_EQ and not v.strictly_contracting, 1)
        picks += firstn(lambda v: v.contracting and v not in picks, 3 - len(picks))
    elif verdict is Verdict.EXPANDING:
        picks = firstn(lambda v: v.expanding and not v.involutive)
    else:
        picks = firstn(lambda v: v.contracting and not v.expanding, 1)
        picks += firstn(lambda v: v.expanding and not v.contracting, 1)
        picks += firstn(lambda v: not (v.contracting or v.expanding), 1)
    return tuple(picks[:3])


def reference_classify(spec, n, samples, seed):
    """``classify`` with a ``PointVerdict`` built for every sample, and the
    witnesses filtered from the whole list of them."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    alpha = _reference_alpha(spec)
    rng = random.Random(seed)

    verdicts = []
    if alpha is not None:
        grid = [i / 100 for i in range(101)] + [rng.random() for _ in range(samples)]
        for p in grid:
            np_ = linear_point(p, n, alpha)
            nnp = linear_point(np_, n, alpha)
            verdicts.append(_reference_point_verdict(p, np_, nnp, n))
    else:
        t = TOL_EQ
        for _ in range(samples):
            start = make_dist(expovariate_random_dist(n, rng.randrange(2**32)))
            once = negate(spec, start)
            twice = negate(spec, once)
            verdicts.append(
                _reference_dist_verdict(
                    linf_to_uniform(start),
                    linf_to_uniform(once),
                    linf_to_uniform(twice),
                    abs(start.values[0] - twice.values[0]) <= t
                    and max_abs_diff(start, twice) <= t,
                )
            )

    verdict = _reference_aggregate(verdicts, n)
    return ClassificationReport(
        spec=spec,
        n=n,
        sample_count=samples,
        verdict=verdict,
        witnesses=_reference_witnesses(
            verdicts, verdict, 1.0 / n if alpha is not None else 0.0
        ),
    )
