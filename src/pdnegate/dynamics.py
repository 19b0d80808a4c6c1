"""Iterated negation: orbits, closed-form powers, convergence detection.

For the linear family the k-step image of a value has the closed form

    N^k(p) = 1/n + a**k * (p - 1/n),    a = -(1 - alpha)/(n - 1),

so the whole orbit contracts toward the uniform distribution at the
exactly geometric rate |a| per step, in the max norm, whenever |a| < 1.
The boundary case |a| = 1 occurs only for n = 2 with alpha = 0 (the map
p -> 1 - p): that orbit never converges, it flips between two
distributions forever. The involutive family likewise produces pure
period-2 orbits from any non-uniform start.

The closed forms here are deliberately separate code paths from the
step-by-step iterator so the two can serve as mutual oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from .errors import DomainError
from .simplex import (
    _TOL_EQ,
    Dist,
    _new,
    max_abs_diff,
)
from .negators import NegatorSpec, _linear_alpha, contraction_factor, negate

__all__ = [
    "OrbitStep",
    "OrbitTrace",
    "Converged",
    "Oscillating",
    "MaxIterReached",
    "LeftDomain",
    "ConvergenceOutcome",
    "iterate",
    "linear_power_point",
    "contraction_factor",
    "converge",
    "orbit_csv",
]


@dataclass(frozen=True)
class OrbitStep:
    """One entry of an orbit: the k-th repeated negation of the start."""

    k: int
    dist: Dist
    entropy: float
    linf: float


@dataclass(frozen=True)
class OrbitTrace:
    """The orbit P, NOT(P), NOT^2(P), ... with per-step measures."""

    steps: tuple[OrbitStep, ...]

    @property
    def last(self) -> OrbitStep:
        return self.steps[-1]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Converged:
    """Orbit reached the uniform distribution: ``steps`` negations taken."""

    steps: int
    limit: Dist


@dataclass(frozen=True)
class Oscillating:
    """Orbit revisited an earlier distribution without converging."""

    period: int
    witness: Dist


@dataclass(frozen=True)
class MaxIterReached:
    """Iteration budget exhausted with neither convergence nor recurrence."""

    last: Dist


@dataclass(frozen=True)
class LeftDomain:
    """Orbit left the family's domain: ``steps`` negations succeeded, the
    next one raised ``DomainError`` on ``last``, the distribution they
    reached."""

    steps: int
    last: Dist


ConvergenceOutcome = Converged | Oscillating | MaxIterReached | LeftDomain


def iterate(spec: NegatorSpec, dist: Dist, steps: int) -> OrbitTrace:
    """Repeatedly negate ``dist``, returning the orbit of length ``steps + 1``.

    Every intermediate distribution passes full validation, so the trace
    doubles as a running check that negation preserves the simplex.
    """
    if not steps >= 0:
        raise DomainError("steps must be >= 0")
    dist._lo  # the first read of a hand-built Dist validates it; len may not
    _linear_alpha(spec)  # a non-spec raises here, even if negate never runs
    u = 1.0 / len(dist.values)
    trace = []
    for k in range(steps + 1):
        if k:
            dist = negate(spec, dist)
        # OrbitStep(k, dist, entropy(dist), linf_to_uniform(dist)), bit for bit,
        # without the generated __init__ or the calls: safe, as OrbitStep is
        # frozen, has no __post_init__ and keeps its fields, in this order, in
        # its dict. The linf is the one max(above, below) picks.
        above, below = dist._hi - u, u - dist._lo
        step = _new(OrbitStep)
        state = step.__dict__
        state["k"], state["dist"] = k, dist
        state["entropy"] = fsum([(1.0 - v) * v for v in dist.values])
        state["linf"] = below if below > above else above
        trace.append(step)
    return OrbitTrace(tuple(trace))


def linear_power_point(p: float, n: int, alpha: float, k: int) -> float:
    """k-fold application of the linear negator to ``p``, in closed form."""
    a = contraction_factor(n, alpha)
    if not k >= 0:
        raise DomainError("k must be >= 0")
    return 1.0 / n + a**k * (p - 1.0 / n)


def converge(
    spec: NegatorSpec,
    dist: Dist,
    eps: float = 1e-9,
    max_iter: int = 1000,
) -> ConvergenceOutcome:
    """Iterate until the orbit lands within ``eps`` of uniform (max norm),
    revisits an earlier distribution, or exhausts ``max_iter`` steps. By
    the paper's theorem a linear negator (yager and uniform included) whose
    ``contraction_factor(n, alpha)`` is below 1 in absolute value converges
    from every start, so its orbit is never tested for a cycle.

    Each step is compared with the step two before it: period 2 is the only
    cycle the shipped families can produce, and this finds it however late
    the orbit falls into it. A match counts only when the step in between
    lies more than ``1e-9`` away and that gap has not shrunk: it is at
    least ``1 - 1e-12`` times the gap one step earlier, less ``2**-50``
    times the step's max, a few ulps of its values. An orbit that closes in
    on uniform while alternating sides also comes back within ``1e-9`` of
    its step two before, but its gap shrinks every step. The slack lets a
    true cycle match at its first return, although rounding makes its gaps
    differ in the last bits. The price is a band for the tsallis and
    involutive families: once a step lies within ``1e-9`` of the step two
    before it, an orbit whose gap grows, or shrinks per step by at most
    ``1e-12`` of itself or by less than a few ulps of its values, may be
    reported as a 2-cycle. ``Tsallis(-1.0)`` from ``(0.3, 0.7)`` with
    ``eps=1e-12`` is one: it reaches the vertex ``(1.0, 0.0)`` at step 7,
    outside the family's domain, yet it is reported as ``Oscillating``. A
    frozen non-uniform point is not reported; such an orbit runs to
    ``MaxIterReached``.

    Before it compares whole distributions, each step compares its recorded
    min and max with those of the step two before. If the two steps lie
    within ``1e-9`` of each other in the max norm, so do their mins and
    their maxes: min and max move by no more than the max norm does, and
    rounding a difference is monotone. So when either extreme differs by
    more, the steps cannot match and nothing is scanned; otherwise the full
    test runs. Every outcome is the one the full test gives.

    An orbit whose later step falls outside the family's domain, such as
    tsallis with k < 0 once an entry underflows to 0, ends in
    ``LeftDomain``. A ``DomainError`` from the first step still
    propagates: then ``dist`` itself is outside the domain.
    """
    if not eps > 0.0:
        raise DomainError("eps must be > 0")
    if not max_iter >= 1:
        raise DomainError("max_iter must be >= 1")

    current = dist
    # _lo before len, as in iterate. Each side's test decides as linf < eps.
    lo, hi, n = current._lo, current._hi, len(current.values)
    u = 1.0 / n
    alpha = _linear_alpha(spec)
    cycles = alpha is None or abs(contraction_factor(n, alpha)) >= 1.0
    if hi - u < eps and u - lo < eps:
        return Converged(0, current)
    before, previous, last_gap, t = None, current, None, _TOL_EQ
    for k in range(1, max_iter + 1):
        try:
            current = negate(spec, current)
        except DomainError:
            if k == 1:
                raise
            return LeftDomain(k - 1, current)
        if current._hi - u < eps and u - current._lo < eps:
            return Converged(k, current)
        if before is None or not cycles:
            # Step 1: nothing two back to match. Its gap is scanned at step
            # 2, and only if step 2 needs it.
            before, previous = previous, current
            continue
        gap = None  # not scanned; the next step scans it if it needs it
        if -t <= current._hi - before._hi <= t and -t <= current._lo - before._lo <= t:
            gap = max_abs_diff(current, previous)
            if gap > t:
                if last_gap is None:
                    last_gap = max_abs_diff(previous, before)
                if (
                    gap >= last_gap * (1.0 - 1e-12) - 2**-50 * current._hi
                    and max_abs_diff(current, before) <= t
                ):
                    return Oscillating(period=2, witness=before)
        before, previous, last_gap = previous, current, gap
    return MaxIterReached(current)


def orbit_csv(trace: OrbitTrace) -> str:
    """Serialize an orbit as CSV: header ``k,p_1..p_n,entropy,linf``,
    one row per step, floats at 17 significant digits."""
    n = trace.steps[0].dist.n
    header = "k," + ",".join(f"p_{i}" for i in range(1, n + 1)) + ",entropy,linf"
    lines = [header]
    for step in trace.steps:
        cells = [str(step.k)]
        cells += [format(v, ".17g") for v in step.dist]
        cells.append(format(step.entropy, ".17g"))
        cells.append(format(step.linf, ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
