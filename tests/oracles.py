"""Independent reference implementations that the tests check the library
against. None of them is part of the package's API.

``yager_point`` and ``yager_power_point`` are the yager family and its
k-step closed form written out on their own, not as ``Linear(0)``, so they
cannot share a fault with ``linear_point`` or ``linear_power_point``.
``negation_axioms_check`` tests the defining order structure of a
negation pairwise, with no reference to any family's formula.
"""

from typing import NamedTuple

from pdnegate import DEFAULT_TOLERANCE, LengthMismatchError


def yager_point(p, n):
    """Value of the yager family at ``p`` for length ``n``."""
    return (1.0 - p) / (n - 1)


def yager_power_point(p, n, k):
    """k-fold application of the yager negator to ``p``, in closed form:
    an explicit alternating power of 1/(n - 1)."""
    return 1.0 / n + (-1) ** k * (p - 1.0 / n) / (n - 1) ** k


class AxiomCheck(NamedTuple):
    ok: bool
    violation: str | None


def negation_axioms_check(p_dist, q_dist, tol=DEFAULT_TOLERANCE):
    """Whether ``q_dist`` is a valid negation of ``p_dist``: order-reversal
    with ties mapped to ties, within ``tol.tol_eq`` slack.

    Reversal is required only of inputs more than ``tol.tol_eq`` apart,
    and agreement within ``tol.tol_eq`` only of exactly equal inputs.
    Distinct inputs closer than that are not checked: a steep map such as
    tsallis with k < 1 near 0 pulls their outputs far more than the slack
    apart, so treating them as a tie would reject a correct negation.
    """
    if p_dist.n != q_dist.n:
        raise LengthMismatchError(f"lengths differ: {p_dist.n} vs {q_dist.n}")
    t = tol.tol_eq
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
