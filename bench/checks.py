"""Checks of pdnegate's outputs against the benchmark's own arithmetic.

Nothing here imports pdnegate. Every expected value is computed from the
paper's definitions of the five families, so a fault in the program
cannot hide in its own check. Each checker takes plain data (lists of
floats, ints, strings, the dicts the CLI prints) and returns ``None`` for
a correct output or a one-line message saying what is wrong.

A spec is a ``(family, parameter)`` pair: ``("yager", None)``,
``("uniform", None)``, ``("linear", alpha)``, ``("tsallis", k)`` or
``("involutive", None)``.
"""

from __future__ import annotations

import json
import math
from array import array

# Agreement of an output with the family's formula.
TOL = 1e-12
# The package's documented simplex and equality tolerances.
SIMPLEX_TOL = 1e-9
TOL_EQ = 1e-9
# Largest roundoff excursion past 0 or 1 that negate snaps to the boundary.
SNAP = 1e-12
# Roundoff window around eps in which converge may stop one step early or late.
STEP_SLACK = 1e-14

POINTWISE = ("yager", "uniform", "linear")


def spec_text(spec) -> str:
    """The CLI spelling of a spec, e.g. ``linear:alpha=0.25``."""
    family, param = spec
    if family == "linear":
        return f"linear:alpha={param!r}"
    if family == "tsallis":
        return f"tsallis:k={param!r}"
    return family


def dist_error(values) -> str | None:
    """Whether ``values`` is a valid distribution under the package's rules."""
    if len(values) < 2:
        return f"{len(values)} values, need at least 2"
    for i, v in enumerate(values):
        if not isinstance(v, float) or not 0.0 <= v <= 1.0:
            return f"value {v!r} at position {i + 1} is not a float in [0, 1]"
    total = math.fsum(values)
    if abs(total - 1.0) > SIMPLEX_TOL:
        return f"values sum to {total!r}"
    return None


def _snapped(values: list[float]) -> list[float]:
    return [min(1.0, max(0.0, v)) if -SNAP <= v <= 1.0 + SNAP else v for v in values]


def formula(spec, p) -> list[float]:
    """One negation of ``p`` by the family's defining formula, with the
    package's 1e-12 boundary snap."""
    family, param = spec
    n = len(p)
    if family in POINTWISE:
        out = [point_value(spec, v, n) for v in p]
    elif family == "tsallis":
        w = [v**param for v in p]
        denom = n - math.fsum(w)
        out = [(1.0 - x) / denom for x in w]
    elif family == "involutive":
        mp = max(p) + min(p)
        denom = n * mp - 1.0
        out = [(mp - v) / denom for v in p]
    else:
        raise ValueError(f"unknown family {family!r}")
    return _snapped(out)


def point_value(spec, p: float, n: int) -> float:
    """The value map of a pointwise family (yager, uniform, linear)."""
    family, param = spec
    if family == "yager":
        return (1.0 - p) / (n - 1)
    if family == "uniform":
        return 1.0 / n
    return param / n + (1.0 - param) * (1.0 - p) / (n - 1)


def is_linear(spec) -> bool:
    """Yager and linear: the families with a closed-form orbit."""
    return spec[0] in ("yager", "linear")


def linear_factor(spec, n: int) -> float:
    """Per-step factor a = -(1 - alpha)/(n - 1) of the linear family
    (yager is alpha = 0)."""
    alpha = 0.0 if spec[0] == "yager" else spec[1]
    return -(1.0 - alpha) / (n - 1)


def _max_diff(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _linf(values) -> float:
    u = 1.0 / len(values)
    return max(abs(v - u) for v in values)


def order_key(p) -> array:
    """Indices of ``p`` in increasing order of value."""
    return array("l", sorted(range(len(p)), key=p.__getitem__))


def order_error(p, q, order=None) -> str | None:
    """Order reversal: p_i < p_j implies q_i >= q_j."""
    lowest = math.inf  # smallest q over strictly smaller values of p
    tie_value, tie_lowest = None, math.inf
    for i in order if order is not None else order_key(p):
        if p[i] != tie_value:
            lowest = min(lowest, tie_lowest)
            tie_value, tie_lowest = p[i], math.inf
        if q[i] > lowest:
            return f"order not reversed at value p={p[i]!r}"
        tie_lowest = min(tie_lowest, q[i])
    return None


def check_negate(spec, p, q, order=None) -> str | None:
    """One negation: a valid distribution, equal to the formula to 1e-12,
    reversing the order of ``p``."""
    if len(q) != len(p):
        return f"length {len(q)}, expected {len(p)}"
    err = dist_error(q)
    if err:
        return err
    worst = _max_diff(q, formula(spec, p))
    if worst > TOL:
        return f"{spec_text(spec)}: off the formula by {worst:.3g}"
    return order_error(p, q, order)


def check_involution(p, back) -> str | None:
    """Involutive applied twice returns the start. Roundoff grows with
    1/(n*mp - 1), about n for a point mass, so the tolerance is tol_eq."""
    worst = _max_diff(p, back)
    if len(back) != len(p) or worst > TOL_EQ:
        return f"involutive twice is {worst:.3g} from the start"
    return None


def linear_steps(a: float, d0: float, eps: float) -> list[int]:
    """Step counts converge may report for a linear orbit: the smallest k
    with |a|^k * d0 < eps, and its neighbour where |a|^k * d0 lies within
    roundoff of eps."""
    k = 0
    while abs(a) ** k * d0 >= eps:
        k += 1
    allowed = [k]
    if abs(a) ** k * d0 > eps - STEP_SLACK:
        allowed.append(k + 1)
    if k > 0 and abs(a) ** (k - 1) * d0 < eps + STEP_SLACK:
        allowed.append(k - 1)
    return allowed


def _outcome_dists(outcome: dict) -> list:
    return [v for key, v in outcome.items() if isinstance(v, list)]


def check_converge(spec, p, eps: float, outcome: dict) -> str | None:
    """A converge outcome, in the CLI's JSON form, against what the paper
    proves for the family."""
    family, param = spec
    n = len(p)
    for values in _outcome_dists(outcome):
        err = dist_error(values)
        if err:
            return f"outcome distribution invalid: {err}"
    kind = outcome.get("outcome")
    if family == "tsallis" and param < 0:
        # Orbits that leave the simplex: any outcome with valid
        # distributions is accepted, but a claimed limit must be uniform.
        if kind == "converged" and _linf(outcome["limit"]) >= eps:
            return "claimed limit is not within eps of uniform"
        return None
    if family == "involutive":
        if kind != "oscillating" or outcome.get("period") != 2:
            return f"involutive: expected oscillating with period 2, got {kind}"
        if _max_diff(outcome["witness"], p) > TOL:
            return "involutive: witness is not the start"
        return None
    if kind != "converged":
        return f"{spec_text(spec)}: expected converged, got {kind}"
    if len(outcome["limit"]) != n or _linf(outcome["limit"]) >= eps:
        return f"{spec_text(spec)}: limit is not within eps of uniform"
    if is_linear(spec):
        allowed = linear_steps(linear_factor(spec, n), _linf(p), eps)
        if outcome["steps"] not in allowed:
            return f"{spec_text(spec)}: {outcome['steps']} steps, expected {allowed}"
    return None


def check_orbit(spec, p, steps: list[dict], count: int) -> str | None:
    """An ``iterate`` orbit in the CLI's JSON form: ``count + 1`` entries,
    each the negation of the one before, with its entropy and distance to
    uniform; linear orbits also match the closed form."""
    if len(steps) != count + 1:
        return f"orbit has {len(steps)} entries, expected {count + 1}"
    n = len(p)
    prev = None
    for k, step in enumerate(steps):
        q = step["dist"]
        if step["k"] != k or len(q) != n:
            return f"entry {k} is malformed"
        err = dist_error(q)
        if err:
            return f"entry {k}: {err}"
        if k == 0:
            want = list(p)
        elif is_linear(spec):
            a = linear_factor(spec, n)
            want = [1.0 / n + a**k * (v - 1.0 / n) for v in p]
        else:
            want = formula(spec, prev)
        if _max_diff(q, want) > TOL:
            return f"entry {k} is {_max_diff(q, want):.3g} off"
        if abs(step["entropy"] - (1.0 - math.fsum(v * v for v in q))) > TOL:
            return f"entry {k}: wrong entropy"
        if abs(step["linf"] - _linf(q)) > TOL:
            return f"entry {k}: wrong distance to uniform"
        prev = q
    return None


def expected_verdict(spec, n: int) -> str:
    """The verdict the paper proves (and the README documents) for ``spec``
    at length n >= 3."""
    family, param = spec
    if n < 3:
        raise ValueError(f"no proven verdict at n = {n}")
    if family == "uniform":
        return "contracting"
    if family == "involutive":
        return "involutive"
    if family == "yager" or (family == "linear" and 0.0 < param < 1.0):
        return "strictly_contracting"
    if family == "tsallis" and param > 0:
        return "contracting"
    raise ValueError(f"no proven verdict for {spec_text(spec)}")


def _point_flags(p, np_, nnp, n) -> dict:
    t = TOL_EQ
    lo_c, hi_c = min(p, np_), max(p, np_)
    lo_e, hi_e = min(np_, nnp), max(np_, nnp)
    return {
        "contracting": lo_c - t <= nnp <= hi_c + t,
        "strictly_contracting": abs(p - 1.0 / n) > t and lo_c + t < nnp < hi_c - t,
        "expanding": lo_e - t <= p <= hi_e + t,
        "involutive": abs(nnp - p) <= t,
    }


def check_classify(spec, n: int, samples: int, report: dict) -> str | None:
    """A classification report in the CLI's JSON form: the proven verdict,
    and witnesses whose flags follow from their p, np and nnp."""
    if report.get("n") != n or report.get("samples") != samples:
        return "report names the wrong n or sample count"
    want = expected_verdict(spec, n)
    if report.get("verdict") != want:
        return f"{spec_text(spec)}: verdict {report.get('verdict')}, expected {want}"
    witnesses = report.get("witnesses", [])
    if not 1 <= len(witnesses) <= 3:
        return f"{len(witnesses)} witnesses"
    t = TOL_EQ
    for w in witnesses:
        p, np_, nnp, flags = w["p"], w["np"], w["nnp"], w["flags"]
        if spec[0] in POINTWISE:
            if abs(np_ - point_value(spec, p, n)) > TOL or abs(
                nnp - point_value(spec, np_, n)
            ) > TOL:
                return f"witness p={p!r}: images off the formula"
            recomputed = _point_flags(p, np_, nnp, n)
        else:
            # Distribution-level witnesses hold the distances to uniform of
            # P, N(P), N(N(P)). The involution flag compares whole
            # distributions; the distances can only refute it.
            recomputed = {
                "contracting": nnp <= max(p, np_) + t,
                "strictly_contracting": False,
                "expanding": p <= max(np_, nnp) + t,
                "involutive": flags.get("involutive") is True and abs(nnp - p) <= t,
            }
        if flags != recomputed:
            return f"witness p={p!r}: flags {flags} do not follow from its values"
        if not flags[want]:
            return f"witness p={p!r} does not show {want}"
    return None


def cli_payload(stdout: str, stderr: str):
    """The single JSON payload of a CLI call that exited 0, or an error
    message. Returns ``(payload, None)`` or ``(None, message)``."""
    if stderr:
        return None, f"unexpected stderr: {stderr.strip()[-200:]}"
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        return None, "stdout is not exactly one line"
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"
