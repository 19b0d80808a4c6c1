"""Acceptance checks: the headline behaviors, one test per criterion.

Each test prints a single "[acceptance] <name>: PASS|FAIL" line (run
pytest with -s to see them on passing runs). Expected values come from
independent oracles computed inside the test: exact-fraction arithmetic,
the geometric-rate formula, or direct re-evaluation, never from the
functions under test.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pdnegate import (
    Converged,
    Involutive,
    Linear,
    Oscillating,
    Tsallis,
    Uniform,
    Verdict,
    Yager,
    check_involution,
    classify,
    contraction_factor,
    converge,
    entropy,
    fixed_point,
    iterate,
    linear_power_point,
    linf_to_uniform,
    make_dist,
    max_abs_diff,
    negate,
    point_dist,
    random_dist,
    uniform_dist,
)
from oracles import (
    _reference_point_verdict,
    involutive_point,
    linear_point,
    yager_point,
    yager_power_point,
)

EXAMPLE = make_dist([0.1, 0.2, 0.15, 0.3, 0.25])
ALPHAS_11 = [i / 10 for i in range(11)]


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    else:
        print(f"[acceptance] {name}: PASS")


def test_criterion_1_worked_example_reproduction():
    """Involutive negation of (0.1, 0.2, 0.15, 0.3, 0.25) and its exact
    return after a second negation, both to 1e-12."""
    with criterion("1 worked-example reproduction"):
        t0 = time.perf_counter()
        q = negate(Involutive(), EXAMPLE)
        want = [Fraction(3, 10), Fraction(1, 5), Fraction(1, 4),
                Fraction(1, 10), Fraction(3, 20)]
        assert max(abs(a - float(b)) for a, b in zip(q, want)) <= 1e-12
        back = negate(Involutive(), q)
        assert max_abs_diff(back, EXAMPLE) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_involution_suite():
    """Double involutive negation returns the input within 1e-9 for
    n in 2..10, 1000 seeded random distributions each, in under 5 s."""
    with criterion("2 involution suite (9000 distributions)"):
        t0 = time.perf_counter()
        worst = 0.0
        for n in range(2, 11):
            for i in range(1000):
                d = random_dist(n, seed=n * 100003 + i)
                ok, err = check_involution(Involutive(), d)
                assert ok
                worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-9
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_closed_form_oracle():
    """Repeated pointwise application agrees with the k-step closed form
    1/n + A^k (p - 1/n) within 1e-12 over 10^4 samples; the alternating
    power form for the reciprocal family agrees as well."""
    with criterion("3 closed-form oracle (10^4 samples)"):
        rng = random.Random(99)
        for _ in range(10000):
            n = rng.randrange(2, 11)
            alpha = rng.choice(ALPHAS_11)
            k = rng.randrange(0, 31)
            p = rng.random()
            direct = p
            for _ in range(k):
                direct = linear_point(direct, n, alpha)
            assert abs(direct - linear_power_point(p, n, alpha, k)) <= 1e-12
        for _ in range(2000):
            n = rng.randrange(2, 11)
            k = rng.randrange(0, 31)
            p = rng.random()
            direct = p
            for _ in range(k):
                direct = yager_point(direct, n)
            assert abs(direct - yager_power_point(p, n, k)) <= 1e-12


def test_criterion_4_convergence_rate():
    """From a point distribution at n=5, distance to uniform after k
    steps is exactly 0.8 * 0.25^k (to 1e-12) for k <= 16, and converge
    stops at the first k where that rate drops below eps = 1e-9.

    The crossing step is computed here from the rate formula itself:
    0.8 * 0.25^15 = 7.45e-10 is the first value below 1e-9.
    """
    with criterion("4 geometric convergence rate"):
        start = point_dist(5, 1)
        trace = iterate(Yager(), start, 16)
        for step in trace.steps:
            assert abs(step.linf - 0.8 * 0.25**step.k) <= 1e-12
        crossing = 0
        while 0.8 * 0.25**crossing >= 1e-9:
            crossing += 1
        out = converge(Yager(), start, eps=1e-9)
        assert isinstance(out, Converged)
        assert out.steps == crossing
        assert linf_to_uniform(out.limit) < 1e-9


def test_criterion_5_degenerate_case_honesty():
    """At n=2 the reciprocal family is the involution 1-p: classified
    involutive, detected as a period-2 oscillation, and its contraction
    factor is -1 (|factor| = 1)."""
    with criterion("5 n=2 boundary case honesty"):
        report = classify(Yager(), 2, samples=100, seed=42)
        assert report.verdict is Verdict.INVOLUTIVE
        out = converge(Yager(), make_dist([0.3, 0.7]))
        assert isinstance(out, Oscillating)
        assert out.period == 2
        assert contraction_factor(2, 0.0) == -1.0


def test_criterion_6_ranges_and_fixed_points():
    """Value-range intervals on 101-point grids for the pointwise
    families at n in 2..10, and the 1/n fixed point (pointwise and as
    the uniform distribution) for every family, all to 1e-12."""
    with criterion("6 value ranges and fixed points"):
        for n in range(2, 11):
            for alpha in ALPHAS_11:
                for i in range(101):
                    p = i / 100
                    q = linear_point(p, n, alpha)
                    if p >= 1.0 / n:
                        assert -1e-12 <= q <= 1.0 / n + 1e-12
                    if p <= 1.0 / n:
                        assert 1.0 / n - 1e-12 <= q <= 1.0 / (n - 1) + 1e-12

        all_specs = [Yager(), Uniform(), Linear(0.5), Tsallis(2.0),
                     Tsallis(0.5), Tsallis(-1.0), Involutive()]
        for n in range(2, 11):
            u = uniform_dist(n)
            for spec in all_specs:
                assert max_abs_diff(negate(spec, u), u) <= 1e-12
            assert abs(yager_point(1.0 / n, n) - 1.0 / n) <= 1e-12
            for alpha in ALPHAS_11:
                assert abs(linear_point(1.0 / n, n, alpha) - 1.0 / n) <= 1e-12
            for seed in range(10):
                d = random_dist(n, seed=seed)
                assert abs(involutive_point(1.0 / n, d) - 1.0 / n) <= 1e-12
            for spec in (Yager(), Uniform(), Linear(0.3), Tsallis(2.0),
                         Involutive()):
                assert abs(fixed_point(spec, n) - 1.0 / n) <= 1e-15


def test_criterion_7_strict_contraction():
    """Non-trivial linear negators are strictly contracting at every
    sampled value away from 1/n, and classify says so; the constant
    negator is contracting but never strictly (its second image sits on
    the bracket edge)."""
    with criterion("7 strict contraction for non-trivial linear"):
        for alpha in (0.0, 0.25, 0.5, 0.75):
            for n in range(3, 11):
                rng = random.Random(2000 + n)
                points = [i / 100 for i in range(101)]
                points += [rng.random() for _ in range(50)]
                for p in points:
                    if abs(p - 1.0 / n) <= 1e-9:
                        continue
                    q = linear_point(p, n, alpha)
                    v = _reference_point_verdict(p, q, linear_point(q, n, alpha), n)
                    assert v.strictly_contracting, (alpha, n, p)
                report = classify(Linear(alpha), n, samples=1, seed=0)
                assert report.verdict is Verdict.STRICTLY_CONTRACTING

        for n in (2, 4, 7):
            report = classify(Uniform(), n, samples=100, seed=42)
            assert report.verdict is Verdict.CONTRACTING
        v = _reference_point_verdict(0.9, 0.25, 0.25, 4)
        assert v.contracting and not v.strictly_contracting


def test_criterion_8_entropy_limit():
    """Along linear-negator orbits with |factor| < 1, entropy follows
    (n-1)/n - A^(2k) * sum((p_i - 1/n)^2) to 1e-12, increases strictly
    while the predicted increment exceeds float noise, and ends within
    1e-9 of the maximum (n-1)/n."""
    with criterion("8 entropy increases to its maximum"):
        cases = []
        for n in (2, 3, 5, 8):
            for alpha in (0.1, 0.5, 0.9, 1.0):
                cases.append((n, alpha))
            if n >= 3:
                cases.append((n, 0.0))
        for n, alpha in cases:
            a = contraction_factor(n, alpha)
            assert abs(a) < 1.0
            for seed in (1, 2):
                d = random_dist(n, seed=17 * n + seed)
                spread = math.fsum((v - 1.0 / n) ** 2 for v in d)
                trace = iterate(Linear(alpha), d, 120)
                for step in trace.steps:
                    predicted = (n - 1) / n - a ** (2 * step.k) * spread
                    assert abs(step.entropy - predicted) <= 1e-12
                for step, nxt in zip(trace.steps, trace.steps[1:]):
                    increment = a ** (2 * step.k) * (1 - a * a) * spread
                    if increment > 1e-13:
                        assert nxt.entropy > step.entropy
                assert abs(trace.last.entropy - (n - 1) / n) <= 1e-9
                assert abs(entropy(trace.last.dist) - (n - 1) / n) <= 1e-9
