"""Negator families: single-step values, axioms, parameterizations."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdnegate import (
    DegenerateStatsError,
    Dist,
    DistStats,
    DomainError,
    Involutive,
    LengthError,
    Linear,
    LeftDomain,
    NegatorSyntaxError,
    RangeError,
    Tsallis,
    Uniform,
    Yager,
    converge,
    format_negator,
    involutive_point,
    linear_point,
    make_dist,
    max_abs_diff,
    negate,
    parse_negator,
    point_dist,
    random_dist,
    stats,
    uniform_dist,
)

from pdnegate.negators import _SPEC_SYNTAX

from conftest import ALPHA_GRID, all_specs, dists, positive_dists
from oracles import negation_axioms_check, yager_point

EXAMPLE = make_dist([0.1, 0.2, 0.15, 0.3, 0.25])


class TestSpecValidation:
    def test_linear_alpha_domain(self):
        Linear(0.0)
        Linear(1.0)
        with pytest.raises(DomainError):
            Linear(-0.01)
        with pytest.raises(DomainError):
            Linear(1.01)

    def test_tsallis_k_domain(self):
        Tsallis(2.0)
        Tsallis(-1.0)
        with pytest.raises(DomainError):
            Tsallis(0.0)
        with pytest.raises(DomainError):
            Tsallis(float("nan"))
        with pytest.raises(DomainError):
            Tsallis(float("inf"))
        with pytest.raises(DomainError):
            Tsallis(float("-inf"))

    def test_tsallis_vanishing_denominator(self):
        # Every p**k rounds to 1, so n - sum(p**k) is exactly 0.
        for k in (1e-320, -1e-300):
            with pytest.raises(DomainError):
                negate(Tsallis(k), make_dist([0.2, 0.3, 0.5]))

    @pytest.mark.parametrize(
        "values",
        [
            [1e-200, 1.0],  # p**k overflows
            [1e-154, 1e-154, 1.0],  # each p**k is finite, their sum is not
        ],
    )
    def test_tsallis_overflow_is_domain_error(self, values):
        with pytest.raises(DomainError):
            negate(Tsallis(-2.0), make_dist(values))


class TestShortDist:
    """Only direct construction builds a Dist of fewer than two values;
    negate rejects it before any family's arithmetic runs."""

    @pytest.mark.parametrize(
        "spec",
        [Yager(), Uniform(), Linear(0.3), Tsallis(2.0), Tsallis(-1.0), Involutive()],
        ids=repr,
    )
    @pytest.mark.parametrize("values", [(), (0.5,), (1.0,)], ids=repr)
    def test_length_error_for_every_family(self, spec, values):
        with pytest.raises(LengthError):
            negate(spec, Dist(values))


def _near_complement(n, ulps):
    """(0, m, ..., m) with m ``ulps`` ulps below 1/(n - 1)."""
    m = 1.0 / (n - 1)
    for _ in range(ulps):
        m = math.nextafter(m, 0.0)
    return make_dist([0.0] + [m] * (n - 1))


class TestFailedNegation:
    """A valid input whose negation fails validation, even after the
    boundary snap, is a domain error, not malformed input."""

    def test_tsallis_tiny_k_sum(self):
        with pytest.raises(DomainError, match="values sum to 0.96875"):
            negate(Tsallis(1e-15), make_dist([0.2, 0.3, 0.5]))

    def test_involutive_overshoot_past_snap(self):
        # Two ulps below 1/9999 the output overshoots 1 by 3e-12; one ulp
        # below, by 8e-13, which the snap repairs.
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            negate(Involutive(), _near_complement(10_000, 2))
        assert max(negate(Involutive(), _near_complement(10_000, 1))) == 1.0

    def test_converge_ends_in_left_domain(self):
        # Step 1 is valid; step 2's tsallis output sums to 0.9968.
        out = converge(Tsallis(1e-15), make_dist([0.0, 0.5, 0.5]))
        assert isinstance(out, LeftDomain)
        assert out.steps == 1
        assert out.last == negate(Tsallis(1e-15), make_dist([0.0, 0.5, 0.5]))


class TestNegateExamples:
    def test_involutive_worked_example(self):
        q = negate(Involutive(), EXAMPLE)
        want = (0.3, 0.2, 0.25, 0.1, 0.15)
        assert max(abs(a - b) for a, b in zip(q, want)) <= 1e-12

    def test_yager_point_dist(self):
        q = negate(Yager(), point_dist(5, 1))
        want = (0.0, 0.25, 0.25, 0.25, 0.25)
        assert max(abs(a - b) for a, b in zip(q, want)) <= 1e-12

    def test_uniform_is_constant(self):
        q = negate(Uniform(), make_dist([0.7, 0.1, 0.1, 0.1]))
        assert q.values == (0.25, 0.25, 0.25, 0.25)

    def test_tsallis_k2_hand_value(self):
        # denominator 3 - (0.25 + 0.09 + 0.04) = 2.62
        q = negate(Tsallis(2.0), make_dist([0.5, 0.3, 0.2]))
        want = [Fraction(75, 262), Fraction(91, 262), Fraction(96, 262)]
        assert max(abs(a - float(b)) for a, b in zip(q, want)) <= 1e-12

    def test_tsallis_negative_k_rejects_zero_entries(self):
        with pytest.raises(DomainError):
            negate(Tsallis(-1.0), point_dist(3, 1))

    def test_tsallis_negative_k_on_positive_dist(self):
        q = negate(Tsallis(-1.0), make_dist([0.5, 0.3, 0.2]))
        assert abs(math.fsum(q) - 1.0) <= 1e-9

    def test_tsallis_negative_k_gives_no_negative_zero(self):
        # p**k rounds to 1 for the first entry, which then maps to zero.
        q = negate(Tsallis(-1.0), make_dist([1 - 2**-53, 2**-53]))
        assert q.values == (0.0, 1.0)
        assert all(math.copysign(1.0, v) == 1.0 for v in q)

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError):
            negate("yager", EXAMPLE)  # type: ignore[arg-type]


def _snapped(v):
    """The documented boundary snap: excursions of at most 1e-12."""
    if -1e-12 <= v < 0.0:
        return 0.0
    if 1.0 < v <= 1.0 + 1e-12:
        return 1.0
    return v


def _pointwise(spec, d):
    n = d.n
    match spec:
        case Yager():
            return tuple(_snapped(yager_point(p, n)) for p in d)
        case Linear(alpha=alpha):
            return tuple(_snapped(linear_point(p, n, alpha)) for p in d)
        case Involutive():
            s = stats(d)
            return tuple(_snapped(involutive_point(p, s)) for p in d)


KERNEL_SPECS = st.one_of(
    st.just(Yager()), st.sampled_from(ALPHA_GRID).map(Linear), st.just(Involutive())
)


class TestKernelMatchesPointwise:
    """negate's per-family loops repeat the pointwise functions' arithmetic,
    so their outputs must agree exactly, not just approximately."""

    @given(KERNEL_SPECS, dists(min_n=2, max_n=50))
    @settings(max_examples=300)
    def test_bit_identical(self, spec, d):
        assert negate(spec, d).values == _pointwise(spec, d)

    def test_bit_identical_wide(self):
        d = random_dist(10_000, seed=7)
        for spec in (Yager(), Linear(0.25), Involutive()):
            assert negate(spec, d).values == _pointwise(spec, d)

    def test_snap_after_range_miss(self):
        # The second involutive step from a point mass overshoots 1 by an
        # ulp: validation rejects the raw output and the snap repairs it.
        q = negate(Involutive(), point_dist(4, 4))
        s = stats(q)
        raw = [involutive_point(p, s) for p in q]
        with pytest.raises(RangeError):
            make_dist(raw)
        assert negate(Involutive(), q).values == (0.0, 0.0, 0.0, 1.0)


class TestPointwiseValues:
    def test_yager_values(self):
        assert yager_point(1.0, 3) == 0.0
        assert yager_point(0.9, 5) == pytest.approx(0.025, abs=1e-15)
        for n in range(2, 8):
            assert yager_point(1.0 / n, n) == pytest.approx(1.0 / n, abs=1e-15)

    def test_linear_values(self):
        assert linear_point(0.37, 4, 1.0) == pytest.approx(0.25, abs=1e-15)
        assert linear_point(0.9, 5, 0.0) == pytest.approx(0.025, abs=1e-15)
        assert linear_point(0.0, 2, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_linear_alpha_domain(self):
        with pytest.raises(DomainError):
            linear_point(0.5, 3, 1.5)

    def test_involutive_values(self):
        s = stats(EXAMPLE)
        assert involutive_point(0.1, s) == pytest.approx(0.3, abs=1e-12)
        assert involutive_point(0.2, s) == pytest.approx(0.2, abs=1e-12)

    def test_involutive_fixes_one_over_n(self):
        for seed in range(20):
            d = random_dist(5, seed=seed)
            assert involutive_point(0.2, stats(d)) == pytest.approx(0.2, abs=1e-12)

    def test_involutive_coincides_with_yager_when_mp_is_one(self):
        s = stats(point_dist(4, 2))
        assert s.mp == 1.0
        for p in (0.0, 0.25, 0.5, 1.0):
            assert involutive_point(p, s) == pytest.approx(
                yager_point(p, 4), abs=1e-12
            )

    def test_degenerate_stats_guard(self):
        # Unreachable from valid distributions; hand-built stats only.
        bad = DistStats(max_p=0.2, min_p=0.0, mp=0.2, n=5)
        with pytest.raises(DegenerateStatsError):
            involutive_point(0.1, bad)


class TestLinearParams:
    """The paper writes a linear negator by alpha, by n1 = N(1) or by
    n0 = N(0): n1 = alpha/n, n0 = alpha/n + (1 - alpha)/(n - 1), so
    alpha = n*n1 = n*(1 - (n - 1)*n0). These check ``linear_point``'s
    values at 1 and 0 against those forms."""

    def test_alpha_zero_matches_yager(self):
        assert linear_point(1.0, 5, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert linear_point(0.0, 5, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_alpha_one_is_constant(self):
        assert linear_point(1.0, 5, 1.0) == pytest.approx(0.2, abs=1e-15)
        assert linear_point(0.0, 5, 1.0) == pytest.approx(0.2, abs=1e-15)

    def test_from_n0(self):
        alpha = 3 * (1.0 - 2 * 0.5)  # n0 = 0.5 at n = 3
        assert alpha == pytest.approx(0.0, abs=1e-15)
        assert linear_point(0.0, 3, alpha) == pytest.approx(0.5, abs=1e-15)
        assert linear_point(1.0, 3, alpha) == pytest.approx(0.0, abs=1e-15)

    def test_from_n1(self):
        alpha = 4 * 0.25  # n1 = 0.25 at n = 4
        assert alpha == pytest.approx(1.0, abs=1e-15)
        assert linear_point(1.0, 4, alpha) == pytest.approx(0.25, abs=1e-15)

    @given(dists(min_n=2, max_n=10))
    def test_consistency_identities(self, d):
        """n1 = alpha/n, n0 = alpha/n + (1-alpha)/(n-1), n1 = 1-(n-1)n0,
        and alpha comes back from n0."""
        n = d.n
        for alpha in ALPHA_GRID:
            n1 = linear_point(1.0, n, alpha)
            n0 = linear_point(0.0, n, alpha)
            assert abs(n1 - alpha / n) <= 1e-12
            assert abs(n0 - (alpha / n + (1 - alpha) / (n - 1))) <= 1e-12
            assert abs(n1 - (1 - (n - 1) * n0)) <= 1e-12
            assert abs(n * (1.0 - (n - 1) * n0) - alpha) <= 1e-9


class TestNegationAxioms:
    @given(all_specs(), dists(min_n=2, max_n=8))
    @settings(max_examples=300)
    # Inputs 1e-9 apart: tsallis k < 1 maps them far more than tol_eq apart.
    @example(Tsallis(0.5), make_dist([0.0, 1.0 - 1e-9, 1e-9]))
    def test_output_reverses_order(self, spec, d):
        """Every family's output is a valid distribution with order
        reversed: p_i <= p_j implies q_i >= q_j, ties map to ties."""
        q = negate(spec, d)
        check = negation_axioms_check(d, q)
        assert check.ok, check.violation

    @given(all_specs(include_negative_k=True), positive_dists())
    @settings(max_examples=300)
    def test_order_reversal_including_negative_k(self, spec, d):
        q = negate(spec, d)
        assert negation_axioms_check(d, q).ok

    @given(all_specs(), dists(min_n=2, max_n=10))
    @settings(max_examples=200)
    def test_uniform_distribution_is_fixed(self, spec, d):
        u = uniform_dist(d.n)
        assert max_abs_diff(negate(spec, u), u) <= 1e-12


class TestPdIndependentIdentities:
    @given(dists(min_n=2, max_n=10))
    def test_n0_from_n1(self, d):
        """N(0) = (1 - N(1))/(n-1) for the pointwise families."""
        n = d.n
        for alpha in ALPHA_GRID:
            n1 = linear_point(1.0, n, alpha)
            n0 = linear_point(0.0, n, alpha)
            assert abs(n0 - (1.0 - n1) / (n - 1)) <= 1e-12

    def test_value_ranges_on_grid(self):
        """p >= 1/n maps into [0, 1/n]; p <= 1/n maps into [1/n, 1/(n-1)]."""
        for n in range(2, 11):
            for alpha in ALPHA_GRID:
                for i in range(101):
                    p = i / 100
                    q = linear_point(p, n, alpha)
                    if p >= 1.0 / n:
                        assert -1e-12 <= q <= 1.0 / n + 1e-12
                    if p <= 1.0 / n:
                        assert 1.0 / n - 1e-12 <= q <= 1.0 / (n - 1) + 1e-12

    @given(dists(min_n=2, max_n=10))
    def test_representation_equivalence(self, d):
        """The alpha, N(1), and N(0) forms compute the same map."""
        n = d.n
        for alpha in ALPHA_GRID:
            n1 = alpha / n
            n0 = alpha / n + (1 - alpha) / (n - 1)
            for p in (0.0, 0.21, 0.5, 0.83, 1.0):
                direct = linear_point(p, n, alpha)
                via_n1 = n1 + (1 - n1 * n) * (1 - p) / (n - 1)
                via_n0 = n0 + (1 - n0 * n) * p
                assert abs(direct - via_n1) <= 1e-12
                assert abs(direct - via_n0) <= 1e-12


class TestTsallisReductions:
    @given(dists(min_n=2, max_n=8))
    @settings(max_examples=200)
    def test_k1_equals_yager(self, d):
        a = negate(Tsallis(1.0), d)
        b = negate(Yager(), d)
        assert max_abs_diff(a, b) <= 1e-12


class TestInvolutiveStructure:
    @given(positive_dists(min_n=2, max_n=10))
    @settings(max_examples=300)
    def test_stats_rewriting(self, d):
        """Negation maps max to max/(n*MP-1), min to min/(n*MP-1), and
        MP to MP/(n*MP-1)."""
        s = stats(d)
        q = negate(Involutive(), d)
        sq = stats(q)
        denom = s.n * s.mp - 1.0
        assert abs(sq.max_p - s.max_p / denom) <= 1e-12
        assert abs(sq.min_p - s.min_p / denom) <= 1e-12
        assert abs(sq.mp - s.mp / denom) <= 1e-12

    @given(dists(min_n=2, max_n=10))
    @settings(max_examples=500)
    def test_involution(self, d):
        back = negate(Involutive(), negate(Involutive(), d))
        assert max_abs_diff(d, back) <= 1e-9

    def test_point_mass_round_trip_stays_in_range(self):
        # First step lands on 1/3 thrice; the rounded sum's exact second
        # negation overshoots 1 by two ulps and must snap back.
        d = point_dist(4, 4)
        back = negate(Involutive(), negate(Involutive(), d))
        assert all(0.0 <= v <= 1.0 for v in back)
        assert max_abs_diff(d, back) <= 1e-12

    @given(dists(min_n=2, max_n=8))
    @settings(max_examples=200)
    def test_sign_pattern(self, d):
        """Values below 1/n negate to above 1/n and vice versa."""
        n = d.n
        s = stats(d)
        for p in d:
            q = involutive_point(p, s)
            if p < 1.0 / n - 1e-12:
                assert q > 1.0 / n - 1e-12
            if p > 1.0 / n + 1e-12:
                assert q < 1.0 / n + 1e-12

    def test_unique_fixed_value_by_scanning(self):
        """N(p) - p changes sign only at 1/n, for many sampled contexts."""
        for seed in range(40):
            d = random_dist(5, seed=seed)
            s = stats(d)
            lo, hi = s.min_p, s.max_p
            prev_sign = None
            crossings = 0
            for i in range(201):
                p = lo + (hi - lo) * i / 200
                diff = involutive_point(p, s) - p
                sign = 0 if abs(diff) <= 1e-15 else (1 if diff > 0 else -1)
                if prev_sign is not None and sign != 0 and prev_sign != 0:
                    if sign != prev_sign:
                        crossings += 1
                        # The crossing must straddle 1/n.
                        prev_p = lo + (hi - lo) * (i - 1) / 200
                        assert prev_p <= 0.2 <= p
                if sign != 0:
                    prev_sign = sign
            assert crossings <= 1


class TestNegatorSyntax:
    def test_parse_plain(self):
        assert parse_negator("yager") == Yager()
        assert parse_negator("uniform") == Uniform()
        assert parse_negator("involutive") == Involutive()

    def test_parse_parameterized(self):
        assert parse_negator("linear:alpha=0.5") == Linear(0.5)
        assert parse_negator("tsallis:k=-1.5") == Tsallis(-1.5)

    def test_round_trip(self):
        for spec in (Yager(), Uniform(), Linear(0.25), Tsallis(2.0), Involutive()):
            assert parse_negator(format_negator(spec)) == spec

    def test_syntax_table_round_trip(self):
        """Every form the advertised syntax lists parses, and formats back
        to the same text; together they name every family."""
        families = set()
        for entry in _SPEC_SYNTAX.split(", "):
            text = entry.replace("<float>", "0.5")
            spec = parse_negator(text)
            assert format_negator(spec) == text
            families.add(type(spec))
        assert families == {Yager, Uniform, Linear, Tsallis, Involutive}

    def test_syntax_errors(self):
        for text in (
            "unknown",
            "linear",
            "linear:beta=0.5",
            "linear:alpha=abc",
            "tsallis",
            "tsallis:k=",
            "yager:alpha=0.5",
            "",
        ):
            with pytest.raises(NegatorSyntaxError):
                parse_negator(text)

    def test_domain_errors_pass_through(self):
        with pytest.raises(DomainError):
            parse_negator("linear:alpha=2.0")
        with pytest.raises(DomainError):
            parse_negator("tsallis:k=0")
