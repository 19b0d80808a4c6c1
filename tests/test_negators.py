"""Negator families: single-step values, axioms, syntax."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdnegate import (
    Dist,
    DomainError,
    Involutive,
    Linear,
    NegatorSyntaxError,
    RangeError,
    SimplexError,
    SumError,
    Tsallis,
    Uniform,
    Yager,
    converge,
    entropy,
    format_negator,
    iterate,
    linf_to_uniform,
    make_dist,
    max_abs_diff,
    negate,
    parse_negator,
    point_dist,
    random_dist,
    uniform_dist,
)

from pdnegate import negators
from pdnegate.negators import _SPEC_SYNTAX

from bitdump import near_complement
from conftest import ALPHA_GRID, EXAMPLE, NON_SPECS, all_specs, dists, positive_dists
from oracles import (
    exact_negate,
    involutive_point,
    linear_point,
    negation_axioms_check,
    yager_point,
)

# Every family's outputs lie within this of their exact values. The
# largest errors are tsallis's pow numerators at |k| = 2**-4, about 1.3e-15;
# elsewhere they are a few ulps of 1, about 2e-16.
EXACT_BOUND = 2e-15


def assert_near_exact(spec, d):
    """``negate(spec, d)`` within ``EXACT_BOUND`` of ``exact_negate``, or a
    ``DomainError`` exactly where the exact values cannot be an output."""
    exact = exact_negate(spec, d)
    if exact is None:
        with pytest.raises(DomainError):
            negate(spec, d)
        return
    q = negate(spec, d)
    assert max(abs(Fraction(v) - x) for v, x in zip(q, exact)) <= EXACT_BOUND


class TestSpecValidation:
    def test_linear_alpha_domain(self):
        Linear(0.0)
        Linear(1.0)
        for alpha in (-0.01, 1.01, 10**5000, -10**5000):  # too many digits to format
            with pytest.raises(DomainError):
                Linear(alpha)

    def test_tsallis_k_domain(self):
        Tsallis(2.0)
        Tsallis(-1.0)
        # Past the largest float an int has no float value; -10**5000 has
        # too many digits to format.
        for k in (0.0, math.nan, math.inf, -math.inf, 10**400, -10**5000):
            with pytest.raises(DomainError):
                Tsallis(k)

    def test_tsallis_vanishing_denominator(self):
        # With k subnormal the numerators, and so their sum, are subnormal:
        # a few bits each, never an output.
        d = make_dist([0.2, 0.3, 0.5])
        for k in (1e-320, -1e-320):
            with pytest.raises(DomainError, match="numerators that sum to"):
                negate(Tsallis(k), d)
        # Every p**k rounds to 1, yet the numerators are normal floats.
        assert_near_exact(Tsallis(-1e-300), d)

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


def _invalid_values():
    """Value tuples that make_dist rejects: too short, holding a value
    outside [0, 1], or off-sum."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    outside = st.floats().filter(lambda v: not 0.0 <= v <= 1.0)
    return st.one_of(
        st.lists(unit, max_size=1),
        st.tuples(st.lists(unit, min_size=1, max_size=5), outside).map(
            lambda t: [*t[0], t[1]]
        ),
        st.lists(unit, min_size=2, max_size=6).filter(
            lambda v: abs(math.fsum(v) - 1.0) > 1e-8
        ),
    ).map(tuple)


class TestInvalidHandBuiltDist:
    """A Dist built directly is validated on its first read: an invalid
    one raises the SimplexError that make_dist would, and is never
    negated or measured."""

    @given(spec=all_specs(include_negative_k=True), values=_invalid_values())
    @settings(max_examples=300, deadline=None)
    # Untyped pow and log errors, then silent renormalization, before the
    # validation on first read.
    @example(spec=Tsallis(0.5), values=(-0.5, 1.5))
    @example(spec=Tsallis(0.01), values=(-0.5, 1.5))
    @example(spec=Involutive(), values=(0.5, 0.6))
    @example(spec=Tsallis(2.0), values=(0.5, 0.6))
    # Unchecked, entropy would return -4.0 and 0.25 for these.
    @example(spec=Yager(), values=(2.0, -1.0))
    @example(spec=Yager(), values=(0.5,))
    # Too short for any family's arithmetic to run.
    @example(spec=Tsallis(-1.0), values=())
    @example(spec=Involutive(), values=(1.0,))
    def test_raises_simplex_error(self, spec, values):
        with pytest.raises(SimplexError) as rejected:
            make_dist(values)
        for call in (
            lambda d: negate(spec, d),
            lambda d: converge(spec, d),
            lambda d: iterate(spec, d, 1),
            linf_to_uniform,
            lambda d: max_abs_diff(d, d),
            entropy,
        ):
            with pytest.raises(type(rejected.value)):
                call(Dist(values))

    def test_hand_built_zero_dist_raises_sum_error(self):
        # sum(mp - p_j) > 0 for every valid Dist (TestStats in
        # test_simplex.py); a hand-built Dist that is not valid is rejected
        # as make_dist would reject its values, before any arithmetic.
        with pytest.raises(SumError, match="sum to 0.0"):
            negate(Involutive(), Dist((0.0, 0.0)))


# |k| on both sides of the pow/expm1 threshold 2**-4 in negate's tsallis
# kernel, with both signs.
_SMALL_KS = [
    s * k
    for k in (1e-15, 1e-10, 1e-8, 1e-4, 1e-2, 2**-5, math.nextafter(2**-4, 0.0), 2**-4, 0.1)
    for s in (1.0, -1.0)
]


class TestExactOracle:
    """Every family's outputs against their exact values, computed by
    ``oracles.exact_negate`` in rational or 60-digit decimal arithmetic."""

    @given(all_specs(include_negative_k=True), dists())
    # Tiny k and the n = 10 000 near-complement, which the n - sum(p**k)
    # and n*mp - 1 denominators pushed out of the simplex.
    @example(Tsallis(1e-15), make_dist([0.2, 0.3, 0.5]))
    @example(Tsallis(-1e-8), make_dist([0.2, 0.3, 0.5]))
    @example(Involutive(), near_complement(10_000, 2))
    @settings(max_examples=300, deadline=None)
    def test_every_family(self, spec, d):
        assert_near_exact(spec, d)

    @pytest.mark.parametrize("k", _SMALL_KS, ids=repr)
    @given(d=dists())
    @settings(max_examples=40)
    def test_tsallis_small_k(self, k, d):
        assert_near_exact(Tsallis(k), d)


class TestFailedNegation:
    """An input whose negation fails validation is a domain error, not
    malformed input. Tsallis at tiny k and the involutive family next to a
    vertex, each a non-negative numerator over the numerators' sum, stay
    inside [0, 1] and sum to 1."""

    def test_tsallis_tiny_k_sum(self):
        d = make_dist([0.2, 0.3, 0.5])
        for k in (1e-8, -1e-8, 1e-10, 1e-15, -1e-15):
            assert abs(math.fsum(negate(Tsallis(k), d)) - 1.0) <= 1e-15
            assert_near_exact(Tsallis(k), d)

    def test_involutive_near_complement_is_vertex(self):
        # m one and two ulps below 1/9999: sum(mp - p_j) is exactly the
        # numerator of the zero entry, which maps to exactly 1.
        for ulps in (1, 2):
            assert negate(Involutive(), near_complement(10_000, ulps)).values == (
                (1.0,) + (0.0,) * 9999
            )

    @pytest.mark.parametrize("error", [SumError, RangeError])
    def test_rejected_output_is_domain_error(self, monkeypatch, error):
        # No family's output is known to fail validation, so the validator
        # is made to reject one.
        def reject(values, lo, hi):
            raise error("off the simplex")

        monkeypatch.setattr(negators, "_accepted", reject)
        with pytest.raises(DomainError, match="^negated output fails validation: off the") as info:
            negate(Yager(), make_dist([0.2, 0.8]))
        assert type(info.value.__cause__) is error


class TestNegateExamples:
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

    @NON_SPECS
    def test_non_spec_rejected(self, non_spec):
        with pytest.raises(TypeError, match="^not a negator spec: "):
            negate(non_spec, EXAMPLE)
        with pytest.raises(TypeError, match="^not a negator spec: "):
            format_negator(non_spec)


def _pointwise(spec, d):
    n = d.n
    match spec:
        case Yager():
            return tuple(yager_point(p, n) for p in d)
        case Linear(alpha=alpha):
            return tuple(linear_point(p, n, alpha) for p in d)
        case Involutive():
            return tuple(involutive_point(p, d) for p in d)


KERNEL_SPECS = st.one_of(
    st.just(Yager()), st.sampled_from(ALPHA_GRID).map(Linear), st.just(Involutive())
)


class TestKernelMatchesPointwise:
    """negate's per-family loops repeat the oracles' pointwise arithmetic,
    so their outputs must agree exactly, not just approximately."""

    @given(KERNEL_SPECS, dists(min_n=2, max_n=50))
    @settings(max_examples=300)
    def test_bit_identical(self, spec, d):
        assert negate(spec, d).values == _pointwise(spec, d)

    def test_bit_identical_wide(self):
        d = random_dist(10_000, seed=7)
        for spec in (Yager(), Linear(0.25), Involutive()):
            assert negate(spec, d).values == _pointwise(spec, d)

    def test_vertex_after_two_steps(self):
        # The first step's values are three roundings of 1/3, whose exact
        # sum is not 1; n*mp - 1 would carry that into an output an ulp
        # past 1, the sum of the numerators does not.
        q = negate(Involutive(), point_dist(4, 4))
        assert sum(map(Fraction, q)) != 1
        assert negate(Involutive(), q).values == (0.0, 0.0, 0.0, 1.0)
        assert _pointwise(Involutive(), q) == (0.0, 0.0, 0.0, 1.0)


class TestNegationAxioms:
    @given(all_specs(), dists(min_n=2, max_n=8))
    @settings(max_examples=300)
    # Inputs 1e-9 apart: tsallis k < 1 maps them far more than TOL_EQ apart.
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


class TestTsallisReductions:
    @given(dists(min_n=2, max_n=8))
    @settings(max_examples=200)
    def test_k1_equals_yager(self, d):
        a = negate(Tsallis(1.0), d)
        b = negate(Yager(), d)
        assert max_abs_diff(a, b) <= 1e-12

    def test_involutive_equals_yager_when_mp_is_one(self):
        d = point_dist(4, 2)
        assert d._hi + d._lo == 1.0
        assert negate(Involutive(), d).values == negate(Yager(), d).values


class TestInvolutiveStructure:
    @given(positive_dists(min_n=2, max_n=10))
    @settings(max_examples=300)
    def test_stats_rewriting(self, d):
        """Negation maps max to max/(n*MP-1), min to min/(n*MP-1), and
        MP to MP/(n*MP-1)."""
        mp = d._hi + d._lo
        q = negate(Involutive(), d)
        denom = d.n * mp - 1.0
        assert abs(q._hi - d._hi / denom) <= 1e-12
        assert abs(q._lo - d._lo / denom) <= 1e-12
        assert abs(q._hi + q._lo - mp / denom) <= 1e-12

    @given(dists(min_n=2, max_n=8))
    @settings(max_examples=200)
    def test_sign_pattern(self, d):
        """Values below 1/n negate to above 1/n and vice versa."""
        n = d.n
        for p, q in zip(d, negate(Involutive(), d)):
            if p < 1.0 / n - 1e-12:
                assert q > 1.0 / n - 1e-12
            if p > 1.0 / n + 1e-12:
                assert q < 1.0 / n + 1e-12

    def test_unique_fixed_value_by_scanning(self):
        """N(p) - p changes sign only at 1/n, for many sampled contexts."""
        for seed in range(40):
            d = random_dist(5, seed=seed)
            lo, hi = d._lo, d._hi
            prev_sign = None
            crossings = 0
            for i in range(201):
                p = lo + (hi - lo) * i / 200
                diff = involutive_point(p, d) - p
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
        class Half(float):
            def __repr__(self):
                return "Half()"

        # A parameter that is a bool, an int or a float subclass is written
        # as the float it equals, which is what parse_negator reads.
        for spec in (Yager(), Uniform(), Linear(0.25), Tsallis(2.0), Involutive(),
                     Linear(True), Tsallis(2), Linear(Half(0.5))):
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
