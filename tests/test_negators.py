"""Negator families: single-step values, axioms, syntax."""

import math
import re
import sys
from decimal import Decimal
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
    classify,
    contraction_factor,
    converge,
    entropy,
    format_negator,
    iterate,
    linear_power_point,
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
    EXACT_BOUND,
    exact_negate,
    involutive_point,
    linear_point,
    negation_axioms_check,
    yager_point,
)


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


# Each real parameter's rule, and the seed's: its DomainError message, values
# outside it, and pairs of values inside it that act alike, read as one float or int.
RULES = {
    "alpha": (
        "alpha must be in [0, 1]",
        [-0.1, -0.01, 1.01, 2.0, 10**5000, -10**5000, math.nan, Decimal("NaN"), Decimal("sNaN"),
         "0.5"],
        [(0, 0.0), (True, 1.0), (Decimal("0.5"), 0.5)],
    ),
    "k": (
        "k must be a finite nonzero number within the float range",
        # 10**400 has no float and Decimal("1e-400")'s is 0.0; the largest float's
        # successor int rounds to it, as math reads it.
        [0.0, math.nan, math.inf, -math.inf, 10**400, -10**5000, Decimal("1e-400"),
         Decimal("NaN"), Decimal("sNaN"), "2"],
        [(-1, -1.0), (Decimal("2"), 2.0), (int(sys.float_info.max) + 1, sys.float_info.max)],
    ),
    "eps": (
        "eps must be > 0",
        [0.0, math.nan, -10**5000, Decimal("1e-400"), Decimal("NaN"), "1e-9"],
        [(Decimal("1e-9"), 1e-9)],
    ),
    "seed": (
        "seed must be an integer",
        [None, math.nan, 2.5, 3.0, Fraction(5, 2), "1"],
        [(True, 1)],
    ),
}


def assert_parameter_rule(call, rule):
    """``call`` with a value outside its rule raises DomainError, even a value
    that math cannot read as a float, such as a str, and one whose str()
    raises, as -10**5000's. A Decimal alpha or k is stored as its float."""
    message, outside, alike = RULES[rule]
    for bad in outside:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(bad)
    for value, same in alike:
        assert repr(call(value)) == repr(call(same))


# One row per public function and parameter that a rule governs, but the
# spec classes' own, which TestSpecValidation checks: the call with that
# parameter as its only argument, and the rule. Yager checks the seed that
# only tsallis and involutive read.
PARAMETERS = [
    pytest.param(lambda alpha: contraction_factor(3, alpha), "alpha", id="contraction_factor.alpha"),
    pytest.param(
        lambda alpha: linear_power_point(0.3, 3, alpha, 2), "alpha", id="linear_power_point.alpha"
    ),
    pytest.param(lambda eps: converge(Yager(), EXAMPLE, eps=eps), "eps", id="converge.eps"),
    pytest.param(
        lambda seed: (classify(Yager(), 3, 10, seed), classify(Tsallis(-0.5), 3, 5, seed)),
        "seed",
        id="classify.seed",
    ),
    pytest.param(lambda seed: random_dist(3, seed), "seed", id="random_dist.seed"),
]


@pytest.mark.parametrize("call, rule", PARAMETERS)
def test_parameter_rule(call, rule):
    assert_parameter_rule(call, rule)


class TestSpecValidation:
    def test_linear_alpha_domain(self):
        assert_parameter_rule(Linear, "alpha")

    def test_tsallis_k_domain(self):
        assert_parameter_rule(Tsallis, "k")

    @pytest.mark.parametrize(
        "spec, same",
        [(Linear(Decimal("0.5")), Linear(0.5)), (Tsallis(Decimal("2")), Tsallis(2.0))],
        ids=repr,
    )
    def test_parameter_stored_as_float(self, spec, same):
        # Kept as a Decimal, it would pass the domain check, then make the
        # kernel's float arithmetic raise an untyped TypeError.
        assert negate(spec, EXAMPLE).values == negate(same, EXAMPLE).values

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
    # Past the largest float: float() overflows, and str() would raise.
    @example(spec=Yager(), values=(10**5000, 0.0))
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
    # Hand values: yager's (0, 1/4, 1/4, 1/4, 1/4) and tsallis k = 2's
    # (75, 91, 96)/262; tsallis k < 0 on a positive start, and on a zero
    # entry, where it raises DomainError.
    @example(Yager(), point_dist(5, 1))
    @example(Tsallis(2.0), make_dist([0.5, 0.3, 0.2]))
    @example(Tsallis(-1.0), make_dist([0.5, 0.3, 0.2]))
    @example(Tsallis(-1.0), point_dist(3, 1))
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

    def test_negate_makes_no_closure_cells(self):
        # Each family's comprehensions live in its own kernel. Before 3.12,
        # every name a comprehension reads from negate would be a cell made
        # on each call; from 3.12 comprehensions are inlined (PEP 709).
        assert negate.__code__.co_cellvars == ()

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
