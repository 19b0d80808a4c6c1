"""Distribution construction, validation, entropy, and distance."""

import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdnegate
from pdnegate import (
    Dist,
    DomainError,
    Involutive,
    LengthError,
    LengthMismatchError,
    RangeError,
    SimplexError,
    SumError,
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
    parse_dist,
    point_dist,
    random_dist,
    uniform_dist,
)

from bitdump import near_complement, outcome
from conftest import EXAMPLE, WIDE_SPECS, all_specs, assert_like_constructed, dists, wide_inputs

TOL_SIMPLEX = 1e-9  # the one sum tolerance of validation


class TestMakeDist:
    def test_valid(self):
        assert EXAMPLE.values == (0.1, 0.2, 0.15, 0.3, 0.25)
        assert EXAMPLE.n == 5
        assert len(EXAMPLE) == 5
        assert EXAMPLE[3] == 0.3
        assert tuple(EXAMPLE) == EXAMPLE.values

    @pytest.mark.parametrize(
        "values, position",
        [
            ([math.nan, 0.5, 0.5], 1),
            ([0.5, math.nan, 0.5], 2),
            ([0.5, 0.5, math.nan], 3),
            ([0.5, math.inf, 0.5], 2),
            ([0.5, 0.5, -math.inf], 3),
            ([0.5, math.inf, -math.inf], 2),
            # Two values out of range: the first is named.
            ([0.5, 1.5, -0.2, 0.2], 2),
            ([0.2, -0.2, 1.5, 0.5], 2),
            ([-0.1, 1.1], 1),
            ([1.5, -0.5], 1),
            ([math.nan, 1.0], 1),
            # Past the largest float, where float() overflows; strings still
            # coerce, and an iterator is read once.
            ([10**400, 0.0], 1),
            ([Fraction(10**400), 0.0], 1),
            ([0.5, Fraction(-10**400)], 2),
            (["0.5", 10**400], 2),
            (iter([10**400, 0.0]), 1),
        ],
    )
    def test_range_error_names_first_bad_position(self, values, position):
        with pytest.raises(RangeError, match=f"at position {position} outside"):
            make_dist(values)

    def test_no_tolerance_setting(self):
        """Both tolerances are fixed: the package exports no tolerance, and
        neither the constructors nor the property checks take one."""
        assert not hasattr(pdnegate, "Tolerance")
        assert not hasattr(pdnegate, "DEFAULT_TOLERANCE")
        with pytest.raises(TypeError):
            make_dist([0.5, 0.5 + 5e-7], 1e-6)
        with pytest.raises(TypeError):
            parse_dist("0.5,0.5000005", 1e-6)
        d = make_dist([0.3, 0.7])
        with pytest.raises(TypeError):
            converge(Yager(), d, tol=1e-6)
        with pytest.raises(TypeError):
            classify(Yager(), 3, 5, 0, tol=1e-6)
        with pytest.raises(TypeError):
            check_involution(Yager(), d, tol=1e-6)
        with pytest.raises(TypeError):
            fixed_point(Yager(), 3, tol=1e-6)

    @given(dists())
    def test_generated_dists_are_valid(self, d):
        assert isinstance(d, Dist)
        assert all(0.0 <= v <= 1.0 for v in d)
        assert abs(math.fsum(d) - 1.0) <= TOL_SIMPLEX


def _reference_make_dist(values):
    """The plain validator: coerce, check each value's range, decide the
    sum with fsum alone, then store a -0.0 as 0.0 and record the extremes
    itself, so that encoding its result runs no library check."""
    vals = tuple(float(v) for v in values)
    if len(vals) < 2:
        raise LengthError(f"need at least 2 values, got {len(vals)}")
    for i, v in enumerate(vals):
        if not 0.0 <= v <= 1.0:
            raise RangeError(f"value {v!r} at position {i + 1} outside [0, 1]")
    if not abs(math.fsum(vals) - 1.0) <= TOL_SIMPLEX:
        raise SumError(f"values sum to {math.fsum(vals)!r}, not 1 within {TOL_SIMPLEX}")
    d = Dist(tuple(v + 0.0 for v in vals))
    vars(d).update(_lo=min(d.values), _hi=max(d.values))
    return d


def _same_decision(values):
    """Whether ``make_dist`` and the reference give the same ``Dist`` or
    the same ``SimplexError``; any other error fails the test."""
    ours = outcome(make_dist, values, errors=SimplexError)
    return ours == outcome(_reference_make_dist, values, errors=SimplexError)


@st.composite
def near_edge_values(draw):
    """Values whose sum lies within a few ulps of 1 - TOL_SIMPLEX or
    1 + TOL_SIMPLEX, or just inside by about the fast sum test's margin of
    n ulps, with now and then one value out of range, NaN or infinite."""
    n = draw(
        st.one_of(
            st.integers(2, 20), st.integers(2, 10_000), st.sampled_from([1000, 10_000])
        )
    )
    side = draw(st.sampled_from([-1.0, 1.0]))
    inside = draw(st.sampled_from([0, n, 2 * n]))
    offset = (draw(st.integers(-8, 8)) - inside) * 2**-52
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    target = 1.0 + side * (TOL_SIMPLEX + offset)
    # Equal weights make the plain sum's rounding errors pile up in one
    # direction, so it strays from fsum by a number of ulps growing with n.
    power = draw(st.sampled_from([0, 1, 4]))
    weights = [(1e-3 + rng.random()) ** power for _ in range(n)]
    total = math.fsum(weights)
    values = [w / total * target for w in weights]
    values[-1] = target - math.fsum(values[:-1])
    for _ in range(draw(st.integers(0, 3))):
        i = rng.randrange(n)
        values[i] = math.nextafter(values[i], rng.choice((0.0, 1.0)))
    if draw(st.integers(0, 7)) == 0:
        bad = [math.nan, math.inf, -math.inf, -5e-324, 1.0 + 2**-52]
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(bad))
    return values


class TestSameDecisions:
    """make_dist accepts a plain sum only well inside the tolerance and
    lets fsum decide the rest; its results, errors and messages must be
    those of the fsum-only validator."""

    @given(near_edge_values())
    @settings(max_examples=500, deadline=None)
    def test_near_edge_sums(self, values):
        assert _same_decision(values)

    @pytest.mark.parametrize(
        "values",
        [[], [1.0], [0.5, 0.6], [1.0, 2e-9], [-0.0, 1.0], [0, 1], ["0.5", "0.5"], [0.2, 0.2]],
    )
    def test_short_rejected_and_coerced_inputs(self, values):
        assert _same_decision(values)


def _reference_measures(a, b):
    u = 1.0 / a.n
    return (
        math.fsum((1.0 - v) * v for v in a),
        max(abs(v - u) for v in a),
        max(abs(x - y) for x, y in zip(a, b)),
    )


def _measures_bits(a, b):
    """The measures and their references as hex strings, so that equal
    also means the same sign of zero."""
    got = (entropy(a), linf_to_uniform(a), max_abs_diff(a, b))
    return [v.hex() for v in got], [v.hex() for v in _reference_measures(a, b)]


class TestMeasuresExact:
    """entropy, linf_to_uniform and max_abs_diff give the bits of their
    generator-expression definitions."""

    @pytest.mark.parametrize("n", [2, 3, 5, 100, 10_000])
    def test_random_point_and_uniform(self, n):
        sample = [random_dist(n, seed=s) for s in range(3)]
        sample += [point_dist(n, 1), point_dist(n, n), uniform_dist(n)]
        for a in sample:
            for b in sample:
                got, want = _measures_bits(a, b)
                assert got == want

    @given(dists(max_n=30), dists(max_n=30))
    def test_generated(self, a, b):
        if a.n != b.n:
            b = uniform_dist(a.n)
        got, want = _measures_bits(a, b)
        assert got == want


class TestFactories:
    def test_uniform(self):
        assert uniform_dist(4).values == (0.25, 0.25, 0.25, 0.25)

    def test_point(self):
        assert point_dist(3, 1).values == (1.0, 0.0, 0.0)
        assert point_dist(3, 3).values == (0.0, 0.0, 1.0)

    def test_point_index_is_one_based(self):
        for i in (4, 0, 10**5000, 1.5, 2.0):  # 10**5000 has too many digits to format
            with pytest.raises(IndexError):
                point_dist(3, i)


# One row per public function and count argument: the call with that count
# as its only argument, the count's name, and the least value it may take.
COUNTS = [
    pytest.param(uniform_dist, "n", 2, id="uniform_dist.n"),
    pytest.param(lambda n: point_dist(n, 1), "n", 2, id="point_dist.n"),
    pytest.param(lambda n: random_dist(n, seed=0), "n", 2, id="random_dist.n"),
    pytest.param(lambda n: contraction_factor(n, 0.5), "n", 2, id="contraction_factor.n"),
    pytest.param(lambda n: fixed_point(Yager(), n), "n", 2, id="fixed_point.n"),
    pytest.param(lambda n: classify(Yager(), n, 10, seed=0), "n", 2, id="classify.n"),
    pytest.param(
        lambda samples: classify(Yager(), 3, samples, seed=0), "samples", 1, id="classify.samples"
    ),
    pytest.param(lambda steps: iterate(Yager(), EXAMPLE, steps), "steps", 0, id="iterate.steps"),
    pytest.param(lambda n: linear_power_point(0.5, n, 0.5, 1), "n", 2, id="linear_power_point.n"),
    pytest.param(lambda k: linear_power_point(0.5, 3, 0.5, k), "k", 0, id="linear_power_point.k"),
    pytest.param(
        lambda max_iter: converge(Yager(), EXAMPLE, max_iter=max_iter), "max_iter", 1,
        id="converge.max_iter",
    ),
]


@pytest.mark.parametrize("call, name, least", COUNTS)
def test_count_rule(call, name, least):
    """Every count is an int in [least, the largest float], or the call
    raises DomainError. No message formats the count: -10**5000 has too
    many digits for str()."""
    below, not_int = f"{name} must be >= {least}", f"{name} must be an integer"
    for bad, message in [
        (least - 1, below),
        (-10**5000, below),
        (math.nan, not_int),
        (math.inf, not_int),
        (2.5, not_int),
        (3.0, not_int),
        (Fraction(5, 2), not_int),
        (10**400, f"{name} must be at most the largest float"),
    ]:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(bad)


class TestStats:
    """The recorded max and min, and their sum mp, which the involutive
    family reads."""

    @given(dists())
    def test_denominator_positivity(self, d):
        """n*MP - 1 > 0 for every valid distribution, and so is the sum of
        the involutive numerators MP - p_i that negate divides by.

        max(P) >= 1/n always; equality forces the uniform distribution,
        where MP = 2/n. Either way n*MP exceeds 1.
        """
        mp = d._hi + d._lo
        assert d.n * mp - 1.0 > 0.0
        assert math.fsum([mp - p for p in d]) > 0.0


class TestComparison:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            max_abs_diff(uniform_dist(2), uniform_dist(3))


class TestTextFormat:
    def test_parse(self):
        assert parse_dist("0.1,0.2,0.15,0.3,0.25") == EXAMPLE
        assert parse_dist(" 0.5 , 0.5 ").values == (0.5, 0.5)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_dist("0.5,abc")
        with pytest.raises(SumError):
            parse_dist("0.5,0.6")
        with pytest.raises(LengthError):
            parse_dist("1.0")

    @given(dists())
    def test_round_trip(self, d):
        assert parse_dist(",".join(map(repr, d))).values == d.values


class TestNegativeZero:
    """make_dist stores a -0.0 input as 0.0, so nothing downstream (the
    recorded min, the CLI's echo of a start) sees the sign."""

    @pytest.mark.parametrize("values", [[-0.0, 1.0], [0.5, -0.0, 0.5], [0.0, -0.0, 1.0]])
    def test_stored_as_plus_zero(self, values):
        d = make_dist(values)
        assert [v.hex() for v in d] == [(v + 0.0).hex() for v in values]
        assert math.copysign(1.0, d._lo) == 1.0


class TestRecordedExtremes:
    """Every Dist the library builds carries min(values) and max(values),
    recorded at validation, bit for bit as a Dist built directly records
    them at its first read of _lo; negate derives its output's from its
    input's for every family but tsallis."""

    @given(all_specs(include_negative_k=True), dists())
    # A sum an ulp off 1, whose involutive output is the vertex (1, 0, 0):
    # its 1 is the zero entry's numerator over the numerators' sum.
    @example(Involutive(), near_complement(3, 1))
    @settings(max_examples=300)
    def test_negate_output(self, spec, d):
        assert_like_constructed(spec, d)

    @pytest.mark.parametrize("name", ["dirichlet", "zeros", "point", "near_complement"])
    def test_negate_output_wide(self, name):
        for spec in WIDE_SPECS:
            assert_like_constructed(spec, wide_inputs()[name])

    @pytest.mark.parametrize("n", [2, 3, 5, 100, 10_000])
    def test_factories(self, n):
        factories = [random_dist(n, seed=n), uniform_dist(n), point_dist(n, 1), point_dist(n, n)]
        for d in factories + [make_dist([-0.0] * (n - 1) + [1.0])]:
            assert_like_constructed(Yager(), d)

    @pytest.mark.parametrize(
        "values",
        [(), (0.5,), (0.7, 0.3), (1.5, -0.5), (math.nan, 1.0), (0, 1), ("a", "b"), (-0.0, 1.0)],
    )
    def test_direct_construction(self, values):
        d = Dist(values)
        assert d.values == values
        assert repr(d) == f"Dist(values={values!r})"
        assert d == Dist(values) and hash(d) == hash(Dist(values))

    def test_direct_construction_measures(self):
        d = Dist((0.25, 0.75))
        assert (d._lo, d._hi) == (0.25, 0.75)
        assert linf_to_uniform(d) == 0.25

    def test_replace_recomputes(self):
        d = make_dist([0.2, 0.8])
        e = dataclasses.replace(d, values=(0.875, 0.125))
        assert "_lo" not in vars(e) and "_hi" not in vars(e)
        assert (e._lo, e._hi) == (0.125, 0.875)
        assert linf_to_uniform(e) == 0.375
        assert (d._lo, d._hi) == (0.2, 0.8)

    @given(dists())
    def test_eq_hash_repr_see_only_values(self, d):
        bare = Dist(d.values)
        assert d == bare and hash(d) == hash(bare) and repr(d) == repr(bare)
        assert [f.name for f in dataclasses.fields(Dist)] == ["values"]
        assert dataclasses.asdict(d) == {"values": d.values}
