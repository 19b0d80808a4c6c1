"""Distribution construction, validation, entropy, and distance."""

import dataclasses
import math
import random
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
    converge,
    entropy,
    fixed_point,
    linf_to_uniform,
    make_dist,
    max_abs_diff,
    negate,
    parse_dist,
    point_dist,
    random_dist,
    uniform_dist,
)

from bitdump import near_complement
from conftest import EXAMPLE, WIDE_SPECS, all_specs, dists, wide_inputs
from oracles import TOL_EQ

TOL_SIMPLEX = 1e-9  # the one sum tolerance of validation


class TestMakeDist:
    def test_valid(self):
        assert EXAMPLE.values == (0.1, 0.2, 0.15, 0.3, 0.25)
        assert EXAMPLE.n == 5
        assert len(EXAMPLE) == 5
        assert EXAMPLE[3] == 0.3
        assert tuple(EXAMPLE) == EXAMPLE.values

    def test_too_short(self):
        with pytest.raises(LengthError):
            make_dist([1.0])
        with pytest.raises(LengthError):
            make_dist([])

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            make_dist([-0.1, 1.1])
        with pytest.raises(RangeError):
            make_dist([1.5, -0.5])
        with pytest.raises(RangeError):
            make_dist([float("nan"), 1.0])

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
        ],
    )
    def test_range_error_names_first_bad_position(self, values, position):
        with pytest.raises(RangeError, match=f"at position {position} outside"):
            make_dist(values)

    def test_in_range_bad_sum_is_sum_error(self):
        with pytest.raises(SumError, match="values sum to 0.4, not 1"):
            make_dist([0.1, 0.1, 0.2])

    def test_bad_sum_is_rejected_not_repaired(self):
        """Constructors reject rather than renormalize."""
        with pytest.raises(SumError):
            make_dist([0.5, 0.6])
        with pytest.raises(SumError):
            make_dist([0.2, 0.2])

    def test_sum_tolerance(self):
        make_dist([0.5, 0.5 + 5e-10])
        with pytest.raises(SumError):
            make_dist([0.5, 0.5 + 5e-9])

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
    sum with fsum alone, then store a -0.0 as 0.0."""
    vals = tuple(float(v) for v in values)
    if len(vals) < 2:
        raise LengthError(f"need at least 2 values, got {len(vals)}")
    for i, v in enumerate(vals):
        if not 0.0 <= v <= 1.0:
            raise RangeError(f"value {v!r} at position {i + 1} outside [0, 1]")
    if not abs(math.fsum(vals) - 1.0) <= TOL_SIMPLEX:
        raise SumError(f"values sum to {math.fsum(vals)!r}, not 1 within {TOL_SIMPLEX}")
    return Dist(tuple(v + 0.0 for v in vals))


def _outcome(validate, values):
    try:
        return tuple(v.hex() for v in validate(values).values)
    except SimplexError as exc:
        return type(exc), str(exc)


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
        assert _outcome(make_dist, values) == _outcome(_reference_make_dist, values)

    @pytest.mark.parametrize(
        "values",
        [[], [1.0], [0.5, 0.6], [1.0, 2e-9], [-0.0, 1.0], [0, 1], ["0.5", "0.5"]],
    )
    def test_short_rejected_and_coerced_inputs(self, values):
        assert _outcome(make_dist, values) == _outcome(_reference_make_dist, values)


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
        with pytest.raises(DomainError):
            uniform_dist(1)
        with pytest.raises(DomainError):
            point_dist(1, 1)

    def test_point(self):
        assert point_dist(3, 1).values == (1.0, 0.0, 0.0)
        assert point_dist(3, 3).values == (0.0, 0.0, 1.0)

    def test_point_index_is_one_based(self):
        for i in (4, 0, 10**5000):  # too many digits to format
            with pytest.raises(IndexError):
                point_dist(3, i)


class TestEntropy:
    def test_point_dist_is_zero(self):
        for n in range(2, 7):
            assert entropy(point_dist(n, 1)) == 0.0

    def test_uniform_two(self):
        assert entropy(uniform_dist(2)) == pytest.approx(0.5, abs=1e-15)

    def test_example_value(self):
        # 1 - (0.01 + 0.04 + 0.0225 + 0.09 + 0.0625) = 0.775
        assert entropy(EXAMPLE) == pytest.approx(0.775, abs=1e-12)

    def test_max_entropy(self):
        """The largest entropy at length n, (n-1)/n, is the uniform one's."""
        assert entropy(uniform_dist(5)) == pytest.approx(4 / 5, abs=1e-15)
        assert entropy(uniform_dist(2)) == 1 / 2

    @given(dists())
    def test_bounds(self, d):
        """0 <= H(P) <= (n-1)/n for every valid distribution."""
        h = entropy(d)
        assert -1e-12 <= h <= (d.n - 1) / d.n + 1e-12

    @given(dists())
    def test_two_evaluation_orders_agree(self, d):
        """sum((1-p)p) and 1 - sum(p^2) are the same quantity."""
        alt = 1.0 - math.fsum(v * v for v in d)
        assert abs(entropy(d) - alt) <= 1e-12

    @given(dists())
    def test_max_only_at_uniform(self, d):
        h = entropy(d)
        if abs(h - (d.n - 1) / d.n) <= 1e-12:
            assert linf_to_uniform(d) <= 1e-5

    @given(dists())
    def test_zero_only_at_point_dists(self, d):
        if entropy(d) <= 1e-12:
            assert max(d) >= 1.0 - 1e-5


class TestLinfToUniform:
    def test_uniform_is_zero(self):
        assert linf_to_uniform(uniform_dist(4)) == 0.0

    def test_point(self):
        assert linf_to_uniform(point_dist(5, 1)) == pytest.approx(0.8, abs=1e-15)

    def test_example(self):
        assert linf_to_uniform(EXAMPLE) == pytest.approx(0.1, abs=1e-15)

    @given(dists())
    def test_zero_iff_uniform(self, d):
        if linf_to_uniform(d) <= TOL_EQ:
            assert max_abs_diff(d, uniform_dist(d.n)) <= 1e-9


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
    def test_max_abs_diff(self):
        a = make_dist([0.5, 0.5])
        b = make_dist([0.4, 0.6])
        assert max_abs_diff(a, b) == pytest.approx(0.1, abs=1e-15)

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


def _recorded(d):
    """The (min, max) the library recorded on ``d``; KeyError if it did not
    record them, so a test cannot pass on values computed on demand."""
    return vars(d)["_lo"], vars(d)["_hi"]


def _assert_recorded(d):
    lo, hi = _recorded(d)
    assert (lo.hex(), hi.hex()) == (min(d.values).hex(), max(d.values).hex())


class TestRecordedExtremes:
    """Every Dist the library builds carries min(values) and max(values),
    recorded at validation; negate derives its output's from its input's
    for every family but tsallis."""

    @given(all_specs(include_negative_k=True), dists())
    # A sum an ulp off 1, whose involutive output is the vertex (1, 0, 0):
    # its 1 is the zero entry's numerator over the numerators' sum.
    @example(Involutive(), near_complement(3, 1))
    @settings(max_examples=300)
    def test_negate_output(self, spec, d):
        _assert_recorded(d)
        try:
            q = negate(spec, d)
        except DomainError:  # tsallis k < 0 on a zero entry
            return
        _assert_recorded(q)

    @pytest.mark.parametrize("name", ["dirichlet", "zeros", "point", "near_complement"])
    def test_negate_output_wide(self, name):
        d = wide_inputs()[name]
        _assert_recorded(d)
        for spec in WIDE_SPECS:
            try:
                q = negate(spec, d)
            except DomainError:
                continue
            _assert_recorded(q)

    @pytest.mark.parametrize("n", [2, 3, 5, 100, 10_000])
    def test_factories(self, n):
        _assert_recorded(random_dist(n, seed=n))
        _assert_recorded(uniform_dist(n))
        _assert_recorded(point_dist(n, 1))
        _assert_recorded(point_dist(n, n))
        _assert_recorded(make_dist([-0.0] * (n - 1) + [1.0]))

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
        assert (d._hi, d._lo) == (0.75, 0.25)
        assert linf_to_uniform(d) == 0.25

    def test_replace_recomputes(self):
        d = make_dist([0.2, 0.8])
        e = dataclasses.replace(d, values=(0.875, 0.125))
        assert "_lo" not in vars(e) and "_hi" not in vars(e)
        assert (e._hi, e._lo) == (0.875, 0.125)
        assert linf_to_uniform(e) == 0.375
        assert (d._hi, d._lo) == (0.8, 0.2)

    @given(dists())
    def test_eq_hash_repr_see_only_values(self, d):
        bare = Dist(d.values)
        assert d == bare and hash(d) == hash(bare) and repr(d) == repr(bare)
        assert [f.name for f in dataclasses.fields(Dist)] == ["values"]
        assert dataclasses.asdict(d) == {"values": d.values}


def test_example_entropy_exact_fraction():
    """The worked distribution's entropy is exactly 31/40."""
    p = [Fraction(1, 10), Fraction(1, 5), Fraction(3, 20), Fraction(3, 10), Fraction(1, 4)]
    h = 1 - sum(x * x for x in p)
    assert h == Fraction(31, 40)
    assert entropy(EXAMPLE) == pytest.approx(float(h), abs=1e-12)
