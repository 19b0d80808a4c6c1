"""Iterated negation: orbits, closed forms, convergence detection."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdnegate import (
    Converged,
    DomainError,
    Involutive,
    LeftDomain,
    Linear,
    MaxIterReached,
    Oscillating,
    Tsallis,
    Uniform,
    Yager,
    contraction_factor,
    converge,
    entropy,
    iterate,
    linear_power_point,
    linf_to_uniform,
    make_dist,
    max_abs_diff,
    negate,
    orbit_csv,
    point_dist,
    random_dist,
    uniform_dist,
)

from conftest import EXAMPLE, NON_SPECS, all_specs, dists, positive_dists


class TestIterate:
    def test_uniform_spec_constant_after_one_step(self):
        d = make_dist([0.7, 0.2, 0.1])
        tr = iterate(Uniform(), d, 3)
        assert tr.steps[0].dist.values == d.values
        for step in tr.steps[1:]:
            assert step.dist.values == uniform_dist(3).values

    @NON_SPECS
    def test_rejects_non_spec_at_zero_steps(self, non_spec):
        with pytest.raises(TypeError, match="^not a negator spec: "):
            iterate(non_spec, make_dist([0.2, 0.8]), 0)

    def test_zero_steps(self):
        tr = iterate(Yager(), EXAMPLE, 0)
        assert len(tr) == 1
        assert tr.last.dist.values == EXAMPLE.values

    @given(all_specs(), dists(min_n=2, max_n=8))
    @settings(max_examples=150)
    def test_trace_structure(self, spec, d):
        """steps[k+1] is the negation of steps[k]; the entropy and linf
        fields equal entropy() and linf_to_uniform() of their distribution
        bit for bit; every step stays on the simplex."""
        tr = iterate(spec, d, 4)
        assert len(tr) == 5
        for k, step in enumerate(tr.steps):
            assert step.k == k
            assert abs(math.fsum(step.dist) - 1.0) <= 1e-9
            assert step.entropy == entropy(step.dist)
            assert step.linf == linf_to_uniform(step.dist)
        for prev, nxt in zip(tr.steps, tr.steps[1:]):
            assert max_abs_diff(negate(spec, prev.dist), nxt.dist) == 0.0


class TestClosedForms:
    @pytest.mark.parametrize(
        "alpha, k, value",
        [
            (0.0, 1, 0.7),
            # Past 2**53 a float k loses its parity: a**k gave 0.3 here, and
            # 0.4264, on the wrong side of 1/2, for k = 2**53 + 1 at 1e-16.
            (0.0, 2**53 + 1, 0.7),
            (1e-16, 2**53 + 1, 0.5736),
            (1e-16, 2**53 - 1, 0.5736),
        ],
    )
    def test_odd_power_flips_n2(self, alpha, k, value):
        assert linear_power_point(0.3, 2, alpha, k) == pytest.approx(value, abs=1e-4)


class TestExactRate:
    @given(dists(min_n=2, max_n=8))
    @settings(max_examples=150)
    def test_linf_scales_by_factor_power(self, d):
        """Distance to uniform after k steps is exactly |A|^k times the
        starting distance, per coordinate."""
        n = d.n
        for alpha in (0.0, 0.4, 0.8):
            a = contraction_factor(n, alpha)
            tr = iterate(Linear(alpha), d, 6)
            d0 = linf_to_uniform(d)
            for step in tr.steps:
                assert abs(step.linf - abs(a) ** step.k * d0) <= 1e-12


class TestConverge:
    def test_uniform_spec_converges_in_one(self):
        out = converge(Uniform(), make_dist([0.9, 0.05, 0.05]))
        assert isinstance(out, Converged)
        assert out.steps == 1

    def test_already_uniform_converges_in_zero(self):
        out = converge(Yager(), uniform_dist(4))
        assert isinstance(out, Converged)
        assert out.steps == 0

    @NON_SPECS
    def test_rejects_non_spec_at_uniform_start(self, non_spec):
        with pytest.raises(TypeError, match="^not a negator spec: "):
            converge(non_spec, uniform_dist(3))

    def test_yager_n2_oscillates_with_period_two(self):
        out = converge(Yager(), make_dist([0.3, 0.7]))
        assert isinstance(out, Oscillating)
        assert out.period == 2
        assert max_abs_diff(out.witness, make_dist([0.3, 0.7])) <= 1e-9

    def test_max_iter_reached(self):
        out = converge(Yager(), point_dist(5, 1), eps=1e-15, max_iter=3)
        assert isinstance(out, MaxIterReached)
        assert linf_to_uniform(out.last) == pytest.approx(0.8 * 0.25**3, abs=1e-15)
        # Its gap to step 1, 8e-10, is within the 1e-9 equality slack, so
        # the 2-cycle is never seen.
        start = make_dist([0.5000000004, 0.4999999996])
        assert isinstance(converge(Involutive(), start, eps=1e-10), MaxIterReached)

    def test_late_two_cycle_is_oscillating(self):
        # tsallis k = 0.5 reaches the cycle (1, 0) <-> (0, 1) only after
        # several steps, so comparing with the start never finds it.
        out = converge(Tsallis(0.5), make_dist([0.3, 0.7]))
        assert isinstance(out, Oscillating)
        assert out.period == 2
        assert min(out.witness) < 1e-8  # next to a vertex

    @pytest.mark.parametrize(
        "spec, start, steps",
        [
            (Yager(), make_dist([0.2, 0.3, 0.5]), 38),
            (Tsallis(0.5), random_dist(3, seed=0), 69),
            (Linear(0.05), make_dist([0.3, 0.7]), 508),
        ],
    )
    def test_alternating_convergence_is_not_oscillating(self, spec, start, steps):
        # Each orbit alternates sides of uniform and, well before eps, comes
        # back within 1e-9 of its step two before; only the shrinking gap
        # to the step in between tells it from a cycle.
        out = converge(spec, start, eps=1e-12)
        assert isinstance(out, Converged)
        assert out.steps == steps

    @given(positive_dists(min_n=2, max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_tsallis_positive_k_converges(self, d):
        out = converge(Tsallis(2.0), d, eps=1e-9, max_iter=2000)
        assert isinstance(out, Converged)

    def test_leaving_the_domain_is_an_outcome(self):
        # With k < 0 this orbit heads for a vertex; at step 14 an entry
        # has underflowed to 0, where p**k is undefined.
        spec, start = Tsallis(-1.0), make_dist([0.1, 0.2, 0.3, 0.4])
        out = converge(spec, start, eps=1e-12)
        assert isinstance(out, LeftDomain)
        assert out.steps == 14
        assert out.last == iterate(spec, start, out.steps).last.dist
        with pytest.raises(DomainError):
            negate(spec, out.last)
        with pytest.raises(DomainError):
            iterate(spec, start, out.steps + 1)

    def test_start_outside_the_domain_still_raises(self):
        with pytest.raises(DomainError):
            converge(Tsallis(-1.0), point_dist(3, 1))

    def test_tsallis_point_mass_n2_oscillates(self):
        # sum(p**k) = 1 at a point mass, so for n=2 the step is an exact
        # swap: (0, 1) <-> (1, 0) for every k > 0.
        out = converge(Tsallis(2.0), point_dist(2, 2), eps=1e-9)
        assert isinstance(out, Oscillating)
        assert out.period == 2

    # A tsallis orbit that moves away from uniform.
    SLOW_EXPANDING = (Tsallis(0.999), make_dist([0.4994, 0.5006]))

    def test_slowly_expanding_orbit_grows(self):
        trace = iterate(*self.SLOW_EXPANDING, 3000)
        linf = [trace.steps[k].linf for k in (0, 1000, 3000)]
        assert linf == [pytest.approx(v, rel=1e-3) for v in (6.000e-4, 8.83e-4, 1.91e-3)]

    # A tsallis orbit with k < 0 that alternates sides on its way to a
    # vertex: step 7 lies within 1e-9 of step 5, and the gap to step 6 in
    # between has grown, not shrunk.
    TO_A_VERTEX = (Tsallis(-1.0), make_dist([0.3, 0.7]))

    def test_orbit_to_a_vertex_leaves_the_domain(self):
        last = iterate(*self.TO_A_VERTEX, 7).last.dist
        assert last == make_dist([1.0, 0.0])
        with pytest.raises(DomainError):
            negate(self.TO_A_VERTEX[0], last)

    @pytest.mark.xfail(
        strict=True,
        reason="the cycle test's slack is one-sided: a growing gap always passes it",
    )
    def test_orbit_to_a_vertex_is_not_oscillating(self):
        out = converge(*self.TO_A_VERTEX, eps=1e-12)
        assert not isinstance(out, Oscillating)


@st.composite
def _starts(draw, min_n=2, max_n=12):
    """A ``dists()`` start, or one pulled toward uniform by a factor down
    to 1e-8: near uniform, a cycle's gaps are tiny and rounding shows."""
    d = draw(dists(min_n=min_n, max_n=max_n))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-6, 1e-8]))
    u = 1.0 / d.n
    return make_dist([u + scale * (v - u) for v in d])


class TestConvergeTheorem:
    """converge against the paper's theorem: a linear negator with
    |factor| < 1 drives every start to uniform at the rate |factor|."""

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        d=_starts(),
        eps=st.sampled_from([1e-12, 1e-9, 1e-6]),
    )
    @settings(max_examples=300, deadline=None)
    # |factor| 0.999: step 2 returns within 1e-9 of the start, yet the
    # orbit contracts. Then 1 - |factor| = 1e-13, where each step's gap
    # shrinks by less than converge's cycle slack.
    @example(alpha=0.001, d=make_dist([0.5 - 4e-7, 0.5 + 4e-7]), eps=1e-9)
    @example(alpha=1e-13, d=make_dist([0.3, 0.7]), eps=1e-9)
    # The uniform family: factor 0, uniform after one step.
    @example(alpha=1.0, d=make_dist([0.3, 0.7]), eps=1e-9)
    def test_linear_orbit_outcome(self, alpha, d, eps):
        a = abs(contraction_factor(d.n, alpha))
        assume(a < 1.0)
        d0 = linf_to_uniform(d)
        out = converge(Linear(alpha), d, eps=eps)
        assert not isinstance(out, Oscillating)
        if d0 < eps:
            predicted = 0
        elif a == 0.0:
            predicted = 1
        else:
            predicted = math.ceil(math.log(eps / d0) / math.log(a))
        if isinstance(out, Converged):
            assert abs(out.steps - predicted) <= 1
        else:
            assert isinstance(out, MaxIterReached)
            assert predicted >= 1000 - 1

    @given(
        case=st.one_of(
            st.tuples(st.just(Involutive()), _starts()),
            st.tuples(st.just(Yager()), _starts(min_n=2, max_n=2)),
        ),
        eps=st.sampled_from([1e-9, 1e-8, 1e-6]),
    )
    @settings(max_examples=300, deadline=None)
    # Its gaps differ by more than 1e-12 of themselves: the ulp term of
    # converge's slack finds the cycle at the first return.
    @example(case=(Involutive(), make_dist([0.500000005, 0.499999995])), eps=1e-9)
    @example(case=(Yager(), make_dist([0.500000005, 0.499999995])), eps=1e-9)
    # Its gap to step 1, 1.2e-9, is just above the 1e-9 equality slack.
    @example(case=(Involutive(), make_dist([0.5000000006, 0.4999999994])), eps=1e-10)
    def test_true_cycle_found_at_first_return(self, case, eps):
        """The involutive family and yager at n = 2 cycle with period 2:
        from a start farther than eps from uniform, whose step 1 lies more
        than the 1e-9 equality slack away, converge reports it with the
        start as witness."""
        spec, d = case
        assume(linf_to_uniform(d) > eps)
        out = converge(spec, d, eps=eps)
        assert out == Oscillating(period=2, witness=d)

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_involutive_vertex_cycle_witness_is_start(self, n):
        start = point_dist(n, 1)
        assert converge(Involutive(), start) == Oscillating(period=2, witness=start)


# The worked involutive example, two steps, as orbit_csv writes it.
ORBIT_CSV_GOLDEN = (
    "k,p_1,p_2,p_3,p_4,p_5,entropy,linf\n"
    "0,0.10000000000000001,0.20000000000000001,0.14999999999999999,"
    "0.29999999999999999,0.25,0.77500000000000002,0.10000000000000001\n"
    "1,0.30000000000000004,0.20000000000000001,0.25,"
    "0.10000000000000003,0.15000000000000002,0.77500000000000013,"
    "0.10000000000000003\n"
    "2,0.10000000000000001,0.20000000000000001,0.15000000000000005,"
    "0.29999999999999999,0.25,0.77500000000000002,0.10000000000000001\n"
)


class TestOrbitCsv:
    def test_golden_involutive_orbit(self):
        """Byte-exact CSV of the worked involutive example, two steps.

        Every cell was verified against an exact-fraction oracle to be
        within 1.2e-16 of the true value before freezing this text.
        """
        tr = iterate(Involutive(), EXAMPLE, 2)
        assert orbit_csv(tr) == ORBIT_CSV_GOLDEN

    def test_header_scales_with_n(self):
        tr = iterate(Yager(), make_dist([0.5, 0.5]), 1)
        assert orbit_csv(tr).splitlines()[0] == "k,p_1,p_2,entropy,linf"

    def test_cells_have_seventeen_significant_digits(self):
        tr = iterate(Yager(), point_dist(5, 1), 2)
        row = orbit_csv(tr).splitlines()[2]
        cells = row.split(",")
        assert cells[0] == "1"
        # 0.25 is exact in binary; 17 significant digits collapse to "0.25".
        assert cells[2] == "0.25"
        for cell in cells[1:]:
            assert float(cell) == float(format(float(cell), ".17g"))
