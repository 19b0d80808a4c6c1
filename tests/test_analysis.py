"""Classification, involution checks, fixed points, axiom oracle, random
distributions."""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdnegate import (
    DomainError,
    Involutive,
    LengthMismatchError,
    Linear,
    Tsallis,
    Uniform,
    Verdict,
    Yager,
    check_involution,
    classify,
    fixed_point,
    make_dist,
    negate,
    point_dist,
    random_dist,
    uniform_dist,
)

from pdnegate import analysis

from conftest import EXAMPLE, NON_SPECS, dists, pointwise_specs
from oracles import (
    TOL_EQ,
    expovariate_random_dist,
    linear_point,
    negation_axioms_check,
    reference_classify,
)


class TestClassify:
    def test_involutive_family(self, monkeypatch):
        # The theorem settles the involutive verdict, so classify draws only
        # the starts its witnesses need; tsallis still draws every sample.
        draws = []

        def counted(n, seed):
            draws.append(seed)
            return random_dist(n, seed)

        monkeypatch.setattr(analysis, "random_dist", counted)
        for spec, samples, drawn, verdict in [
            (Involutive(), 100, 3, Verdict.INVOLUTIVE),
            (Involutive(), 2, 2, Verdict.INVOLUTIVE),
            (Involutive(), 1, 1, Verdict.INVOLUTIVE),
            (Tsallis(2.0), 100, 100, Verdict.CONTRACTING),
        ]:
            draws.clear()
            r = classify(spec, 5, samples=samples, seed=42)
            assert len(draws) == drawn, (spec, samples)
            assert r.sample_count == samples
            assert r.verdict is verdict

    def test_linear_families_draw_nothing(self, monkeypatch):
        # The linear theorem decides, so no generator is seeded; tsallis
        # seeds one for the run and one per start.
        seeded = []

        class Counted(random.Random):
            def __init__(self, seed):
                seeded.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(analysis, "random", SimpleNamespace(Random=Counted))
        for spec in (Yager(), Uniform(), Linear(0.0), Linear(0.5), Linear(1.0)):
            for n in (2, 3, 100):
                classify(spec, n, samples=50, seed=42)
        assert seeded == []
        classify(Tsallis(2.0), 5, samples=4, seed=42)
        assert len(seeded) == 5

    @settings(max_examples=200, deadline=None)
    @given(
        spec=pointwise_specs(),
        n=st.integers(min_value=2, max_value=2000),
        runs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            min_size=2,
            max_size=2,
            unique=True,
        ),
    )
    def test_linear_report_reads_neither_seed_nor_samples(self, spec, n, runs):
        a, b = (classify(spec, n, samples, seed) for samples, seed in runs)
        assert (a.sample_count, b.sample_count) == tuple(s for s, _ in runs)
        assert replace(a, sample_count=0) == replace(b, sample_count=0)

    # The sampled brackets' 1e-9 slack reads these as involutive (|a| is
    # 1 - 1e-13) or contracting (|a| is 5e-10 or 1e-6), as
    # reference_classify, which keeps them, still does; the theorem says
    # strictly contracting.
    @pytest.mark.parametrize(
        "alpha, n, bracket_verdict",
        [
            (1e-13, 2, Verdict.INVOLUTIVE),
            (1 - 1e-9, 3, Verdict.CONTRACTING),
            (0.999, 1000, Verdict.CONTRACTING),
        ],
    )
    def test_theorem_decides_inside_the_slack_band(self, alpha, n, bracket_verdict):
        r = classify(Linear(alpha), n, samples=50, seed=0)
        assert r.verdict is Verdict.STRICTLY_CONTRACTING
        assert len(r.witnesses) == 3
        for w in r.witnesses:
            assert w.contracting and w.strictly_contracting
            assert not (w.expanding or w.involutive)
        assert reference_classify(Linear(alpha), n, 50, 0).verdict is bracket_verdict

    def test_tsallis_positive_k_contracting(self):
        for n in (2, 3, 5, 8):
            r = classify(Tsallis(2.0), n, samples=80, seed=7)
            assert r.verdict is Verdict.CONTRACTING
        # Not for k <= 1 at n = 2, where k = 1 is yager's swap.
        assert classify(Tsallis(0.5), 2, 200, seed=0).verdict is Verdict.EXPANDING
        assert classify(Tsallis(1.0), 2, 200, seed=0).verdict is Verdict.INVOLUTIVE

    def test_tsallis_negative_k_expanding(self):
        for n in (2, 3, 5, 8):
            r = classify(Tsallis(-1.0), n, samples=80, seed=7)
            assert r.verdict is Verdict.EXPANDING

    def test_tsallis_negative_k_not_always_expanding(self):
        """The counter-examples README.md quotes for k < 0."""
        assert classify(Tsallis(-1.0), 100, 200, seed=0).verdict is Verdict.CONTRACTING
        # Mixed: one witness contracting only, one expanding only. At
        # k = -0.5 a start that is both is drawn before the first
        # contracting-only one, and at k = -0.25 before the first
        # expanding-only one, so each pick's "only" is tested.
        for k in (-0.5, -0.25):
            r = classify(Tsallis(k), 3, 200, seed=0)
            assert r.verdict is Verdict.MIXED
            kinds = [(w.contracting, w.expanding) for w in r.witnesses]
            assert kinds == [(True, False), (False, True)]
        for n in (5, 10, 100):
            r = classify(Tsallis(-0.5), n, 200, seed=0)
            assert r.verdict is Verdict.CONTRACTING

    def test_shipped_families_never_mixed(self):
        """No family comes out Mixed at these parameter points; tsallis
        at k = -0.5 and -0.25 does at n = 3, as the test above shows."""
        specs = [Yager(), Uniform(), Involutive()]
        specs += [Linear(a) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        specs += [Tsallis(k) for k in (0.5, 1.0, 2.0, 3.0, -1.0, -2.0)]
        for spec in specs:
            for n in (2, 3, 5):
                r = classify(spec, n, samples=60, seed=3)
                assert r.verdict is not Verdict.MIXED, (spec, n)

    def test_determinism(self):
        a = classify(Tsallis(2.0), 4, samples=40, seed=9)
        b = classify(Tsallis(2.0), 4, samples=40, seed=9)
        assert a == b

    @NON_SPECS
    def test_parameter_domains(self, non_spec):
        with pytest.raises(TypeError, match="^not a negator spec: "):
            classify(non_spec, 3, 10, seed=0)

    @pytest.mark.parametrize("n", [2, 5, 100])
    @pytest.mark.parametrize(
        "spec, linear", [(Yager(), Linear(0.0)), (Uniform(), Linear(1.0))]
    )
    def test_yager_and_uniform_classify_as_linear(self, spec, linear, n):
        got = classify(spec, n, samples=50, seed=11)
        assert replace(got, spec=linear) == classify(linear, n, samples=50, seed=11)

    def test_involution_needs_every_coordinate(self, monkeypatch):
        # Tsallis k = 1 is yager, which fixes 1/n: this start comes back to
        # its first coordinate after two steps but not to the others.
        start = make_dist([1 / 3, 0.2, 1 - 1 / 3 - 0.2])
        monkeypatch.setattr(analysis, "random_dist", lambda n, seed: start)
        twice = negate(Tsallis(1.0), negate(Tsallis(1.0), start))
        assert abs(twice[0] - start[0]) <= TOL_EQ
        r = classify(Tsallis(1.0), 3, samples=5, seed=0)
        assert r.verdict is Verdict.CONTRACTING
        assert not any(w.involutive for w in r.witnesses)

    def test_dist_level_lead_is_away_from_uniform(self):
        # Distribution-level verdicts hold distances to uniform, whose value
        # at the fixed point is 0: a start at distance 1/n leads, a uniform
        # one does not.
        at_uniform = analysis._dist_verdict(0.0, 0.0, 0.0, True)
        at_one_nth = analysis._dist_verdict(1 / 3, 0.2, 0.1, False)
        other = analysis._dist_verdict(0.2, 0.1, 0.05, False)
        verdict, witnesses = analysis._judge([at_uniform, at_one_nth, other])
        assert verdict is Verdict.CONTRACTING
        assert witnesses == [at_one_nth, at_uniform, other]

    def test_dist_level_witnesses_are_of_their_kind(self):
        # No sampled expanding report has met an involutive start, so only
        # hand-made flags reach this pick. The mixed picks are reached by
        # test_tsallis_negative_k_not_always_expanding.
        returned = analysis._dist_verdict(0.1, 0.1, 0.1, True)
        expanding = analysis._dist_verdict(0.1, 0.2, 0.3, False)
        assert analysis._judge([returned, expanding]) == (Verdict.EXPANDING, [expanding])

    @given(st.tuples(*[st.floats(min_value=0.0, allow_infinity=False)] * 3))
    # Expanding although d1 < d0: its bound is the larger of d1 and d2.
    @example((0.5, 0.1, 1.0))
    def test_dist_level_start_contracts_or_expands(self, ds):
        # A start that is not contracting has d2 > max(d0, d1) + t >= d0,
        # so it is expanding: no distribution-level start is neither.
        v = analysis._dist_verdict(*ds, False)
        assert v.contracting or v.expanding

    @pytest.mark.parametrize("n", [2, 3, 5, 100])
    @pytest.mark.parametrize(
        "spec, alpha", [(Yager(), 0.0), (Uniform(), 1.0), (Linear(0.3), 0.3)]
    )
    def test_pointwise_witnesses_are_linear_point(self, spec, alpha, n):
        r = classify(spec, n, samples=50, seed=13)
        assert r.witnesses
        for w in r.witnesses:
            assert w.np.hex() == linear_point(w.p, n, alpha).hex()
            assert w.nnp.hex() == linear_point(w.np, n, alpha).hex()


class TestCheckInvolution:
    def test_yager_n3_point_dist_is_not_involutive(self):
        ok, err = check_involution(Yager(), point_dist(3, 1))
        assert not ok
        # Double negation lands at (0.5, 0.25, 0.25).
        assert err == pytest.approx(0.5, abs=1e-12)

    def test_yager_n2_always_involutive(self):
        for d in (make_dist([0.3, 0.7]), make_dist([0.0, 1.0]), uniform_dist(2)):
            assert check_involution(Yager(), d).ok

    @NON_SPECS
    def test_rejects_non_spec(self, non_spec):
        with pytest.raises(TypeError, match="^not a negator spec: "):
            check_involution(non_spec, EXAMPLE)

    @given(dists(min_n=2, max_n=10))
    @settings(max_examples=500)
    def test_involutive_family_everywhere(self, d):
        ok, err = check_involution(Involutive(), d)
        assert ok
        assert err < 1e-9

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_involutive_family_returns_within_rounding(self, n):
        # classify draws only the involutive family's witnesses because every
        # random start returns this far inside the equality slack.
        for seed in range(5):
            ok, err = check_involution(Involutive(), random_dist(n, seed=seed))
            assert ok and err <= 2**-48, (seed, err)

    def test_double_negation_not_involutive_for_pointwise_at_n3_plus(self):
        """A point mass does not come back under two linear steps when
        n >= 3; the n=2 case is a genuine involution instead."""
        for n in range(3, 11):
            for alpha in (0.0, 0.5, 1.0):
                assert not check_involution(Linear(alpha), point_dist(n, 1)).ok
        assert check_involution(Linear(0.0), point_dist(2, 1)).ok


class TestFixedPoint:
    @pytest.mark.parametrize(
        "spec, n",
        # The tsallis exponents are too extreme for negate to evaluate the
        # uniform distribution, yet the family still fixes 1/n.
        [(Involutive(), 3), (Involutive(), 5), (Tsallis(1e-320), 3), (Tsallis(-1100.0), 2)],
        ids=repr,
    )
    def test_any_spec_is_one_over_n(self, spec, n):
        assert fixed_point(spec, n) == 1.0 / n

    def test_length_domain(self):
        # n is checked first, so a non-spec at n = 1 is a DomainError too.
        with pytest.raises(DomainError):
            fixed_point("yager", 1)

    @NON_SPECS
    def test_rejects_non_spec(self, non_spec):
        with pytest.raises(TypeError, match="^not a negator spec: "):
            fixed_point(non_spec, 3)


class TestNegationAxiomsCheck:
    def test_worked_example_pair(self):
        q = negate(Involutive(), EXAMPLE)
        assert negation_axioms_check(EXAMPLE, q).ok

    def test_constructed_violation(self):
        p = make_dist([0.2, 0.8])
        check = negation_axioms_check(p, p)
        assert not check.ok
        assert "order not reversed" in check.violation

    def test_all_ties_pass(self):
        u = uniform_dist(3)
        assert negation_axioms_check(u, u).ok

    def test_tie_mapped_to_non_tie_fails(self):
        p = make_dist([0.25, 0.25, 0.5])
        q = make_dist([0.2, 0.3, 0.5])
        assert not negation_axioms_check(p, q).ok

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            negation_axioms_check(uniform_dist(2), uniform_dist(3))


class TestRandomDist:
    def test_deterministic(self):
        assert random_dist(3, seed=42).values == random_dist(3, seed=42).values

    def test_different_seeds_differ(self):
        assert random_dist(3, seed=1).values != random_dist(3, seed=2).values

    @pytest.mark.parametrize("n", [2, 3, 5, 100, 1000])
    def test_bits_match_expovariate_draws(self, n):
        for seed in range(200):
            got = [v.hex() for v in random_dist(n, seed=seed)]
            assert got == [v.hex() for v in expovariate_random_dist(n, seed)], seed
