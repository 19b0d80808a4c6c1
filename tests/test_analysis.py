"""Classification, involution checks, fixed points, axiom oracle."""

import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
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

from conftest import NON_SPECS, dists, pointwise_specs
from oracles import (
    TOL_EQ,
    _reference_point_verdict,
    expovariate_random_dist,
    involutive_point,
    linear_point,
    negation_axioms_check,
    reference_classify,
    yager_point,
)

EXAMPLE = make_dist([0.1, 0.2, 0.15, 0.3, 0.25])


def classify_point(f, p, n):
    """The bracket flags of ``p`` under the value map ``f``, applied
    twice."""
    np_ = f(p)
    return _reference_point_verdict(p, np_, f(np_), n)


class TestClassifyPoint:
    def test_yager_strict_contraction_at_one(self):
        v = classify_point(lambda p: yager_point(p, 3), 1.0, 3)
        assert v.np == pytest.approx(0.0, abs=1e-15)
        assert v.nnp == pytest.approx(0.5, abs=1e-15)
        assert v.contracting and v.strictly_contracting
        assert not v.involutive

    def test_yager_n2_involutive(self):
        v = classify_point(lambda p: yager_point(p, 2), 0.3, 2)
        assert v.nnp == pytest.approx(0.3, abs=1e-12)
        assert v.involutive
        assert v.contracting and v.expanding

    def test_uniform_contracting_but_not_strict(self):
        v = classify_point(lambda p: 0.25, 0.9, 4)
        assert v.np == 0.25 and v.nnp == 0.25
        assert v.contracting
        assert not v.strictly_contracting
        assert not v.involutive

    def test_second_evaluator_for_context_rewriting(self):
        """The involutive family's second application must use the
        negated distribution's max and min; with that rewriting every value
        returns to itself."""
        once = negate(Involutive(), EXAMPLE)
        for p in EXAMPLE:
            back = involutive_point(involutive_point(p, EXAMPLE), once)
            assert abs(back - p) <= TOL_EQ

    @given(dists(min_n=2, max_n=8))
    @settings(max_examples=200)
    def test_dichotomy_for_pointwise_families(self, d):
        """Contracting or expanding holds at every value; both exactly
        when the value returns to itself after two applications."""
        n = d.n
        evaluators = [lambda p: yager_point(p, n), lambda p: 1.0 / n]
        evaluators += [
            (lambda a: lambda p: linear_point(p, n, a))(a) for a in (0.3, 0.9)
        ]
        once = negate(Involutive(), d)
        for p in list(d) + [0.0, 1.0 / n]:
            for f in evaluators:
                v = classify_point(f, p, n)
                assert v.contracting or v.expanding
                assert v.involutive == (v.contracting and v.expanding)
                assert v.strictly_contracting <= v.contracting
            # The involutive family, re-evaluated in the negated context,
            # returns every value to itself.
            p = p if d._lo <= p <= d._hi else d._lo
            back = involutive_point(involutive_point(p, d), once)
            assert abs(back - p) <= TOL_EQ


class TestClassify:
    def test_linear_strictly_contracting(self):
        r = classify(Linear(0.5), 5, samples=100, seed=42)
        assert r.verdict is Verdict.STRICTLY_CONTRACTING

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

    def test_linear_alpha0_n2_involutive(self):
        r = classify(Linear(0.0), 2, samples=100, seed=42)
        assert r.verdict is Verdict.INVOLUTIVE

    def test_yager_by_length(self):
        assert classify(Yager(), 2, 50, seed=1).verdict is Verdict.INVOLUTIVE
        for n in (3, 5, 8):
            assert (
                classify(Yager(), n, 50, seed=1).verdict
                is Verdict.STRICTLY_CONTRACTING
            )

    def test_tsallis_positive_k_contracting(self):
        for n in (2, 3, 5, 8):
            r = classify(Tsallis(2.0), n, samples=80, seed=7)
            assert r.verdict is Verdict.CONTRACTING

    def test_tsallis_negative_k_expanding(self):
        for n in (2, 3, 5, 8):
            r = classify(Tsallis(-1.0), n, samples=80, seed=7)
            assert r.verdict is Verdict.EXPANDING

    def test_tsallis_negative_k_not_always_expanding(self):
        """The counter-examples README.md quotes for k < 0."""
        assert classify(Tsallis(-1.0), 100, 200, seed=0).verdict is Verdict.CONTRACTING
        assert classify(Tsallis(-0.5), 3, 200, seed=0).verdict is Verdict.MIXED
        for n in (5, 10, 100):
            r = classify(Tsallis(-0.5), n, 200, seed=0)
            assert r.verdict is Verdict.CONTRACTING

    def test_shipped_families_never_mixed(self):
        """None of the implemented families comes out Mixed at the
        parameter points the library documents."""
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

    def test_witnesses_evidence_verdict(self):
        r = classify(Yager(), 5, samples=50, seed=2)
        assert 1 <= len(r.witnesses) <= 3
        for w in r.witnesses:
            assert w.strictly_contracting

    @NON_SPECS
    def test_parameter_domains(self, non_spec):
        with pytest.raises(DomainError):
            classify(Yager(), 1, 10, seed=0)
        with pytest.raises(DomainError):
            classify(Yager(), 3, 0, seed=0)
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
        # Distribution-level tuples hold distances to uniform, whose value at
        # the fixed point is 0: a start at distance 1/n leads, a uniform one
        # does not.
        at_uniform = analysis._dist_verdict(0.0, 0.0, 0.0, True)
        at_one_nth = analysis._dist_verdict(1 / 3, 0.2, 0.1, False)
        other = analysis._dist_verdict(0.2, 0.1, 0.05, False)
        verdict, witnesses = analysis._judge([at_uniform, at_one_nth, other])
        assert verdict is Verdict.CONTRACTING
        assert witnesses == tuple(
            analysis.PointVerdict(*v) for v in (at_one_nth, at_uniform, other)
        )

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
        """N(N(1)) lands in [1/n, 1/(n-1)], so never back at 1 when
        n >= 3; the n=2 case is a genuine involution instead."""
        for n in range(3, 11):
            for alpha in (0.0, 0.5, 1.0):
                nn1 = linear_point(linear_point(1.0, n, alpha), n, alpha)
                assert 1.0 / n - 1e-12 <= nn1 <= 1.0 / (n - 1) + 1e-12
                assert nn1 != 1.0
                assert not check_involution(Linear(alpha), point_dist(n, 1)).ok
        assert check_involution(Linear(0.0), point_dist(2, 1)).ok


class TestFixedPoint:
    def test_involutive_with_context(self):
        fp = fixed_point(Involutive(), 5)
        assert fp == pytest.approx(0.2, abs=1e-15)
        assert involutive_point(fp, EXAMPLE) == pytest.approx(fp, abs=1e-12)

    def test_involutive_default_context(self):
        assert fixed_point(Involutive(), 3) == pytest.approx(1 / 3, abs=1e-15)

    def test_length_domain(self):
        with pytest.raises(DomainError):
            fixed_point(Yager(), 1)

    def test_map_that_moves_uniform_raises(self, monkeypatch):
        # Every shipped family fixes uniform, so a stand-in negate moves it.
        monkeypatch.setattr(analysis, "negate", lambda spec, dist: point_dist(dist.n, 1))
        with pytest.raises(ArithmeticError, match=r"^Yager\(\) does not fix the uniform"):
            fixed_point(Yager(), 3)


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

    def test_strictly_positive(self):
        for seed in range(200):
            assert min(random_dist(4, seed=seed)) > 0.0

    def test_validity(self):
        for n in (2, 5, 10):
            for seed in range(50):
                d = random_dist(n, seed=seed)
                assert abs(math.fsum(d) - 1.0) <= 1e-9

    def test_coordinate_means_near_uniform(self):
        """Flat sampling: each coordinate averages 1/n over many seeds."""
        n = 3
        acc = [0.0] * n
        for seed in range(10000):
            for i, v in enumerate(random_dist(n, seed=seed)):
                acc[i] += v
        for total in acc:
            assert abs(total / 10000 - 1.0 / n) < 0.01

    def test_length_domain(self):
        with pytest.raises(DomainError):
            random_dist(1, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 5, 100, 1000])
    def test_bits_match_expovariate_draws(self, n):
        for seed in range(200):
            got = [v.hex() for v in random_dist(n, seed=seed)]
            assert got == [v.hex() for v in expovariate_random_dist(n, seed)], seed
