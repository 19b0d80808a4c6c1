"""Classification, involution checks, fixed points, axiom oracle."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings

from pdnegate import (
    DEFAULT_TOLERANCE,
    DomainError,
    Involutive,
    LengthError,
    LengthMismatchError,
    Linear,
    Tsallis,
    Uniform,
    Verdict,
    Yager,
    check_involution,
    classify,
    classify_point,
    fixed_point,
    involutive_point,
    linear_point,
    make_dist,
    negate,
    point_dist,
    random_dist,
    stats,
    uniform_dist,
)

from pdnegate.cli import run

from conftest import ALPHA_GRID, dists
from oracles import negation_axioms_check, yager_point

EXAMPLE = make_dist([0.1, 0.2, 0.15, 0.3, 0.25])


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

    def test_p_domain(self):
        with pytest.raises(DomainError):
            classify_point(lambda p: 0.5, 1.5, 2)

    def test_second_evaluator_for_context_rewriting(self):
        """The involutive family's second application must use the
        negated distribution's stats; with that rewriting every value
        returns to itself."""
        s = stats(EXAMPLE)
        s2 = stats(negate(Involutive(), EXAMPLE))
        for p in EXAMPLE:
            back = involutive_point(involutive_point(p, s), s2)
            assert abs(back - p) <= DEFAULT_TOLERANCE.tol_eq

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
        s = stats(d)
        s2 = stats(negate(Involutive(), d))
        for p in list(d) + [0.0, 1.0 / n]:
            for f in evaluators:
                v = classify_point(f, p, n)
                assert v.contracting or v.expanding
                assert v.involutive == (v.contracting and v.expanding)
                assert v.strictly_contracting <= v.contracting
            # The involutive family, re-evaluated in the negated context,
            # returns every value to itself.
            p = p if s.min_p <= p <= s.max_p else s.min_p
            back = involutive_point(involutive_point(p, s), s2)
            assert abs(back - p) <= DEFAULT_TOLERANCE.tol_eq


class TestClassify:
    def test_linear_strictly_contracting(self):
        r = classify(Linear(0.5), 5, samples=100, seed=42)
        assert r.verdict is Verdict.STRICTLY_CONTRACTING

    def test_involutive_family(self):
        r = classify(Involutive(), 5, samples=100, seed=42)
        assert r.verdict is Verdict.INVOLUTIVE

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

    def test_uniform_contracting_never_strict(self):
        for n in (2, 4, 7):
            assert classify(Uniform(), n, 50, seed=1).verdict is Verdict.CONTRACTING

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

    def test_parameter_domains(self):
        with pytest.raises(LengthError):
            classify(Yager(), 1, 10, seed=0)
        with pytest.raises(DomainError):
            classify(Yager(), 3, 0, seed=0)
        with pytest.raises(TypeError):
            classify("yager", 3, 10, seed=0)  # type: ignore[arg-type]

    @pytest.mark.parametrize("n", [2, 5, 100])
    @pytest.mark.parametrize(
        "spec, linear", [(Yager(), Linear(0.0)), (Uniform(), Linear(1.0))]
    )
    def test_yager_and_uniform_classify_as_linear(self, spec, linear, n):
        got = classify(spec, n, samples=50, seed=11)
        assert replace(got, spec=linear) == classify(linear, n, samples=50, seed=11)

    def test_report_as_dict_shape(self, capsys):
        argv = ["classify", "--negator", "linear:alpha=0.5", "--n", "4",
                "--samples", "20", "--seed", "5"]
        assert run(argv) == 0
        d = json.loads(capsys.readouterr().out)
        assert list(d) == ["spec", "n", "samples", "verdict", "witnesses"]
        assert d["spec"] == "linear:alpha=0.5"
        assert d["n"] == 4
        assert d["samples"] == 20
        assert d["verdict"] == "strictly_contracting"
        for w in d["witnesses"]:
            assert set(w) == {"p", "np", "nnp", "flags"}
            assert set(w["flags"]) == {
                "contracting",
                "strictly_contracting",
                "expanding",
                "involutive",
            }


class TestCheckInvolution:
    def test_involutive_on_worked_example(self):
        ok, err = check_involution(Involutive(), EXAMPLE)
        assert ok
        assert err <= 1e-12

    def test_yager_n3_point_dist_is_not_involutive(self):
        ok, err = check_involution(Yager(), point_dist(3, 1))
        assert not ok
        # Double negation lands at (0.5, 0.25, 0.25).
        assert err == pytest.approx(0.5, abs=1e-12)

    def test_yager_n2_always_involutive(self):
        for d in (make_dist([0.3, 0.7]), make_dist([0.0, 1.0]), uniform_dist(2)):
            assert check_involution(Yager(), d).ok

    @given(dists(min_n=2, max_n=10))
    @settings(max_examples=300)
    def test_involutive_family_everywhere(self, d):
        ok, err = check_involution(Involutive(), d)
        assert ok
        assert err < 1e-9

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
    def test_values(self):
        assert fixed_point(Yager(), 5) == pytest.approx(0.2, abs=1e-15)
        assert fixed_point(Uniform(), 2) == 0.5
        assert fixed_point(Linear(0.7), 4) == 0.25
        assert fixed_point(Tsallis(2.0), 3) == pytest.approx(1 / 3, abs=1e-15)

    def test_involutive_with_context(self):
        fp = fixed_point(Involutive(), 5)
        assert fp == pytest.approx(0.2, abs=1e-15)
        assert involutive_point(fp, stats(EXAMPLE)) == pytest.approx(fp, abs=1e-12)

    def test_involutive_default_context(self):
        assert fixed_point(Involutive(), 3) == pytest.approx(1 / 3, abs=1e-15)

    def test_length_domain(self):
        with pytest.raises(LengthError):
            fixed_point(Yager(), 1)


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
        with pytest.raises(LengthError):
            random_dist(1, seed=0)
