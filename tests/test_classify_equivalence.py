"""``classify`` against ``reference_classify``, which draws every sample
and filters the witnesses from the whole list: equal reports with equal
``repr`` (so the same verdict and the same witnesses, bit for bit), or
the same error type and message. For the
linear families the reference samples brackets where ``classify`` reads
the linear theorem; every linear spec and length here lies outside the
brackets' slack band, where the two agree (``test_analysis.py`` pins
three reports inside it)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_classify
from pdnegate import (
    Involutive,
    Linear,
    PointVerdict,
    Tsallis,
    Uniform,
    Yager,
    classify,
)

from conftest import all_specs

SPECS = [
    Yager(),
    Uniform(),
    Linear(0.0),
    Linear(0.5),
    Linear(1.0),
    Tsallis(2.0),
    Tsallis(0.5),
    Tsallis(-1.0),
    Involutive(),
]
SEEDS = (0, 7, 2**32 - 1)


def _outcome(fn, *args):
    """The report and its ``repr``, or the type and message of the error
    raised."""
    try:
        report = fn(*args)
    except (ArithmeticError, ValueError) as exc:  # DomainError is a ValueError
        return type(exc), str(exc)
    return report, repr(report)


def _check(*args):
    got = _outcome(classify, *args)
    assert got == _outcome(reference_classify, *args)
    if not isinstance(got[0], type):
        assert all(type(w) is PointVerdict for w in got[0].witnesses)


@pytest.mark.parametrize("n", [2, 3, 5, 100])
@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_matches_reference(spec, n):
    for samples in (1, 3, 40, 200):
        for seed in SEEDS:
            _check(spec, n, samples, seed)


# Tsallis(1e-15) reads its numerators through expm1 and must match too;
# Tsallis(1e-320)'s subnormal numerators make its first negate raise;
# samples = 0 and n = 1 are rejected up front.
@pytest.mark.parametrize(
    "args",
    [
        (Tsallis(1e-15), 3, 5, 0),
        (Tsallis(1e-15), 100, 40, 7),
        (Tsallis(1e-320), 3, 5, 0),
        (Yager(), 5, 0, 0),
        (Involutive(), 5, 0, 0),
        (Yager(), 1, 5, 0),
        (Tsallis(2.0), 1, 5, 0),
    ],
    ids=repr,
)
def test_errors_match_reference(args):
    _check(*args)


@settings(max_examples=200, deadline=None)
@given(
    spec=all_specs(include_negative_k=True),
    n=st.integers(min_value=2, max_value=30),
    samples=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matches_reference_property(spec, n, samples, seed):
    _check(spec, n, samples, seed)
