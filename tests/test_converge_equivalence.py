"""``converge`` against ``reference_converge``, which compares whole
distributions at every step: the same outcomes bit for bit, and never
more scans (``max_abs_diff`` calls) than the reference makes."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import pdnegate.dynamics
from pdnegate import (
    DomainError,
    Involutive,
    Linear,
    Tsallis,
    Yager,
    converge,
    make_dist,
)

from conftest import EXAMPLE, all_specs, dists


def _outcome(fn, spec, start, eps, max_iter):
    """The outcome's type, its ``steps`` or ``period`` and the bits of its
    ``Dist``; or the type and message of the error raised."""
    try:
        out = fn(spec, start, eps=eps, max_iter=max_iter)
    except DomainError as exc:
        return type(exc).__name__, str(exc)
    *counts, dist = (getattr(out, f.name) for f in fields(out))
    return type(out).__name__, *counts, [v.hex() for v in dist.values]


@settings(max_examples=300, deadline=None)
@given(
    spec=all_specs(include_negative_k=True),
    start=dists(),
    eps=st.sampled_from([1e-12, 1e-9, 1e-6]),
    max_iter=st.sampled_from([5, 1000]),
)
def test_matches_reference(spec, start, eps, max_iter):
    args = (spec, start, eps, max_iter)
    assert _outcome(converge, *args) == _outcome(oracles.reference_converge, *args)


# Slowly alternating orbits: for many steps each one's extremes lie
# within 1e-9 of those two steps before, yet no step matches. Then the
# 2-cycle test the library's way (the n = 2 yager flip, the involutive
# and tsallis cycles), a start outside the domain, and a slowly
# alternating tsallis orbit: converge never tests the linear ones for a
# cycle, as they converge by the paper's theorem. Last, orbits at the
# edge of the cycle test: a tsallis orbit on its way to a vertex, which
# it reports as a 2-cycle; a linear orbit whose step 2 returns within
# 1e-9 of the start; an involutive cycle whose gaps of 1e-8 differ in
# their last bits; and a slowly expanding tsallis orbit.
SLOW = [make_dist([0.3, 0.7]), make_dist([0.5 - 6e-4, 0.5 + 6e-4])]
FIXED = [(Linear(alpha), start, 1e-12, 1000) for alpha in (0.05, 0.001) for start in SLOW] + [
    (Yager(), make_dist([0.3, 0.7]), 1e-12, 1000),
    (Involutive(), EXAMPLE, 1e-12, 1000),
    (Tsallis(0.5), make_dist([0.3, 0.7]), 1e-12, 1000),
    (Tsallis(-1.0), make_dist([0.0, 1.0]), 1e-12, 1000),
    (Tsallis(1.01), make_dist([0.5 - 6e-7, 0.5 + 6e-7]), 1e-12, 1000),
    (Tsallis(-1.0), make_dist([0.3, 0.7]), 1e-12, 1000),
    (Linear(0.001), make_dist([0.5 - 4e-7, 0.5 + 4e-7]), 1e-12, 1000),
    (Involutive(), make_dist([0.500000005, 0.499999995]), 1e-12, 1000),
    (Tsallis(0.999), make_dist([0.4994, 0.5006]), 1e-12, 1000),
]


@pytest.mark.parametrize("args", FIXED)
def test_fixed_orbit_matches_reference(args):
    assert _outcome(converge, *args) == _outcome(oracles.reference_converge, *args)


def _counting(monkeypatch, module):
    """Replace ``module.max_abs_diff`` with a wrapper that counts calls."""
    calls = [0]
    real = module.max_abs_diff

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(module, "max_abs_diff", counted)
    return calls


def test_never_more_scans_than_reference(monkeypatch):
    # On tsallis:k=1.01 from (0.5 - 6e-7, 0.5 + 6e-7) the extremes pass on
    # most steps, so a converge that rescanned the previous gap on every
    # passing step, instead of keeping it, would make 1206 scans there
    # against the reference's 1000.
    ours = _counting(monkeypatch, pdnegate.dynamics)
    theirs = _counting(monkeypatch, oracles)
    total_ours = total_theirs = 0
    for args in FIXED:
        ours[0] = theirs[0] = 0
        _outcome(converge, *args)
        _outcome(oracles.reference_converge, *args)
        assert ours[0] <= theirs[0], args
        total_ours += ours[0]
        total_theirs += theirs[0]
    assert total_ours < total_theirs
