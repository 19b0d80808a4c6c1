"""Shared strategies for property tests, and a report hook for running
with every warning an error, as pyproject.toml sets.

Distributions are built by normalizing non-negative weights, so every
generated value is a valid simplex point by construction (the library
itself never normalizes).
"""

import functools
import math
import random
import warnings

import hypothesis.strategies as st
import pytest

from pdnegate import (
    Involutive,
    Linear,
    Tsallis,
    Uniform,
    Yager,
    make_dist,
    point_dist,
    random_dist,
)

from bitdump import near_complement

ALPHA_GRID = [i / 10 for i in range(11)]

# The worked example of README's quick start.
EXAMPLE = make_dist([0.1, 0.2, 0.15, 0.3, 0.25])


@st.composite
def dists(draw, min_n=2, max_n=8, min_weight=0.0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    weights = draw(
        st.lists(
            st.floats(min_value=min_weight, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ).filter(lambda w: math.fsum(w) > 1e-6)
    )
    total = math.fsum(weights)
    return make_dist([w / total for w in weights])


def positive_dists(min_n=2, max_n=8):
    # Strictly positive entries: safe for tsallis with k < 0.
    return dists(min_n=min_n, max_n=max_n, min_weight=1e-3)


def pointwise_specs():
    return st.one_of(
        st.just(Yager()),
        st.just(Uniform()),
        st.sampled_from(ALPHA_GRID).map(Linear),
    )


TSALLIS_KS = [0.5, 1.0, 2.0, 3.0]
NEGATIVE_KS = [-0.5, -1.0, -2.0]


def all_specs(include_negative_k=False):
    ks = TSALLIS_KS + NEGATIVE_KS if include_negative_k else TSALLIS_KS
    return st.one_of(
        pointwise_specs(),
        st.sampled_from(ks).map(Tsallis),
        st.just(Involutive()),
    )


class YagerSubclass(Yager):
    pass


class TsallisSubclass(Tsallis):
    pass


# Values that negate and classify reject with TypeError: they accept only
# instances of the five spec classes themselves, not of subclasses.
NON_SPECS = pytest.mark.parametrize(
    "non_spec",
    ["yager", YagerSubclass(), TsallisSubclass(2.0)],
    ids=["str", "yager_subclass", "tsallis_subclass"],
)


# One spec per family, with both signs of the tsallis exponent.
WIDE_SPECS = [
    Yager(),
    Uniform(),
    Linear(0.25),
    Linear(0.75),
    Tsallis(0.5),
    Tsallis(2.0),
    Tsallis(-1.0),
    Involutive(),
]


@functools.cache
def wide_inputs():
    """Fixed inputs at n = 10 000: flat-Dirichlet, flat-Dirichlet with about
    10 % exact zeros, a point mass, and the near-complement of a point mass
    (0 once, one ulp below 1/(n-1) elsewhere), whose involutive output is
    a vertex."""
    n = 10_000
    rng = random.Random(n)
    weights = [0.0 if rng.random() < 0.1 else rng.expovariate(1.0) for _ in range(n)]
    total = math.fsum(weights)
    return {
        "dirichlet": random_dist(n, seed=n),
        "zeros": make_dist([w / total for w in weights]),
        "point": point_dist(n, 1),
        "near_complement": near_complement(n, 1),
    }


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    # When a property test fails, Hypothesis's pytest plugin builds its
    # report by importing libcst, if that is installed, to write a patch
    # with the failing example. That import raises a DeprecationWarning
    # (from mypy_extensions), and with warnings as errors (pyproject.toml's
    # filterwarnings) a warning there aborts the whole run with
    # INTERNALERROR instead of reporting the one failure. Report-making runs
    # no test code, so its deprecations are ignored; the tests themselves
    # still run with warnings as errors.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return (yield)
