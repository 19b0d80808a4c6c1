"""Shared strategies for property tests, the non-specs, the check that a
built object matches a constructed copy, and a report hook for running
with every warning an error, as pyproject.toml sets.

Distributions are built by normalizing non-negative weights, so every
generated value is a valid simplex point by construction (the library
itself never normalizes).
"""

import dataclasses
import functools
import math
import pickle
import random
import warnings

import hypothesis.strategies as st
import pytest

from pdnegate import (
    Dist,
    DomainError,
    Involutive,
    Linear,
    Tsallis,
    Uniform,
    Yager,
    iterate,
    make_dist,
    negate,
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


# Values that every function taking a spec rejects with TypeError: it takes
# only instances of the five spec classes themselves, not of subclasses.
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


def fast_objects(spec, d):
    """``d``, its negation and, up to n = 100, the first steps of its orbit,
    as far as the family's domain allows them. Each is yielded before the
    next is built, so ``d`` is seen before ``negate`` reads its extremes.
    The steps' builder does not read n, and pickling the orbits at
    n = 10 000 would take seconds."""
    yield d
    try:
        yield negate(spec, d)
        if d.n <= 100:
            yield from iterate(spec, d, 3).steps
    except DomainError:  # tsallis k < 0 on a zero entry, or once one underflows
        pass


def constructed(obj):
    """A copy of ``obj`` built by its class's constructor. A ``Dist``'s
    extremes are read, so its dict holds what validation records."""
    built = type(obj)(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))
    if isinstance(built, Dist):
        built._lo, built._hi
    return built


def assert_like_constructed(spec, d):
    """Each of ``fast_objects(spec, d)`` pickles to the bytes of its
    constructed copy. The bytes pin the class and the instance dict, its key
    order and every bit of every value included (== counts -0.0 and 0.0 as
    equal), so nothing that eq, hash, repr, replace, asdict or copy reads can
    differ: in particular the recorded _lo and _hi are min and max bit for
    bit. This is the one check of every builder that skips ``__init__``."""
    for i, fast in enumerate(fast_objects(spec, d)):
        built = constructed(fast)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(fast, protocol)
            assert data == pickle.dumps(built, protocol), (i, protocol)
        assert pickle.dumps(pickle.loads(data), protocol) == data, i


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
