"""Dists and OrbitSteps built without the generated ``__init__``.

``simplex._accepted`` and ``dynamics.iterate`` write an instance's dict
directly. Every ``Dist`` that ``make_dist``, ``random_dist`` and
``negate`` return, and every ``OrbitStep`` of ``iterate``, must be
indistinguishable from a copy built by the class's constructor.
"""

import dataclasses
import pickle

from pdnegate import (
    Dist,
    Involutive,
    Linear,
    OrbitStep,
    Tsallis,
    Uniform,
    Yager,
    iterate,
    make_dist,
    negate,
    random_dist,
)

from bitdump import near_complement

START = make_dist([0.2, 0.3, 0.5])
SPECS = [Yager(), Uniform(), Linear(0.25), Tsallis(2.0), Tsallis(-1.0), Involutive()]


def fast_dists():
    yield "make_dist", START
    yield "make_dist with -0.0", make_dist([-0.0, 0.25, 0.75])
    yield "random_dist", random_dist(8, seed=1)
    for spec in SPECS:
        yield f"negate {spec!r}", negate(spec, START)
    # The involutive output is the vertex (1, 0, 0), whose extremes negate
    # derives from the input's.
    yield "negate to a vertex", negate(Involutive(), near_complement(3, 1))
    # Built directly, then validated by its first read of _lo.
    direct = Dist((0.25, 0.75))
    direct._lo
    yield "Dist built directly, read once", direct


def fast_steps():
    for spec in SPECS:
        for step in iterate(spec, START, 3).steps:
            yield f"iterate {spec!r} step {step.k}", step


def constructed(obj):
    """A copy of ``obj`` built by its class's constructor. A ``Dist``'s
    extremes are read, so its dict holds what validation records."""
    built = type(obj)(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))
    if isinstance(built, Dist):
        built._lo, built._hi
    return built


def cases():
    yield from fast_dists()
    yield from fast_steps()


def test_pickle_bytes_match_constructed_copy():
    # The bytes pin the class and the instance dict, its key order and every
    # bit of every value included (== counts -0.0 and 0.0 as equal), so
    # nothing that eq, hash, repr, replace, asdict or copy reads can differ.
    for name, fast in cases():
        built = constructed(fast)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(fast, protocol)
            assert data == pickle.dumps(built, protocol), (name, protocol)
        assert pickle.dumps(pickle.loads(data), protocol) == data, name


def test_classes_have_no_post_init_and_every_field_is_set():
    # Skipping __init__ also skips __post_init__, and leaves a field that
    # the builder does not write to its class default: either could pass
    # the test above unnoticed.
    for cls in (Dist, OrbitStep):
        assert not hasattr(cls, "__post_init__"), cls
    for name, fast in cases():
        assert {f.name for f in dataclasses.fields(fast)} <= vars(fast).keys(), name
