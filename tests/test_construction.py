"""Dists and OrbitSteps built without the generated ``__init__``.

``simplex._accepted`` and ``dynamics.iterate`` write an instance's dict
directly. Every ``Dist`` that ``make_dist``, ``random_dist`` and
``negate`` return, and every ``OrbitStep`` of ``iterate``, must be
indistinguishable from a copy built by the class's constructor.
"""

import copy
import dataclasses
import math
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

START = make_dist([0.2, 0.3, 0.5])
SPECS = [Yager(), Uniform(), Linear(0.25), Tsallis(2.0), Tsallis(-1.0), Involutive()]


def fast_dists():
    yield "make_dist", START
    yield "make_dist with -0.0", make_dist([-0.0, 0.25, 0.75])
    yield "random_dist", random_dist(8, seed=1)
    for spec in SPECS:
        yield f"negate {spec!r}", negate(spec, START)
    # With m an ulp below 1/2 the involutive output is the vertex (1, 0, 0),
    # whose extremes negate derives from the input's.
    m = math.nextafter(0.5, 0.0)
    yield "negate to a vertex", negate(Involutive(), make_dist([0.0, m, m]))
    # Built directly, then validated by its first read, of _hi here: the
    # dict still records _lo first.
    direct = Dist((0.25, 0.75))
    direct._hi
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


def test_equal_hash_and_repr():
    for name, fast in cases():
        built = constructed(fast)
        assert fast == built, name
        assert hash(fast) == hash(built), name
        assert repr(fast) == repr(built), name


def test_instance_dict_keys_and_order():
    for name, fast in cases():
        assert list(vars(fast).items()) == list(vars(constructed(fast)).items()), name


def test_fields_asdict_and_replace():
    for name, fast in cases():
        built = constructed(fast)
        assert dataclasses.fields(fast) == dataclasses.fields(built), name
        assert dataclasses.asdict(fast) == dataclasses.asdict(built), name
        assert dataclasses.replace(fast) == built, name


def test_assignment_raises_frozen_instance_error():
    for name, fast in cases():
        for f in dataclasses.fields(fast):
            try:
                setattr(fast, f.name, None)
            except dataclasses.FrozenInstanceError:
                continue
            raise AssertionError(f"{name}: {f.name} was assigned")


def test_pickle_and_deepcopy_round_trips():
    for name, fast in cases():
        built = constructed(fast)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(fast, protocol)
            assert data == pickle.dumps(built, protocol), (name, protocol)
            back = pickle.loads(data)
            assert back == fast and vars(back) == vars(fast), (name, protocol)
        back = copy.deepcopy(fast)
        assert back == fast and vars(back) == vars(fast), name


def test_classes_have_no_post_init_and_every_field_is_set():
    # Skipping __init__ also skips __post_init__, and leaves a field that
    # the builder does not write to its class default: either would pass
    # the tests above unnoticed.
    for cls in (Dist, OrbitStep):
        assert not hasattr(cls, "__post_init__"), cls
    for name, fast in cases():
        assert {f.name for f in dataclasses.fields(fast)} <= vars(fast).keys(), name
