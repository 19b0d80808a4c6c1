"""Dists and OrbitSteps built without the generated ``__init__``.

``simplex._accepted`` and ``dynamics.iterate`` write an instance's dict
directly. Every ``Dist`` that ``make_dist``, the factories and ``negate``
return, and every ``OrbitStep`` of ``iterate``, must be indistinguishable
from a copy built by the class's constructor.
"""

import dataclasses

from pdnegate import (
    Dist,
    Involutive,
    Linear,
    OrbitStep,
    Tsallis,
    Uniform,
    Yager,
    make_dist,
    random_dist,
)

from conftest import assert_like_constructed, fast_objects

START = make_dist([0.2, 0.3, 0.5])
SPECS = [Yager(), Uniform(), Linear(0.25), Tsallis(2.0), Tsallis(-1.0), Involutive()]


def test_pickle_bytes_match_constructed_copy():
    # test_simplex.py's TestRecordedExtremes runs the same check on drawn
    # inputs, the wide inputs and the factories' outputs.
    for spec in SPECS:
        assert_like_constructed(spec, START)
    assert_like_constructed(Yager(), make_dist([-0.0, 0.25, 0.75]))
    assert_like_constructed(Yager(), random_dist(8, seed=1))
    # Built directly, then validated by its first read of _lo.
    direct = Dist((0.25, 0.75))
    direct._lo
    assert_like_constructed(Yager(), direct)


def test_classes_have_no_post_init_and_every_field_is_set():
    # Skipping __init__ also skips __post_init__, and leaves a field that
    # the builder does not write to its class default: either could pass
    # the test above unnoticed.
    for cls in (Dist, OrbitStep):
        assert not hasattr(cls, "__post_init__"), cls
    for spec in SPECS:
        for fast in fast_objects(spec, START):
            assert {f.name for f in dataclasses.fields(fast)} <= vars(fast).keys(), spec
