"""Golden ``converge`` outcomes, bit for bit.

Every spec that ``conftest.all_specs(include_negative_k=True)`` draws
from, run from fixed starts at n = 2, 3, 4, 5 and 8 with ``max_iter``
1000 and 5, must end in exactly the recorded outcome: its type, its
``steps`` or ``period``, and the bits of its ``limit``, ``witness`` or
``last``. A ``DomainError`` from the first step is recorded by name. The
starts cover the n = 2 yager flip, the involutive 2-cycle, the
tsallis k < 0 orbits that leave the domain, a start outside that domain
and orbits cut off by the budget.

``tests/converge_golden.txt`` holds the record. To rewrite it, for a
change that means to alter an outcome, run from the repository root:

    PYTHONPATH=src python tests/test_converge_golden.py > tests/converge_golden.txt
"""

import struct
from dataclasses import fields
from pathlib import Path

from pdnegate import (
    DomainError,
    Involutive,
    Linear,
    Tsallis,
    Uniform,
    Yager,
    converge,
    format_negator,
    make_dist,
    point_dist,
    random_dist,
)

from conftest import ALPHA_GRID, NEGATIVE_KS, TSALLIS_KS

GOLDEN = Path(__file__).with_name("converge_golden.txt")

SPECS = [
    Yager(),
    Uniform(),
    *map(Linear, ALPHA_GRID),
    *map(Tsallis, TSALLIS_KS + NEGATIVE_KS),
    Involutive(),
]

STARTS = [
    ("flip2", make_dist([0.3, 0.7])),
    ("vertex2", make_dist([0.0, 1.0])),
    # The benchmark's orbits that leave the tsallis k < 0 domain.
    ("leave3a", make_dist([0.2, 0.3, 0.5])),
    ("leave3b", make_dist([0.15, 0.25, 0.6])),
    ("leave4", make_dist([0.1, 0.2, 0.3, 0.4])),
    ("random3", random_dist(3, seed=3)),
    ("random5", random_dist(5, seed=5)),
    ("zero5", make_dist([0.0, 0.1, 0.2, 0.3, 0.4])),
    ("random8", random_dist(8, seed=8)),
    ("vertex8", point_dist(8, 3)),
]


def _bits(dist) -> str:
    return ",".join(struct.pack(">d", v).hex() for v in dist.values)


def outcome_lines() -> list[str]:
    lines = []
    for spec in SPECS:
        for name, start in STARTS:
            for max_iter in (1000, 5):
                case = f"{format_negator(spec)} {name} {max_iter}"
                try:
                    out = converge(spec, start, eps=1e-12, max_iter=max_iter)
                except DomainError:
                    lines.append(f"{case} DomainError")
                    continue
                # steps or period, if the outcome has one, then the Dist.
                *counts, dist = (getattr(out, f.name) for f in fields(out))
                lines.append(" ".join([case, type(out).__name__, *map(str, counts), _bits(dist)]))
    return lines


def test_outcomes_match_record():
    assert outcome_lines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    print("\n".join(outcome_lines()))
