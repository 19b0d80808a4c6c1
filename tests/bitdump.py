"""One SHA-256 over the exact results of the library's numeric paths.

A change that means to leave every output unchanged bit for bit must
print the same digest before and after, on every Python version;
``tests/test_bitdump.py`` holds it to the digest in
``tests/bitdump.sha256``, which a change that alters outputs rewrites. It
is the tests' only record of output bits. The records cover ``negate``
(n up to 10 000, outputs on the [0, 1] boundary and failing ones
included), ``iterate``, ``converge`` (every spec from every start up to
n = 100, at two ``eps`` and two ``max_iter``), ``classify`` (at two seeds)
and ``fixed_point``: every float as ``float.hex()``, each outcome's type
and counts, each ``Dist``'s values and its recorded min and max, and each
error's type and message.

It needs only the standard library and the package. From the
repository root:

    PYTHONPATH=src python tests/bitdump.py

To find which record differs, write both sides' records out and diff:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import bitdump; print(*bitdump.records(), sep='\\n')"
"""

import dataclasses
import enum
import hashlib
import math

from pdnegate import (
    Dist,
    Involutive,
    Linear,
    Tsallis,
    Uniform,
    Yager,
    classify,
    converge,
    fixed_point,
    format_negator,
    iterate,
    make_dist,
    negate,
    point_dist,
    random_dist,
)

SPECS = [
    Yager(),
    Uniform(),
    Linear(0.0),
    Linear(0.25),
    Linear(0.75),
    Linear(1.0),
    *(Linear(i / 10) for i in range(1, 10)),
    Tsallis(0.5),
    Tsallis(1.0),
    Tsallis(2.0),
    Tsallis(3.0),
    Tsallis(-0.5),
    Tsallis(-1.0),
    Tsallis(-2.0),
    Tsallis(1e-15),
    Involutive(),
]


def near_complement(n, ulps):
    """(0, m, ..., m) with m ``ulps`` ulps below 1/(n - 1), whose sum is
    a few ulps off 1: the involutive output is a vertex, whose 1 the
    ``n*mp - 1`` reading of the denominator overshoots."""
    m = 1.0 / (n - 1)
    for _ in range(ulps):
        m = math.nextafter(m, 0.0)
    return make_dist([0.0] + [m] * (n - 1))


def _starts():
    for n in (2, 3, 5, 8, 100, 10_000):
        yield f"random{n}", random_dist(n, seed=n)
        yield f"vertex{n}", point_dist(n, n // 2 + 1)
    yield "zeros5", make_dist([0.0, 0.1, 0.2, 0.3, 0.4])
    yield "flip2", make_dist([0.3, 0.7])
    yield "tiny2", make_dist([1e-200, 1.0])
    yield "corner4", make_dist([0.0, 0.0, 0.0, 1.0])
    for n, ulps in ((3, 1), (10_000, 1), (10_000, 2)):
        yield f"complement{n}-{ulps}", near_complement(n, ulps)
    # Orbits that leave the tsallis k < 0 domain, and a vertex off centre.
    yield "leave3a", make_dist([0.2, 0.3, 0.5])
    yield "leave3b", make_dist([0.15, 0.25, 0.6])
    yield "leave4", make_dist([0.1, 0.2, 0.3, 0.4])
    yield "vertex8at3", point_dist(8, 3)


def _enc(x):
    """Exact text of a result: floats in hex, a ``Dist`` with its recorded
    extremes, dataclasses and tuples field by field."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Dist):
        vals = ",".join(v.hex() for v in x.values)
        return f"Dist[{vals}|{x._lo.hex()},{x._hi.hex()}]"
    if isinstance(x, enum.Enum):
        return x.name
    if isinstance(x, tuple):
        return "(" + ";".join(map(_enc, x)) + ")"
    if dataclasses.is_dataclass(x):
        inner = ";".join(_enc(getattr(x, f.name)) for f in dataclasses.fields(x))
        return f"{type(x).__name__}{{{inner}}}"
    return repr(x)


def outcome(fn, *args, errors=(ArithmeticError, ValueError), **kwargs):
    """The exact text of what ``fn(*args, **kwargs)`` returns, or the type
    and message of the error of ``errors`` it raises; any other error
    propagates."""
    try:
        return _enc(fn(*args, **kwargs))
    except errors as exc:  # DomainError is a ValueError
        return f"{type(exc).__name__}: {exc}"


def records():
    starts = list(_starts())
    for spec in SPECS:
        name = format_negator(spec)
        for label, start in starts:
            yield f"negate {name} {label} {outcome(negate, spec, start)}"
        for label, start in starts:
            if start.n > 100:
                continue
            yield f"iterate {name} {label} {outcome(iterate, spec, start, 20)}"
            for eps in (1e-12, 1e-9):
                for max_iter in (5, 1000):
                    out = outcome(converge, spec, start, eps=eps, max_iter=max_iter)
                    yield f"converge {name} {label} {eps} {max_iter} {out}"
        for n in (2, 3, 5, 100):
            yield f"classify {name} {n} {outcome(classify, spec, n, 40, seed=n)}"
            out = outcome(classify, spec, n, 40, seed=2021)
            yield f"classify {name} {n} seed=2021 {out}"
            yield f"fixed_point {name} {n} {outcome(fixed_point, spec, n)}"
    # Slowly alternating linear orbits, on which a 2-cycle is close to
    # being matched for many steps.
    for alpha in (0.05, 0.001):
        for half in (0.2, 6e-4, 4e-7):
            start = make_dist([0.5 - half, 0.5 + half])
            out = outcome(converge, Linear(alpha), start, eps=1e-12)
            yield f"converge linear:alpha={alpha} half{half} {out}"


def digest():
    h = hashlib.sha256()
    count = 0
    for line in records():
        h.update(line.encode() + b"\n")
        count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    hexdigest, count = digest()
    print(f"sha256 {hexdigest} over {count} records")
