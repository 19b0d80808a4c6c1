"""Command-line surface: negation, orbits, convergence, classification.

Every success path prints a single machine-parseable payload to stdout
(JSON by default, CSV for orbit tables) and nothing else. Diagnostics go
to stderr. Exit codes: 0 success, 1 malformed input (bad flags, unreadable
distributions, negator syntax errors), 2 parameter domain errors (alpha or
k outside the family's domain, bad eps, and the like).

Distributions are passed as comma-separated floats, as a JSON number
array, or as ``@path`` naming a JSON file. The JSON form is exactly what
``negate`` prints, so its output can be piped straight back in.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
from collections.abc import Sequence
from dataclasses import fields, is_dataclass

from .errors import DomainError
from .negators import _SPEC_SYNTAX, NegatorSpec, format_negator, negate, parse_negator
from .simplex import Dist, entropy, make_dist, parse_dist

# The handlers import dynamics and analysis themselves, so that a
# subcommand loads only the modules it uses; these names are for type
# checkers, which treat TYPE_CHECKING as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .analysis import ClassificationReport
    from .dynamics import OrbitTrace

__all__ = ["run", "main", "build_parser"]


def _jsonable(value: object) -> object:
    """The JSON form of a library result: a ``Dist`` is its values, a spec
    its text, an enum member its value, a tuple a list, and a dataclass an
    object of its fields in declaration order. A field whose metadata has
    a ``"json"`` key path is written there, not under its own name."""
    if isinstance(value, Dist):
        return list(value.values)
    if isinstance(value, NegatorSpec):
        return format_negator(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if not is_dataclass(value):
        return value
    obj: dict = {}
    for f in fields(value):
        *outer, key = f.metadata.get("json", (f.name,))
        target = obj
        for name in outer:
            target = target.setdefault(name, {})
        target[key] = _jsonable(getattr(value, f.name))
    return obj


def _read_dist(text: str) -> Dist:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    text = text.strip()
    if text.startswith("["):
        # Integers are read as floats, so one too large for a float
        # becomes inf and is rejected by make_dist like any other.
        try:
            data = json.loads(text, parse_int=float)
        except RecursionError:
            raise ValueError("JSON distribution is nested too deeply") from None
        if not isinstance(data, list) or not all(isinstance(x, float) for x in data):
            raise ValueError("JSON distribution must be an array of numbers")
        return make_dist(data)
    return parse_dist(text)


def _cmd_negate(args: argparse.Namespace) -> Dist:
    return negate(parse_negator(args.negator), _read_dist(args.dist))


def _cmd_iterate(args: argparse.Namespace) -> OrbitTrace | str:
    from .dynamics import iterate, orbit_csv
    spec = parse_negator(args.negator)
    trace = iterate(spec, _read_dist(args.dist), args.steps)
    return orbit_csv(trace) if args.format == "csv" else trace


def _cmd_converge(args: argparse.Namespace) -> dict:
    from .dynamics import converge
    spec = parse_negator(args.negator)
    outcome = converge(spec, _read_dist(args.dist), eps=args.eps, max_iter=args.max_iter)
    # The outcome's class name in snake case leads: MaxIterReached is max_iter_reached.
    tag = "".join("_" + c.lower() if c.isupper() else c for c in type(outcome).__name__)
    return {"outcome": tag[1:], **_jsonable(outcome)}


def _cmd_classify(args: argparse.Namespace) -> ClassificationReport:
    from .analysis import classify
    spec = parse_negator(args.negator)
    return classify(spec, args.n, args.samples, args.seed)


def _cmd_entropy(args: argparse.Namespace) -> float:
    return entropy(_read_dist(args.dist))


def _cmd_fixed_point(args: argparse.Namespace) -> float:
    from .analysis import fixed_point
    return fixed_point(parse_negator(args.negator), args.n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdnegate",
        description="Negations of finite discrete probability distributions.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    negator_help = f"negator family: {_SPEC_SYNTAX}"
    dist_help = "distribution: comma-separated floats, JSON array, or @file.json"

    p = sub.add_parser("negate", help="negate a distribution once")
    p.add_argument("--negator", required=True, help=negator_help)
    p.add_argument("--dist", required=True, help=dist_help)
    p.set_defaults(handler=_cmd_negate)

    p = sub.add_parser("iterate", help="emit the orbit of repeated negation")
    p.add_argument("--negator", required=True, help=negator_help)
    p.add_argument("--dist", required=True, help=dist_help)
    p.add_argument("-k", "--steps", type=int, required=True, help="number of steps")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_iterate)

    p = sub.add_parser("converge", help="iterate to the uniform distribution")
    p.add_argument("--negator", required=True, help=negator_help)
    p.add_argument("--dist", required=True, help=dist_help)
    p.add_argument("--eps", type=float, default=1e-9, help="max-norm radius")
    p.add_argument("--max-iter", type=int, default=1000)
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("classify", help="contracting/expanding/involutive verdict")
    p.add_argument("--negator", required=True, help=negator_help)
    p.add_argument("--n", type=int, required=True, help="distribution length")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("entropy", help="quadratic entropy of a distribution")
    p.add_argument("--dist", required=True, help=dist_help)
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("fixed-point", help="the invariant probability value 1/n")
    p.add_argument("--negator", required=True, help=negator_help)
    p.add_argument("--n", type=int, required=True, help="distribution length")
    p.set_defaults(handler=_cmd_fixed_point)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; bad flags are an
        # input problem here, not a domain problem.
        return 0 if exc.code == 0 else 1
    try:
        result = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # orbit_csv's table is the one payload that is not JSON.
    if not isinstance(result, str):
        result = json.dumps(_jsonable(result), separators=(",", ":")) + "\n"
    sys.stdout.write(result)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
