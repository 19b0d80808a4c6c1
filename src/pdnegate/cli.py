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
import json
import sys
from collections.abc import Sequence

from .analysis import classify, fixed_point, report_as_dict
from .dynamics import (
    Converged,
    LeftDomain,
    MaxIterReached,
    Oscillating,
    converge,
    iterate,
    orbit_csv,
)
from .errors import DomainError
from .negators import _SPEC_SYNTAX, negate, parse_negator
from .simplex import Dist, entropy, make_dist, parse_dist

__all__ = ["run", "main", "build_parser"]


def _json_line(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


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


def _cmd_negate(args: argparse.Namespace) -> str:
    spec = parse_negator(args.negator)
    out = negate(spec, _read_dist(args.dist))
    return _json_line(list(out.values))


def _cmd_iterate(args: argparse.Namespace) -> str:
    spec = parse_negator(args.negator)
    trace = iterate(spec, _read_dist(args.dist), args.steps)
    if args.format == "csv":
        return orbit_csv(trace)
    steps = [
        {
            "k": step.k,
            "dist": list(step.dist.values),
            "entropy": step.entropy,
            "linf": step.linf,
        }
        for step in trace.steps
    ]
    return _json_line({"steps": steps})


def _cmd_converge(args: argparse.Namespace) -> str:
    spec = parse_negator(args.negator)
    outcome = converge(
        spec, _read_dist(args.dist), eps=args.eps, max_iter=args.max_iter
    )
    match outcome:
        case Converged(steps=k, limit=limit):
            payload = {"outcome": "converged", "steps": k, "limit": list(limit.values)}
        case Oscillating(period=period, witness=witness):
            payload = {
                "outcome": "oscillating",
                "period": period,
                "witness": list(witness.values),
            }
        case MaxIterReached(last=last):
            payload = {"outcome": "max_iter_reached", "last": list(last.values)}
        case LeftDomain(steps=k, last=last):
            payload = {"outcome": "left_domain", "steps": k, "last": list(last.values)}
        case _:  # pragma: no cover - converge returns one of the four
            raise AssertionError(f"unexpected outcome {outcome!r}")
    return _json_line(payload)


def _length(n: int) -> int:
    # The library raises LengthError (malformed input) for n < 2. On the
    # command line --n is a count parameter like --samples, -k and
    # --max-iter, whose bad values exit 2, so it does too.
    if n < 2:
        raise DomainError(f"--n must be >= 2, got {n}")
    return n


def _cmd_classify(args: argparse.Namespace) -> str:
    spec = parse_negator(args.negator)
    report = classify(spec, _length(args.n), args.samples, args.seed)
    return _json_line(report_as_dict(report))


def _cmd_entropy(args: argparse.Namespace) -> str:
    return _json_line(entropy(_read_dist(args.dist)))


def _cmd_fixed_point(args: argparse.Namespace) -> str:
    spec = parse_negator(args.negator)
    return _json_line(fixed_point(spec, _length(args.n)))


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
        payload = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(payload)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
