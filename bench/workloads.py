"""The four workloads: their inputs, their operations and how each
operation's output is checked.

A workload is a list of operations. One round runs every operation once,
in order; a run repeats whole rounds, so the share of failed operations
is the same in every run whatever the seed and the run length. Inputs
come from ``random.Random(seed)`` only, apart from the fixed tsallis
starts in ``LEAVING``.

The in-process workloads call pdnegate through the package namespace
(``api.negate``...) at call time, so that the tracer's wrappers, which
replace those bindings, see every call. Each ``cli_cold`` operation is a
fresh ``python -m pdnegate.cli``; its workload process imports pdnegate
only in the traced run, after the timed rounds.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import checks

WORKLOADS = ("negate_wide", "orbits", "classify_sweep", "cli_cold")

# Directory, under the checkout, for files the benchmark writes.
OUT_DIR = ".bench_out"

N_WIDE = 10_000
WIDE_SPECS = [
    ("yager", None),
    ("uniform", None),
    ("linear", 0.25),
    ("linear", 0.75),
    ("tsallis", 0.5),
    ("tsallis", 2.0),
    ("involutive", None),
]
WIDE_DIRICHLET = 4

ORBIT_NS = (3, 5, 8)
ORBIT_STARTS_PER_N = 2
ORBIT_SPECS = [
    ("yager", None),
    ("linear", 0.3),
    ("linear", 0.8),
    ("involutive", None),
    ("tsallis", 0.5),
    ("tsallis", 2.0),
]
ORBIT_EPS = 1e-12
ORBIT_STEPS = 20
# Tsallis orbits with k < 0 that head for a vertex: converge raises
# DomainError near step 7 on each of these, whatever the seed.
LEAVING = [
    (("tsallis", -1.0), (0.2, 0.3, 0.5)),
    (("tsallis", -2.0), (0.15, 0.25, 0.6)),
    (("tsallis", -1.0), (0.1, 0.2, 0.3, 0.4)),
]

CLASSIFY_SPECS = [
    ("yager", None),
    ("uniform", None),
    ("linear", 0.5),
    ("tsallis", 2.0),
    ("involutive", None),
]
CLASSIFY_N = 100
CLASSIFY_SAMPLES = 200
CLASSIFY_SEEDS = 3


@dataclass
class Op:
    """One workload operation: a call into the program and the check of
    its result. ``may_fail`` marks an operation that fails on the current
    code because of a known fault; its failures do not count as wrong."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    may_fail: bool = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.errors


def attempt(op: Op, tally: Tally) -> float:
    """Run one operation, check its result, and return the seconds the
    call took. Checking is not timed."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # an operation that raises is a failed one
        elapsed = time.perf_counter() - t0
        tally.failed += 1
        if not op.may_fail:
            tally.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - t0
    err = op.check(out)
    if err:
        tally.errors.append(f"{op.label}: {err}")
    return elapsed


def flat_dirichlet(n: int, rng: random.Random) -> list[float]:
    draws = [rng.expovariate(1.0) for _ in range(n)]
    total = math.fsum(draws)
    return [d / total for d in draws]


def program_spec(api, spec):
    family, param = spec
    cls = {
        "yager": api.Yager,
        "uniform": api.Uniform,
        "linear": api.Linear,
        "tsallis": api.Tsallis,
        "involutive": api.Involutive,
    }[family]
    return cls() if param is None else cls(param)


# --- conversion of in-process results to the CLI's JSON form -------------


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def outcome_dict(outcome) -> dict:
    """A converge outcome as the CLI prints it, e.g. ``{"outcome":
    "converged", "steps": 15, "limit": [...]}``. Outcome types added later
    keep every field, distributions as lists."""
    out = {"outcome": _snake(type(outcome).__name__)}
    for f in fields(outcome):
        value = getattr(outcome, f.name)
        out[f.name] = list(value.values) if hasattr(value, "values") else value
    return out


def orbit_dicts(trace) -> list[dict]:
    return [
        {"k": s.k, "dist": list(s.dist.values), "entropy": s.entropy, "linf": s.linf}
        for s in trace.steps
    ]


def report_dict(report) -> dict:
    return {
        "n": report.n,
        "samples": report.sample_count,
        "verdict": report.verdict.value,
        "witnesses": [
            {
                "p": w.p,
                "np": w.np,
                "nnp": w.nnp,
                "flags": {
                    "contracting": w.contracting,
                    "strictly_contracting": w.strictly_contracting,
                    "expanding": w.expanding,
                    "involutive": w.involutive,
                },
            }
            for w in report.witnesses
        ],
    }


# --- negate_wide ---------------------------------------------------------


def wide_inputs(rng: random.Random) -> list[list[float]]:
    """Flat-Dirichlet inputs, one with exact zeros, a point mass, and the
    near-complement of a point mass (0 once, one ulp below 1/(n-1)
    elsewhere) on which the involutive output overshoots 1 by 8e-13 and
    the boundary snap fires."""
    n = N_WIDE
    inputs = [flat_dirichlet(n, rng) for _ in range(WIDE_DIRICHLET)]
    draws = [rng.expovariate(1.0) if rng.random() > 0.1 else 0.0 for _ in range(n)]
    total = math.fsum(draws)
    inputs.append([d / total for d in draws])
    mass = rng.randrange(n)
    inputs.append([1.0 if i == mass else 0.0 for i in range(n)])
    hole = rng.randrange(n)
    m = math.nextafter(1.0 / (n - 1), 0.0)
    inputs.append([0.0 if i == hole else m for i in range(n)])
    return inputs


def negate_check(spec, p, plain_negate, involutive, order: list) -> Callable[[object], str | None]:
    """Full check on the first output of an operation; later outputs that
    hash equal to a verified one are accepted without re-running it.
    ``order`` caches the sort order of ``p`` for every operation on it."""
    verified: set[int] = set()

    def check(out) -> str | None:
        q = out.values
        key = hash(q)
        if key in verified:
            return None
        if not order:
            order.append(checks.order_key(p.values))
        err = checks.check_negate(spec, p.values, q, order[0])
        if err is None and spec[0] == "involutive":
            err = checks.check_involution(p.values, plain_negate(involutive, out).values)
        if err is None:
            verified.add(key)
        return err

    return check


def negate_wide(seed: int) -> list[Op]:
    import pdnegate as api

    dists = [api.make_dist(v) for v in wide_inputs(random.Random(seed))]
    plain_negate, involutive = api.negate, api.Involutive()
    ops = []
    for i, p in enumerate(dists):
        order: list = []
        for spec in WIDE_SPECS:
            s = program_spec(api, spec)
            ops.append(
                Op(
                    f"negate {checks.spec_text(spec)} input {i}",
                    lambda s=s, p=p: api.negate(s, p),
                    negate_check(spec, p, plain_negate, involutive, order),
                )
            )
    return ops


# --- orbits --------------------------------------------------------------


def orbits(seed: int) -> list[Op]:
    import pdnegate as api

    rng = random.Random(seed)
    starts = [
        api.make_dist(flat_dirichlet(n, rng))
        for n in ORBIT_NS
        for _ in range(ORBIT_STARTS_PER_N)
    ]
    ops = []
    for p in starts:
        for spec in ORBIT_SPECS:
            s = program_spec(api, spec)
            text = f"{checks.spec_text(spec)} n={p.n}"
            ops.append(
                Op(
                    f"converge {text}",
                    lambda s=s, p=p: api.converge(s, p, eps=ORBIT_EPS),
                    lambda out, spec=spec, p=p: checks.check_converge(
                        spec, p.values, ORBIT_EPS, outcome_dict(out)
                    ),
                )
            )
            ops.append(
                Op(
                    f"iterate {text}",
                    lambda s=s, p=p: api.iterate(s, p, ORBIT_STEPS),
                    lambda out, spec=spec, p=p: checks.check_orbit(
                        spec, p.values, orbit_dicts(out), ORBIT_STEPS
                    ),
                )
            )
    for spec, start in LEAVING:
        s, p = program_spec(api, spec), api.make_dist(start)
        ops.append(
            Op(
                f"converge {checks.spec_text(spec)} from {list(start)}",
                lambda s=s, p=p: api.converge(s, p, eps=ORBIT_EPS),
                lambda out, spec=spec, p=p: checks.check_converge(
                    spec, p.values, ORBIT_EPS, outcome_dict(out)
                ),
                may_fail=True,
            )
        )
    return ops


# --- classify_sweep ------------------------------------------------------


def classify_sweep(seed: int) -> list[Op]:
    import pdnegate as api

    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(CLASSIFY_SEEDS)]
    ops = []
    for sample_seed in seeds:
        for spec in CLASSIFY_SPECS:
            s = program_spec(api, spec)
            ops.append(
                Op(
                    f"classify {checks.spec_text(spec)} seed {sample_seed}",
                    lambda s=s, sd=sample_seed: api.classify(
                        s, CLASSIFY_N, CLASSIFY_SAMPLES, sd
                    ),
                    lambda out, spec=spec: checks.check_classify(
                        spec, CLASSIFY_N, CLASSIFY_SAMPLES, report_dict(out)
                    ),
                )
            )
    return ops


# --- cli_cold ------------------------------------------------------------


class CliExit(Exception):
    """A CLI call that exited with a non-zero code."""


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def cli_result(proc: subprocess.CompletedProcess) -> subprocess.CompletedProcess:
    """``proc`` itself; a non-zero exit raises, so it counts as failed."""
    if proc.returncode != 0:
        raise CliExit(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return proc


class Launcher:
    """The launch.py process through which cli_cold starts its CLI
    processes, so that their peak memory is not read as the workload
    process's."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.proc: subprocess.Popen | None = None

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "launch.py")],
            cwd=self.root, env=cli_env(self.root),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        """One ``python -m pdnegate.cli`` process, run to exit."""
        self.proc.stdin.write(json.dumps([sys.executable, "-m", "pdnegate.cli", *argv]) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return cli_result(subprocess.CompletedProcess(
            argv, reply["returncode"], reply["stdout"], reply["stderr"]))

    def close(self) -> dict:
        """Stop the launcher; return its peak memory figures."""
        self.proc.stdin.close()
        reply = json.loads(self.proc.stdout.readline())
        self.proc.wait(timeout=30)
        return reply

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def cli_check(payload_check) -> Callable[[object], str | None]:
    def check(proc) -> str | None:
        payload, err = checks.cli_payload(proc.stdout, proc.stderr)
        return err if err else payload_check(payload)

    return check


def cli_commands(seed: int, root: str) -> list[tuple[list[str], Callable]]:
    """The CLI calls of one round with the check of each payload. Inputs
    are validated by the benchmark's own rules; the n = 10 000 input is
    written to a file under ``OUT_DIR``."""
    rng = random.Random(seed)
    small = [flat_dirichlet(5, rng) for _ in range(4)]
    wide = flat_dirichlet(N_WIDE, rng)
    sample_seed = rng.randrange(2**32)
    for values in [*small, wide]:
        err = checks.dist_error(values)
        if err:
            raise ValueError(f"generated input is invalid: {err}")
    rel = os.path.join(OUT_DIR, f"cli_wide_{seed}.json")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, rel), "w", encoding="utf-8") as fh:
        json.dump(wide, fh)

    yager, inv = ("yager", None), ("involutive", None)
    linear, tsallis = ("linear", 0.5), ("tsallis", 2.0)
    text = checks.spec_text
    return [
        (
            ["negate", "--negator", "yager", "--dist", json.dumps(small[0])],
            lambda q: checks.check_negate(yager, small[0], q),
        ),
        (
            ["negate", "--negator", "involutive", "--dist", ",".join(map(repr, small[1]))],
            lambda q: checks.check_negate(inv, small[1], q),
        ),
        (
            ["converge", "--negator", text(linear), "--dist", json.dumps(small[2]),
             "--eps", "1e-12"],
            lambda out: checks.check_converge(linear, small[2], 1e-12, out),
        ),
        (
            ["converge", "--negator", "involutive", "--dist", json.dumps(small[3])],
            lambda out: checks.check_converge(inv, small[3], 1e-9, out),
        ),
        (
            ["classify", "--negator", text(linear), "--n", "5", "--samples", "100",
             "--seed", str(sample_seed)],
            lambda r: checks.check_classify(linear, 5, 100, r),
        ),
        (
            ["classify", "--negator", text(tsallis), "--n", "10", "--samples", "20",
             "--seed", str(sample_seed)],
            lambda r: checks.check_classify(tsallis, 10, 20, r),
        ),
        (
            ["negate", "--negator", text(tsallis), "--dist", "@" + rel],
            lambda q: checks.check_negate(tsallis, wide, q),
        ),
    ]


def cli_cold(seed: int, root: str, launcher: Launcher) -> list[Op]:
    return [
        Op(f"cli {argv[0]} {argv[2]}", lambda argv=argv: launcher.run(argv),
           cli_check(payload_check))
        for argv, payload_check in cli_commands(seed, root)
    ]


def build(workload: str, seed: int, root: str, launcher: Launcher | None = None) -> list[Op]:
    """The operations of one round of ``workload``; ``root`` is the
    checkout, ``launcher`` starts cli_cold's processes."""
    if workload == "cli_cold":
        return cli_cold(seed, root, launcher)
    return {"negate_wide": negate_wide, "orbits": orbits,
            "classify_sweep": classify_sweep}[workload](seed)
