"""Self-test of the benchmark's output checks.

Each case feeds a genuine output of the program, then a corrupted copy,
through the same ``attempt`` and ``Tally`` the workloads use. The genuine
output must pass; the corrupted one must be counted as wrong (and a
non-zero exit also as failed), so that the correctness gate cannot pass
by default. run.py runs this before every measurement. It starts no
process: a CLI call that exits non-zero is given as its recorded result.

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import checks  # noqa: E402
import workloads  # noqa: E402


def _shift(dist_cls, dist, delta: float, keep_sum: bool):
    values = list(dist.values)
    values[0] += delta
    if keep_sum:
        values[1] -= delta
    return dist_cls(tuple(values))


def cases():
    """(name, op, expect_wrong, expect_failed) for every case."""
    import pdnegate as api

    p = api.make_dist([0.1, 0.2, 0.15, 0.3, 0.25])
    out = []

    def case(name, result, check, wrong, failed=False, raises=None):
        def call():
            if raises is not None:
                raise raises
            return result

        out.append((name, workloads.Op(name, call, check, may_fail=failed), wrong, failed))

    for spec in [("linear", 0.25), ("tsallis", 2.0), ("involutive", None)]:
        s = workloads.program_spec(api, spec)
        q = api.negate(s, p)
        check = workloads.negate_check(spec, p, api.negate, api.Involutive(), [])
        case(f"negate {checks.spec_text(spec)}", q, check, False)
        check = workloads.negate_check(spec, p, api.negate, api.Involutive(), [])
        case(f"negate {checks.spec_text(spec)}, one value off by 1e-6",
             _shift(api.Dist, q, 1e-6, keep_sum=True), check, True)
        case(f"negate {checks.spec_text(spec)}, sum off by 1e-6",
             _shift(api.Dist, q, 1e-6, keep_sum=False), check, True)

    def converge_check(spec, eps=1e-12):
        return lambda o: checks.check_converge(spec, p.values, eps, workloads.outcome_dict(o))

    for spec in [("yager", None), ("linear", 0.3)]:
        res = api.converge(workloads.program_spec(api, spec), p, eps=1e-12)
        case(f"converge {checks.spec_text(spec)}", res, converge_check(spec), False)
        for delta in (1, -1):
            case(f"converge {checks.spec_text(spec)}, step count off by {delta:+d}",
                 dataclasses.replace(res, steps=res.steps + delta), converge_check(spec), True)
    inv = ("involutive", None)
    res = api.converge(api.Involutive(), p, eps=1e-12)
    case("converge involutive", res, converge_check(inv), False)
    case("converge involutive, wrong witness",
         dataclasses.replace(res, witness=api.negate(api.Involutive(), p)),
         converge_check(inv), True)
    case("converge tsallis:k=-1 raising, expected to fail", None,
         converge_check(("tsallis", -1.0)), False, failed=True, raises=api.DomainError("left"))

    trace = api.iterate(api.Linear(0.3), p, 5)
    orbit_check = lambda t: checks.check_orbit(  # noqa: E731
        ("linear", 0.3), p.values, workloads.orbit_dicts(t), 5)
    case("iterate linear", trace, orbit_check, False)
    steps = list(trace.steps)
    steps[3] = dataclasses.replace(steps[3], dist=_shift(api.Dist, steps[3].dist, 1e-6, True))
    case("iterate linear, one value off by 1e-6", api.OrbitTrace(tuple(steps)),
         orbit_check, True)

    for spec, n in [(("linear", 0.5), 10), (("involutive", None), 10)]:
        report = api.classify(workloads.program_spec(api, spec), n, 50, 7)
        check = lambda r, spec=spec, n=n: checks.check_classify(  # noqa: E731
            spec, n, 50, workloads.report_dict(r))
        case(f"classify {checks.spec_text(spec)}", report, check, False)
        case(f"classify {checks.spec_text(spec)}, wrong verdict",
             dataclasses.replace(report, verdict=api.Verdict.MIXED), check, True)
        w = report.witnesses[0]
        flipped = dataclasses.replace(w, expanding=not w.expanding)
        case(f"classify {checks.spec_text(spec)}, witness flag flipped",
             dataclasses.replace(report, witnesses=(flipped, *report.witnesses[1:])),
             check, True)

    yager = ("yager", None)
    negate_payload = lambda q: checks.check_negate(yager, p.values, q)  # noqa: E731
    line = "[" + ",".join(map(repr, api.negate(api.Yager(), p).values)) + "]\n"
    cli_check = workloads.cli_check(negate_payload)
    case("cli negate", subprocess.CompletedProcess([], 0, line, ""), cli_check, False)
    case("cli negate, two payloads",
         subprocess.CompletedProcess([], 0, line + line, ""), cli_check, True)
    failing = subprocess.CompletedProcess([], 1, "", "error: values sum to 1.1\n")
    out.append(("cli negate, non-zero exit",
                workloads.Op("cli", lambda: workloads.cli_result(failing), cli_check),
                True, True))
    return out


def run() -> list[str]:
    """Messages for every case the checks got wrong; empty when all pass."""
    failures = []
    for name, op, wrong, failed in cases():
        tally = workloads.Tally()
        workloads.attempt(op, tally)
        if (not tally.correct) != wrong or (tally.failed == 1) != failed:
            failures.append(
                f"{name}: counted correct={tally.correct} failed={tally.failed}, "
                f"expected correct={not wrong} failed={int(failed)}"
            )
    return failures


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    problems = run()
    for message in problems:
        print(f"FAIL {message}")
    print("checker self-test:", "FAIL" if problems else "PASS")
    sys.exit(1 if problems else 0)
