"""One workload process: set up, say ``ready``, run timed rounds, report.

run.py starts this script several times per run. A ``--setup-only``
process exits right after printing ``ready``; run.py times each start to
that line to get ``setup_s``. The measured process goes on to repeat
whole rounds of the workload's operations until ``--seconds`` have
passed, checks every output, and prints one JSON line with its counts,
``ops_per_s`` (the median over rounds of operations per second of call
time, scaled to the reference speed of calibrate.py), its peak resident
memory and, with ``--trace 1``, the per-layer
metrics.

    python3 bench/worker.py --workload orbits --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from launch import own_peak_kib  # noqa: E402

# Fresh interpreters started to measure cli.interp_ms and cli.import_ms.
CLI_PROBES = 5
# Longest wall time, in seconds, between two runs of the calibration loop
# within a round: one cli_cold operation, a few negate_wide ones.
CALIBRATE_EVERY = 0.02


def run_rounds(ops, seconds: float, tally) -> tuple[list[float], list[float]]:
    """Whole rounds until ``seconds`` have passed. The calibration loop
    runs at the end of each round and whenever ``CALIBRATE_EVERY`` has
    passed since it last ran; the call time between two of its runs is
    scaled by their mean factor. Returns, one figure per round, the
    operations per second of raw and of scaled call time."""
    raw, scaled = [], []
    factor, last = calibrate.factor(), time.perf_counter()
    deadline = last + seconds
    while True:
        busy = pending = busy_scaled = 0.0
        for i, op in enumerate(ops):
            pending += workloads.attempt(op, tally)
            if i == len(ops) - 1 or time.perf_counter() - last >= CALIBRATE_EVERY:
                after = calibrate.factor()
                busy += pending
                busy_scaled += pending / ((factor + after) / 2)
                factor, pending, last = after, 0.0, time.perf_counter()
        raw.append(len(ops) / busy)
        scaled.append(len(ops) / busy_scaled)
        if time.perf_counter() >= deadline:
            return raw, scaled


def in_process_ops(seed: int) -> list:
    """cli_cold's calls made through ``cli.run`` in this process, with
    the same checks, so that the tracer can see into the layers."""
    import contextlib
    import io

    import pdnegate.cli as cli

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        if code != 0:
            raise workloads.CliExit(f"exit code {code}: {err.getvalue().strip()[-200:]}")
        return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())

    return [
        workloads.Op(f"cli.run {argv[0]}", lambda argv=argv: call(argv),
                     workloads.cli_check(payload_check))
        for argv, payload_check in workloads.cli_commands(seed, ROOT)
    ]


def _probe_ms(args: list[str]) -> float:
    env = workloads.cli_env(ROOT)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def _import_ms() -> float:
    """Cumulative ``-X importtime`` figure of ``import pdnegate.cli``."""
    env = workloads.cli_env(ROOT)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pdnegate.cli"],
                          cwd=ROOT, env=env, check=True, capture_output=True, text=True,
                          timeout=60)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2] == " pdnegate.cli":
            return int(parts[1]) / 1e3
    raise RuntimeError("no import time reported for pdnegate.cli")


def cli_probes() -> dict[str, tuple[float, str]]:
    interp = statistics.median(_probe_ms(["-c", "pass"]) for _ in range(CLI_PROBES))
    imports = statistics.median(_import_ms() for _ in range(CLI_PROBES))
    return {"cli.interp_ms": (interp, "ms"), "cli.import_ms": (imports, "ms")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = args.workload == "cli_cold"
    launcher = workloads.Launcher(ROOT) if cli else None
    ops = workloads.build(args.workload, args.seed, ROOT, launcher)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0
    try:
        return measure(args, ops, launcher)
    finally:
        if launcher is not None:
            launcher.kill()


def measure(args, ops, launcher) -> int:
    import json

    cli = launcher is not None
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        if not cli:
            tracer.install()
    if cli:
        launcher.start()
    tally = workloads.Tally()
    raw, scaled = run_rounds(ops, args.seconds, tally)
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:5],
        "error_count": len(tally.errors),
        "ops_per_s": statistics.median(scaled),
        "raw_ops_per_s": statistics.median(raw),
        "rounds": len(raw),
    }
    if cli:
        peaks = launcher.close()
        result["peak_rss_kib"] = peaks["children_peak_kib"]
        if peaks["own_peak_kib"] >= peaks["children_peak_kib"]:
            print("warning: the launcher outgrew its CLI processes; "
                  "peak_rss_mb reads the launcher's peak", file=sys.stderr)
    else:
        result["peak_rss_kib"] = own_peak_kib()
    if tracer is not None:
        if cli:
            tracer.install()
            probe_tally = workloads.Tally()
            for op in in_process_ops(args.seed):
                workloads.attempt(op, probe_tally)
            result["errors"] += probe_tally.errors[:5]
            result["error_count"] += len(probe_tally.errors)
        tracer.uninstall()
        metrics = tracer.layer_metrics()
        metrics.update(cli_probes() if cli
                       else {"cli.interp_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms")})
        result["layers"] = metrics
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
