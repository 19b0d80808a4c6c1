"""Run one workload of the pdnegate benchmark and print its metrics.

    python3 bench/run.py --workload negate_wide --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``ops_per_s``, ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer ones of a traced run. The
exit code is 0 when a result was printed, 2 when the program is not
there, 3 when the checker self-test fails and 4 when a workload process
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Workload processes started per untraced run to time set-up; the
# measured process is the last of them.
SETUP_SAMPLES = 11
# Seconds a workload process may run beyond --seconds before it is killed.
GRACE = 100


class WorkerError(Exception):
    pass


def start_worker(args, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a workload process; return it with the seconds it took to
    print ``ready``."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line != b"ready\n":
        finish(proc, 10)
        raise WorkerError(f"workload process did not set up (exit code {proc.returncode})")
    return proc, elapsed


def finish(proc: subprocess.Popen, timeout: float) -> bytes:
    """Wait for a workload process and return the rest of its stdout;
    kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("workload process overran and was killed") from None
    if proc.returncode != 0:
        raise WorkerError(f"workload process exited with code {proc.returncode}")
    return out


def measure(args) -> tuple[dict, list[float], list[float]]:
    """The measured workload process's report, the set-up samples, and
    the calibration factors taken between them."""
    samples, factors = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            factors.append(calibrate.factor())
            proc, elapsed = start_worker(args, "--setup-only")
            finish(proc, 30)
            samples.append(elapsed)
        factors.append(calibrate.factor())
    proc, elapsed = start_worker(args)
    samples.append(elapsed)
    out = finish(proc, args.seconds + GRACE)
    return json.loads(out.decode().strip().splitlines()[-1]), samples, factors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "pdnegate", "__init__.py")):
        print(f"error: the pdnegate sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import selftest

    failures = selftest.run()
    if failures:
        for message in failures:
            print(f"error: checker self-test: {message}", file=sys.stderr)
        return 3

    try:
        # Untimed: fills the file cache, and the bytecode cache where Python
        # writes one, so that no set-up sample pays for them.
        finish(start_worker(args, "--setup-only")[0], 30)
        report, samples, factors = measure(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    for message in report["errors"]:
        print(f"wrong: {message}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
        print(f"traced ops_per_s {report['ops_per_s']!r} over {report['rounds']} rounds",
              file=sys.stderr)
    else:
        print(f"raw ops_per_s {report['raw_ops_per_s']!r}; raw setup_s samples "
              f"{samples!r} at calibration factors {factors!r}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(samples) / statistics.median(factors),
                        "unit": "s"},
            "ops_per_s": {"value": report["ops_per_s"], "unit": "ops/s"},
            "peak_rss_mb": {"value": report["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": report["error_count"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
