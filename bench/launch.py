"""Start the cli_cold workload's CLI processes, one at a time.

Reads one JSON argument list per line on stdin, runs it to exit in the
working directory and environment this process was given, and answers
with one JSON line ``{"returncode", "stdout", "stderr"}``. At the end of
its input it answers with the largest peak resident memory of the
processes it ran and its own, in KiB.

A process's peak resident memory reads at least its parent's peak at the
time it was started, so this launcher imports little and holds one reply
at a time: its own peak stays below that of its children.
"""

import json
import resource
import subprocess
import sys


def own_peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    for line in sys.stdin:
        proc = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=60)
        reply = {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stdout.write(json.dumps({"children_peak_kib": children,
                                 "own_peak_kib": own_peak_kib()}) + "\n")


if __name__ == "__main__":
    main()
