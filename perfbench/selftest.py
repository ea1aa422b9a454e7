#!/usr/bin/env python3
"""Self-test of the serve benchmark: determinism and the correctness gate.

For each workload (default: all four):
  * two traced runs with one seed must report identical exact work counts,
    and two untraced runs identical soe_peak_buffer_bytes;
  * a run with a second seed must pass the correctness gate (every view
    byte-checked, chain equivalent to SecureSession).

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 4] [workload ...]

Exits non-zero on the first disagreement.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_mix", "tcp_paced", "churn_3des", "deep_predicates"]

# Pure functions of (seed, workload): any difference between two runs with
# one seed is nondeterminism in the program or the benchmark.
EXACT_TRACED = [
    "index.ensure_calls",
    "index.planner_calls",
    "index.bits_decoded",
    "index.requests_per_serve",
    "index.bytes_fetched",
    "access.events_in",
    "access.peak_buffered_bytes",
    "crypto.bytes_decrypted",
    "net.wire_bytes_per_serve",
    "server.stale_rejections",
]
EXACT_UNTRACED = ["soe_peak_buffer_bytes"]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: "
                         f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: "
                         f"correctness gate ({result['failed']} failed)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    for w in args.workloads:
        for trace, names in ((1, EXACT_TRACED), (0, EXACT_UNTRACED)):
            first = run(w, 7, args.seconds, trace)
            second = run(w, 7, args.seconds, trace)
            for name in names:
                if first[name] != second[name]:
                    raise SystemExit(f"FAIL {w}: {name} differs between two "
                                     f"runs of seed 7: {first[name]} vs "
                                     f"{second[name]}")
        run(w, 8, args.seconds, 1)
        print(f"ok {w}: exact counts repeat, second seed passes the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
