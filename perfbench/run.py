#!/usr/bin/env python3
"""Build and run one workload of the bdrmap benchmark.

    python3 perfbench/run.py --workload vp-run|churn|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/main.exe with
dune inside the checkout (shared dune cache off, so nothing is written
outside it), then runs it pinned to one CPU and passes its output
through: the last line of stdout is the JSON result. Exits non-zero,
without a result, if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("vp-run", "churn", "serve")
DEFAULT_SEED = 22  # the large_access scenario's own default world seed
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    # One CPU for the whole process: the query server and its client
    # then alternate on one core instead of each waiting on the other's
    # wake-up across cores, and every op runs on the same core.
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", ".bench_out"],
        cwd=ROOT, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
