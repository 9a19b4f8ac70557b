#!/usr/bin/env python3
"""End-to-end benchmark of the LBP toolchain and simulator.

Builds the benchmark binary from the sources in this checkout, then runs
one seeded workload from source text to a verified report:

    python3 perfbench/run.py --workload otsu-detc --seed 1 --seconds 15 --trace 0

Run it from the root of the checkout. The build tree is
$CARGO_TARGET_DIR if set, else .bench_build. Build output goes to
stderr; stdout carries the binary's two JSON lines, the last of which is
the result: {"correct", "attempted", "failed", "metrics"}. The exit code
is the binary's (0 only when every operation was correct), or 1 when
the build fails, in which case nothing is printed on stdout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "lbp_perfbench"
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", BINARY, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, BINARY)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no simulator sources under src/")
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s did not finish in %d s"
                         % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(r.stdout.decode())
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
