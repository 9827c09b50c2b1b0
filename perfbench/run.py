#!/usr/bin/env python3
"""Build the catrsm serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload tall_panel --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark binary (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only check the build is up to
date. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. With --trace 1 the request spans are also written
there as Chrome trace-event JSON.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "catrsm.hpp")):
        sys.exit("error: catrsm sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("error: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "catrsm_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(os.path.join(out_dir, "perfbench"))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "perfbench", "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
