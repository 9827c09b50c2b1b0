#!/usr/bin/env python3
"""Smoke test of the serving benchmark itself.

    python3 perfbench/smoke_test.py [--seconds 1]

Runs every workload briefly, once untraced and once traced: the ones
BENCHMARK.json declares and the ones it leaves out as too noisy to gate.
Asserts that each run exits 0, that every declared metric of the mode is
printed with its declared unit, and that no request failed (ok_frac is 1). Run from the repository root; builds on first use like
run.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["panel_stream", "tall_panel", "wide_rhs", "spd_pipeline"]


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    assert p.returncode == 0, "%s trace=%d exited %d:\n%s" % (
        workload, trace, p.returncode, p.stderr[-2000:])
    assert lines, "%s trace=%d printed nothing" % (workload, trace)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    unknown = {wl["name"] for wl in spec["workloads"]} - set(WORKLOADS)
    assert not unknown, "unknown workloads in BENCHMARK.json: %s" % unknown
    for name in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = run(name, args.seconds, trace)
            tag = "%s trace=%d" % (name, trace)
            assert res["correct"] is True, tag + ": correct is not true"
            assert res["attempted"] >= 1, tag + ": no request attempted"
            assert res["failed"] == 0, tag + ": %d failed" % res["failed"]
            metrics = res["metrics"]
            for m in declared:
                assert m["name"] in metrics, "%s: %s missing" % (tag, m["name"])
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], "%s: %s unit %r, declared %r" % (
                    tag, m["name"], got["unit"], m["unit"])
                assert isinstance(got["value"], (int, float)), tag + ": " + m["name"]
            extra = set(metrics) - {m["name"] for m in declared}
            assert not extra, "%s: undeclared metrics %s" % (tag, sorted(extra))
            if trace == 0:
                assert metrics["ok_frac"]["value"] == 1, tag + ": ok_frac below 1"
            print("ok  %-14s trace=%d  %d metrics, %d requests" % (
                name, trace, len(metrics), res["attempted"]))
    print("smoke test passed")


if __name__ == "__main__":
    main()
