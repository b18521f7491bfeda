#!/usr/bin/env python3
"""Steadiness check: run each workload N times and compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--workloads a,b]
                                [--seconds S] [--save FILE]

Run from the repository root. Builds and runs the helper self-test first,
then runs `perfbench/run.py` once per (workload, seed), each with another
seed. For every end-to-end metric of BENCHMARK.json it prints the median,
the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and the metric's bound. A spread above a third of the
bound is flagged "wide"; one above the bound is flagged "OVER". Exits 1
if any run fails or is incorrect, or if any metric is OVER.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"


def run_selftest():
    sys.path.insert(0, HERE)
    import run
    run.build()
    build = subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                            "perfbench_selftest"],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode:
        sys.exit("steady: self-test build failed")
    if subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode:
        sys.exit("steady: helper self-test failed")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None, proc.returncode
    result = json.loads(lines[-1])
    # Keep the host speed and raw timings for --save.
    result["host"] = next((l.strip() for l in lines
                           if l.strip().startswith("host speed")), "")
    return result, proc.returncode


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save", help="write every run's result line and "
                    "host-speed line here")
    args = ap.parse_args()

    run_selftest()
    bad = False
    saved = {}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for k in range(args.runs):
            seed = args.seed_base + k
            result, code = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %s)" % (workload, seed, code))
                bad = True
                continue
            saved.setdefault(workload, []).append({"seed": seed, **result})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        print("\n%s (%d runs, %d s each)" % (workload, args.runs, args.seconds))
        print("  %-14s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "OVER"
                bad = True
            elif spread > m["bound"] / 3:
                flag = "wide"
            print("  %-14s %12.6g %12.6g %12.6g %8.4f %6.3f %s" %
                  (m["name"], med, q1, q3, spread, m["bound"], flag))
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
