#!/usr/bin/env python3
"""Build and run the BISmark reproduction's benchmark.

One run:

    python3 perfbench/run.py --workload paper-2013 --seed 2013 --seconds 20 --trace 0

builds `perfbench` (a Cargo package of its own, against the repository's
crates) in release mode and runs one workload in its own process. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

Steadiness mode runs every workload repeatedly, one process per run with
a fresh seed each time, and prints each end-to-end metric's median,
quartiles and spread (quartile distance over median) against its bound:

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--first-seed 100] [--seconds 20]

The workloads and the run length default to those in BENCHMARK.json.

Run both from the repository root. Cargo's target directory is
$CARGO_TARGET_DIR, or `.bench_build` when that is unset; the benchmark's
own scratch files (spill segments, trace spans) go under
`<target>/perfbench-work`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    work_dir = os.path.join(target_dir(), "perfbench-work")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(binary, bench, runs, workloads, first_seed, seconds):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(runs):
            seed = first_seed + i
            done = run_once(binary, w, seed, seconds, 0)
            if done.returncode != 0:
                sys.exit(f"perfbench: {w} seed {seed} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"perfbench: {w} seed {seed} failed its checks")
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {w} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), file=sys.stderr)
        print(f"{w}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
              f"failed share {sorted(shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:16} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS",
                    help="run every workload RUNS times with fresh seeds and print spreads")
    ap.add_argument("--workloads")
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()
    if args.steady:
        bench = load_bench()
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in bench["workloads"]])
        seconds = args.seconds or bench["run_seconds"]
        steady(build(), bench, args.steady, workloads, args.first_seed, seconds)
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    done = run_once(build(), args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
