#!/usr/bin/env python3
"""Runs two sets of the benchmark on the same build and says whether they agree.

For every workload and seed it runs the benchmark once per set, swapping
which set runs first from one seed to the next. For every (workload,
end-to-end metric) pair it prints each set's median and quartiles, the
spread (interquartile distance over the median) and how far the second
median moved from the first, either way, and whether both stay within the
metric's bound from BENCHMARK.json. It also checks that failed operations
are the same share of attempted ones in both sets.

    python3 perfbench/compare.py --seeds 1-10
    python3 perfbench/compare.py --workloads quake-2048 --seeds 1-5

Run it from the root of the repository. Exit status 0 when every pair
agrees, 1 when one does not, 2 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run failed (exit {proc.returncode}): {' '.join(argv)}", file=sys.stderr)
        sys.exit(2)
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        sys.exit("quartiles need at least two seeds")
    metrics = bench["end_to_end"]

    raw = {}
    for workload in args.workloads.split(","):
        sets = [[], []]
        for i, seed in enumerate(seeds):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                result = run_once(bench["command"], workload, seed, bench["run_seconds"])
                sets[s].append(result)
                print(f"{workload} seed {seed} set {'AB'[s]}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
        raw[workload] = sets

    ok = True
    print(f"{'workload':20} {'metric':22} {'set':3} {'q1':>10} {'median':>10} {'q3':>10}"
          f" {'spread':>7} {'moved':>7} {'bound':>6}  verdict")
    for workload, sets in raw.items():
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3, sp = spread(values)
                medians.append(med)
                good = sp <= bound
                moved = ""
                if s == 1:
                    # Signed, positive when worse; two sets of one build
                    # must agree either way.
                    worse = (med - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    moved = f"{worse:+.3f}"
                    good = good and abs(worse) <= bound
                ok = ok and good
                print(f"{workload:20} {name:22} {'AB'[s]:3} {q1:10.5g} {med:10.5g} {q3:10.5g}"
                      f" {sp:7.3f} {moved:>7} {bound:>6}  {'ok' if good else 'DISAGREE'}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            print(f"{workload}: the share of failed operations differs between runs: {shares}")
            ok = False
    print("all pairs agree within their bounds" if ok else "some pairs DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    sys.exit(main())
