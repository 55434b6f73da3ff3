#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload in BENCHMARK.json --runs times for its run_seconds, each
round with the next seed from SEED0, rotating the workload order between
rounds so no workload always runs first, and prints for each end-to-end
metric the median, the quartiles, the quartile spread (Q3 - Q1) / median and
the max/min spread. With --sets 2 it repeats the whole schedule, with the same
seeds, and prints how far the second set's median moved from the first's: the
evidence for the bounds in BENCHMARK.json.

    python3 benchmark/steady.py --runs 10 --sets 2

Run from the repository root. Raw results go to .bench_build/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# SEED0 is the first seed of every set; README.md's table used it.
SEED0 = 1000


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: correct={res['correct']} failed={res['failed']}\n{proc.stdout}")
    return res


def run_set(bench, runs):
    workloads = [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    for i in range(runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            res = run_once(bench["command"], w, SEED0 + i, bench["run_seconds"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"  run {i + 1}/{runs} {w} seed {SEED0 + i} done", file=sys.stderr)
    return values


def summarize(values):
    out = {}
    for w, metrics in values.items():
        for name, vs in metrics.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            rel = (lambda x: x / abs(med)) if med else (lambda x: float("nan"))
            out[(w, name)] = {"median": med, "q1": q1, "q3": q3, "iqr": rel(q3 - q1),
                              "range": rel(max(vs) - min(vs)), "n": len(vs)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="how many times to repeat the schedule")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}: {args.runs} runs of each workload", file=sys.stderr)
        sets.append(run_set(bench, args.runs))
    os.makedirs(".bench_build", exist_ok=True)
    with open(".bench_build/steady.json", "w") as f:
        json.dump(sets, f, indent=1)

    sums = [summarize(v) for v in sets]
    print(f"{'workload':13} {'metric':26} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9} {'shift':>7}")
    for key in sums[0]:
        for s, summ in enumerate(sums):
            st = summ[key]
            shift = ""
            if s > 0 and sums[0][key]["median"]:
                shift = f"{st['median'] / sums[0][key]['median'] - 1:+.3f}"
            print(f"{key[0]:13} {key[1]:26} {s + 1:>3} {st['median']:12.6g} {st['q1']:12.6g} {st['q3']:12.6g}"
                  f" {st['iqr']:8.3f} {st['range']:9.3f} {shift:>7}")


if __name__ == "__main__":
    main()
