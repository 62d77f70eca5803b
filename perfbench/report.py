#!/usr/bin/env python3
"""Steadiness report: runs every workload of BENCHMARK.json repeatedly and
prints, per end-to-end metric, the median, quartiles, min, max and the
spread (interquartile range over median) next to the metric's bound.
Runs alternate the workload order (forward, then reversed) so slow drift
of the machine spreads over every workload. Then it makes one traced run
per workload and prints its report: the per-class table and the
per-layer metrics. The last line holds every run's values as JSON.

    python3 perfbench/report.py --runs 10 --first-seed 1 > set-1.txt

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`, with seeds first-seed, first-seed + 1, ... and T the
run_seconds of BENCHMARK.json.

    python3 perfbench/report.py --compare set-1.txt set-2.txt ...

compares saved reports instead: for every pair of them, the change of
each metric's median against the bound.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VALUES_TAG = "values: "


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, r.returncode))
    return lines, json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def verdict(share, bound):
    if share <= bound / 3:
        return "yes"
    return "within bound" if share <= bound else "NO"


def measure(bench, runs, first_seed):
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    meta = {w: [] for w in workloads}
    for i in range(runs):
        seed = first_seed + i
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            lines, result = run_once(w, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit("incorrect run: %s seed %d: %s"
                                 % (w, seed, lines[-1]))
            for m in metrics:
                values[w][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
            meta[w].extend(l for l in lines if l.startswith("meta:"))
            print("run %2d %-12s seed %3d  %s" % (
                i + 1, w, seed, "  ".join(
                    "%s=%.6g" % (m["name"], result["metrics"][m["name"]]
                                 ["value"]) for m in metrics)), flush=True)

    print()
    print("Spread = (q3 - q1) / median over the runs; ok: yes = within a "
          "third of the bound, within bound, or NO.")
    print("%-12s %-15s %12s %12s %12s %12s %12s %8s %6s %s" % (
        "workload", "metric", "median", "q1", "q3", "min", "max",
        "spread", "bound", "ok"))
    for w in workloads:
        for m in metrics:
            q1, q2, q3, s = spread(values[w][m["name"]])
            v = values[w][m["name"]]
            print("%-12s %-15s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f "
                  "%6.3f %s" % (w, m["name"], q2, q1, q3, min(v), max(v), s,
                                m["bound"], verdict(s, m["bound"])))
    print()
    for w in workloads:
        for line in meta[w][:1] + meta[w][-1:]:
            print("%-12s %s" % (w, line))

    for w in workloads:
        print()
        print("==== traced run: %s seed %d ====" % (w, first_seed))
        lines, result = run_once(w, first_seed, seconds, 1)
        for line in lines[:-1]:
            print(line)
        for name, v in result["metrics"].items():
            print("  %-34s %.6g %s" % (name, v["value"], v["unit"]))
    print()
    print(VALUES_TAG + json.dumps(values, sort_keys=True))


def load_values(path):
    with open(path) as f:
        for line in f:
            if line.startswith(VALUES_TAG):
                return json.loads(line[len(VALUES_TAG):])
    raise SystemExit("%s holds no '%s' line" % (path, VALUES_TAG.strip()))


def compare(bench, paths):
    sets = [(os.path.basename(p), load_values(p)) for p in paths]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("Change of the median from the first set of a pair to the second, "
          "as a share of the first; ok: yes = within a third of the bound, "
          "within bound, or NO.")
    worst = {}
    for (a, va), (b, vb) in itertools.combinations(sets, 2):
        print()
        print("%s -> %s" % (a, b))
        for w in sorted(va):
            for name, bound in bounds.items():
                m1 = statistics.median(va[w][name])
                m2 = statistics.median(vb[w][name])
                change = (m2 - m1) / m1
                key = (w, name)
                if key not in worst or abs(change) > abs(worst[key][0]):
                    worst[key] = (change, "%s -> %s" % (a, b))
                print("  %-12s %-15s %12.6g %12.6g %+8.4f %6.3f %s" % (
                    w, name, m1, m2, change, bound,
                    verdict(abs(change), bound)))
    print()
    print("Largest change over all pairs:")
    for (w, name), (change, pair) in sorted(worst.items()):
        print("  %-12s %-15s %+8.4f %6.3f %-12s %s" % (
            w, name, change, bounds[name],
            verdict(abs(change), bounds[name]), pair))


def main():
    p = argparse.ArgumentParser(description="steadiness report")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", nargs="+", metavar="REPORT")
    args = p.parse_args()
    bench = load_benchmark()
    if args.compare:
        compare(bench, args.compare)
    else:
        measure(bench, args.runs, args.first_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
