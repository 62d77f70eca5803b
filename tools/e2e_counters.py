#!/usr/bin/env python3
"""Compares the end-to-end benchmark's work counters with a committed file.

Run from anywhere in the repository:

    python3 tools/e2e_counters.py           # compare with tools/e2e_counters.json
    python3 tools/e2e_counters.py --write   # regenerate that file

For every workload in BENCHMARK.json it runs

    python3 perfbench/run.py --workload W --seed 21 --seconds 1 --trace 1

and keeps what the seed alone decides: `correct`, `failed`, the result
digest(s) and every per-layer metric except the timings (unit "us" or
"s") and the two shares computed from timings (common.pool_utilization,
trace.overhead_share). These repeat exactly for a seed however long the
run lasts, so a difference means the program's answers or the work it
does changed. Exits 0 when everything matches, 1 on a difference and 2
when a run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "tools", "e2e_counters.json")
SEED = 21
TIMING_UNITS = ("us", "s")
TIMING_SHARES = ("common.pool_utilization", "trace.overhead_share")


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def counters(workload):
    """Runs one traced workload; returns its counters, or None on failure."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", "1"]
    print("e2e_counters: " + " ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, file=sys.stderr)
        return None
    summary = json.loads(lines[-1])
    return {
        "correct": summary["correct"],
        "failed": summary["failed"],
        "digests": re.findall(r"\bdigest ([0-9a-f]+)", proc.stdout),
        "metrics": {
            name: m["value"] for name, m in summary["metrics"].items()
            if m["unit"] not in TIMING_UNITS and name not in TIMING_SHARES
        },
    }


def differences(expected, actual):
    """Yields one line per counter that differs between two workloads."""
    for key in ("correct", "failed", "digests"):
        if expected[key] != actual[key]:
            yield "%s: %r -> %r" % (key, expected[key], actual[key])
    names = sorted(set(expected["metrics"]) | set(actual["metrics"]))
    for name in names:
        a = expected["metrics"].get(name, "absent")
        b = actual["metrics"].get(name, "absent")
        if a != b:
            yield "%s: %r -> %r" % (name, a, b)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help="regenerate %s instead of comparing" %
                   os.path.relpath(BASELINE, ROOT))
    args = p.parse_args()

    current = {}
    for w in workloads():
        got = counters(w)
        if got is None:
            print("e2e_counters: %s failed to run" % w, file=sys.stderr)
            return 2
        current[w] = got

    if args.write:
        with open(BASELINE, "w") as f:
            json.dump({"seed": SEED, "workloads": current}, f, indent=1,
                      sort_keys=True)
            f.write("\n")
        print("e2e_counters: wrote %s" % os.path.relpath(BASELINE, ROOT))
        return 0

    with open(BASELINE) as f:
        baseline = json.load(f)["workloads"]
    failed = False
    for w in sorted(set(baseline) | set(current)):
        if w not in baseline or w not in current:
            print("%s: only in %s" % (w, "the run" if w in current else
                                      "the committed file"))
            failed = True
            continue
        diff = list(differences(baseline[w], current[w]))
        print("%s: %s" % (w, "same" if not diff else "DIFFERENT"))
        for line in diff:
            print("  " + line)
        failed = failed or bool(diff)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
