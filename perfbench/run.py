#!/usr/bin/env python3
"""End-to-end benchmark of the warehouse: SQL text to ResultTable, and Serve.

Run from the root of the repository:

    python3 perfbench/run.py --workload sql_covered --seed 1 --seconds 24 --trace 0

It builds the warehouse library and the benchmark program from source
(Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload, and
prints the program's report; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. --trace 1
runs the traced variant, which prints the per-layer metrics instead and
writes its spans under the build directory. --selftest builds and runs the
benchmark's self-tests instead of a workload. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sql_covered", "sql_scan", "sql_paged", "serve_trace")
# Set-up, warm-up and the answer checks take well under this on top of
# the measured --seconds.
RUN_MARGIN_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "warehouse.h")):
        log("perfbench: warehouse sources not found under %s/src" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out, "--parallel", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode == 0


def commit_id():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run(cmd, timeout):
    """Runs cmd, forwarding its stdout; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run exceeded %d s" % timeout)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    out = build_dir()
    if not build(out):
        log("perfbench: build failed")
        return 2
    if args.selftest:
        return run([os.path.join(out, "perfbench_selftest")], RUN_MARGIN_S)

    # File-backed stores live in a fresh directory of this run only.
    work = os.path.join(out, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(out, "perfbench_e2e"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", work,
           "--commit", commit_id()]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        return run(cmd, args.seconds + RUN_MARGIN_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
