#!/usr/bin/env python3
"""The repo benchmark: builds the perfbench binary from source and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--out DIR]
    python3 perfbench/run.py compare OLD_DIR NEW_DIR

Run from the repository root.  The binary is built with CMake against the
runtime sources in src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run builds, later runs reuse the build.
The last line of standard output is the run's JSON result.  --out DIR also
appends that line to DIR/<workload>.jsonl, which is the result-set format
`compare` reads.  The exit status is the binary's: 0 only when every check
passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds both executables; returns the build dir
    or None when the build failed (its output goes to stderr)."""
    bdir = build_dir()
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "perfbench_compare", "-j", "4"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=880).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return bdir


def run(args):
    bdir = build()
    if bdir is None:
        return 1
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--bench", os.path.join(ROOT, "BENCHMARK.json")]
    if args.trace:
        cmd += ["--spans", os.path.join(
            bdir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"{args.workload}.jsonl"), "a") as f:
            f.write(lines[-1] + "\n")
    return proc.returncode


def compare(old, new):
    bdir = build()
    if bdir is None:
        return 1
    return subprocess.run([os.path.join(bdir, "perfbench_compare"),
                           "--bench", os.path.join(ROOT, "BENCHMARK.json"),
                           old, new]).returncode


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            print("usage: run.py compare OLD_DIR NEW_DIR", file=sys.stderr)
            return 2
        return compare(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description="Build and run perfbench.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", help="append the result line to OUT/<workload>.jsonl")
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
