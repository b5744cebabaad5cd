#!/usr/bin/env python3
"""The benchmark's one command: builds perfbench from source, then runs it.

    python3 perfbench/run.py --workload paper_grid --seed 42 --seconds 10 --trace 0

Run from the repository root. Every argument goes to the perfbench binary
(see perfbench/README.md); a traced run (--trace 1) without --spans writes
its span file to .bench_build/perfbench/spans/<workload>-seed<seed>.json.
Build output goes to stderr, so the last line on stdout is the result.
The exit code is the build's if it fails, otherwise the benchmark's.
"""
import argparse
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return configure.returncode
    return subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr).returncode


def main(argv):
    status = build()
    if status != 0:
        print(f"perfbench: build failed ({status})", file=sys.stderr)
        return status
    args = list(argv)
    parser = argparse.ArgumentParser(add_help=False)
    for flag, default in (("--workload", ""), ("--seed", "42"), ("--trace", "0"),
                          ("--spans", None)):
        parser.add_argument(flag, default=default)
    known, _ = parser.parse_known_args(args)
    if known.trace == "1" and known.spans is None:
        spans = BUILD / "spans" / f"{known.workload}-seed{known.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    sys.stdout.flush()
    return subprocess.run([str(BUILD / "perfbench"), *args]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
