#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke_test.py

For each workload, at the shortest length (one pass per segment):
  * an untraced and a traced run pass every correctness check and print
    every metric BENCHMARK.json declares, each with its declared unit;
  * a run whose expected check values are all corrupted fails with exit
    code 1, correct = false, and names every one of those checks.
It also checks that a pinned environment variable makes the benchmark
refuse to run. Exits non-zero on the first problem.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]

# A wrong expected value for every check, per workload.
CORRUPTED = {
    "paper_grid": {"grid_digest": "0x0000000000000000", "live_payloads_delta": "1"},
    "fleet_churn": {"fleet_digest": "0x0000000000000000", "fleet_census_ok": "0",
                    "fleet_hung": "1", "live_payloads_delta": "1"},
    "lossy_matrix": {"lossy_completed": "72", "lossy_aborted": "29", "lossy_terminal": "12",
                     "lossy_hung": "1", "lossy_integrity_failures": "1",
                     "live_payloads_delta": "1"},
}


def run(workload, trace, extra=(), env=None):
    args = ["--workload", workload, "--seed", "42", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(RUN + args + list(extra), cwd=ROOT, capture_output=True, text=True,
                          env=env)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def fail(why, proc=None):
    print(f"smoke_test: FAIL: {why}")
    if proc is not None:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(CORRUPTED):
        fail(f"BENCHMARK.json workloads {workloads} are not {sorted(CORRUPTED)}")
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in workloads:
        for trace in (0, 1):
            proc = run(workload, trace)
            result = result_of(proc)
            if proc.returncode != 0 or result is None or result["correct"] is not True:
                fail(f"{workload} trace={trace} did not pass", proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}", proc)
            names = {m["name"] for m in declared[trace]}
            if set(result["metrics"]) != names:
                fail(f"{workload} trace={trace}: metrics {sorted(result['metrics'])} "
                     f"are not the declared {sorted(names)}", proc)
            for metric in declared[trace]:
                got = result["metrics"][metric["name"]]
                if got.get("unit") != metric["unit"] or not isinstance(got.get("value"),
                                                                        (int, float)):
                    fail(f"{workload} trace={trace}: {metric['name']} reads {got}", proc)
            print(f"smoke_test: {workload} trace={trace} ok "
                  f"({result['attempted']} trials, {len(result['metrics'])} metrics)")

        corrupted = CORRUPTED[workload]
        extra = [arg for name, value in corrupted.items()
                 for arg in ("--expect", f"{name}={value}")]
        proc = run(workload, 0, extra)
        result = result_of(proc)
        if proc.returncode != 1 or result is None or result["correct"] is not False:
            fail(f"{workload}: corrupted expectations did not fail the run", proc)
        for name in corrupted:
            if f"check failed: {name}:" not in proc.stderr:
                fail(f"{workload}: corrupted {name} was not reported", proc)
        print(f"smoke_test: {workload} fails each of {sorted(corrupted)} when corrupted")

    env = dict(os.environ, ACCENT_SIM_SHARDS="2")
    proc = run("paper_grid", 0, env=env)
    if (proc.returncode != 2 or result_of(proc) is not None
            or "ACCENT_SIM_SHARDS" not in proc.stderr):
        fail("a pinned environment variable did not stop the run", proc)
    print("smoke_test: refuses to run with ACCENT_SIM_SHARDS set")
    print("smoke_test: ok")


if __name__ == "__main__":
    main()
