#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at its shortest length, untraced
and traced, and asserts that the result line names every metric of
BENCHMARK.json with its unit. Then corrupts one response of
`extract-batch` and of `serve-unique` and asserts that the identity
check fails: non-zero exit and no result line.

Run from the repository root:

    python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "mse-cli", "--bin", "mse"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ):
        subprocess.run(cmd, cwd=ROOT, check=True, env=dict(os.environ, CARGO_TARGET_DIR=TARGET))


def run(workload, trace, extra=()):
    cmd = [
        os.path.join(TARGET, "release", "perfbench-traced" if trace else "perfbench"),
        "--mse-bin", os.path.join(TARGET, "release", "mse"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), *extra,
    ]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build()
    failures = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(w["name"], trace)
            res = result_line(proc)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0 or res is None:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(res)}")
            if res["correct"] is not True or res["attempted"] < 1:
                failures.append(f"{where}: correct={res['correct']} attempted={res['attempted']}")
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != wanted:
                failures.append(f"{where}: metrics/units {got} != {wanted}")
            for name, m in res["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    failures.append(f"{where}: {name} has no numeric value")
            print(f"ok   {where}: {len(got)} metrics")
    for w in ("extract-batch", "serve-unique"):
        proc = run(w, 0, ["--corrupt-one"])
        if proc.returncode == 0 or result_line(proc) is not None:
            failures.append(f"{w} --corrupt-one: identity check did not fail")
        elif "differ" not in proc.stderr:
            failures.append(f"{w} --corrupt-one: failed for another reason\n{proc.stderr[-2000:]}")
        else:
            print(f"ok   {w} --corrupt-one: identity check failed as it must")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
