#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, at a size where every path runs in about a second:
  * an untraced run emits exactly the end-to-end metrics BENCHMARK.json names, with the
    units it names, passes every correctness check, and leaves the hooks at 0;
  * a traced run emits exactly the per-layer metrics BENCHMARK.json names;
  * a run with one corrupted model value reports failures and correct = false.
Exits 0 when all of that holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)


def bench(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "tiny", *extra]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = next((json.loads(l[len("diagnostics: "):]) for l in lines
                        if l.startswith("diagnostics: ")), {})
    return result, diagnostics


def check_metrics(result, declared, what):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys are {sorted(result)}")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise AssertionError(f"{what}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        if metric["unit"] != want[name] or not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{what}: {name} is {metric}, declared unit {want[name]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        try:
            result, diagnostics = bench(workload, "0")
            check_metrics(result, spec["end_to_end"], workload + " untraced")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                raise AssertionError(f"{workload}: checks failed: {diagnostics.get('failures')}")
            if any(diagnostics["hooks"].values()):
                raise AssertionError(f"{workload}: hooks fired: {diagnostics['hooks']}")

            result, _ = bench(workload, "1")
            check_metrics(result, spec["per_layer"], workload + " traced")
            if not result["correct"]:
                raise AssertionError(f"{workload}: traced run failed its checks")

            result, _ = bench(workload, "0", "--corrupt-model")
            if result["correct"] or result["failed"] == 0:
                raise AssertionError(f"{workload}: a corrupted model value went unnoticed")
            print(f"ok   {workload}")
        except AssertionError as error:
            failures += 1
            print(f"FAIL {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
