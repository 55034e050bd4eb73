"""Fast self-check of the benchmark.

Usage: python3 perfbench/smoke.py

Runs one tiny cell per problem kind through run.py, untraced and traced,
and checks that the last output line is the result object with every
metric BENCHMARK.json names, in its unit, and that every cell matched its
reference. Then checks that run.py refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KINDS = ("smoke-bratu1d", "smoke-bratu2d", "smoke-monge-ampere")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"outputs differ from reference.json: {proc.stdout.strip()[-800:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')!r}")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        errors.append(f"metrics {got} != {expected}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            errors.append(f"{name} value {metric.get('value')!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in KINDS:
        for trace in (0, 1):
            errors = check_result(run(ROOT, workload, trace), expected[trace])
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {workload} --trace {trace}")
            for e in errors:
                print(f"     {e}")

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("results", "traces", "tmp*",
                                                          "__pycache__"))
        proc = run(bare, KINDS[0], 0)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        failures += not refused
        print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program "
              f"(exit code {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
