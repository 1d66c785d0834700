"""Self-test of the benchmark: every workload at tiny size on a non-default seed.

For --trace 0 and --trace 1 it checks that the last line of stdout is the
result object, that the object carries every metric BENCHMARK.json names
for that mode with its unit, that no operation failed, and that each of
those metrics (for --trace 0, all seven end-to-end metrics) is printed as
"name value unit".  Last, it checks that a directory holding only
BENCHMARK.json and perfbench/ makes the benchmark exit non-zero without
printing a result.  Takes about fifteen seconds.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import SEVEN_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = bench(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: {set(got) ^ set(wanted)}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} value {m['value']!r} is not a number")
    printed = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
    for name, unit in (wanted if trace else SEVEN_UNITS).items():
        if name not in printed or len(printed[name]) != 3 or printed[name][2] != unit:
            problems.append(f"{where}: {name} not printed as '{name} <value> {unit}'")
    return problems


def check_without_program() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "certify", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_without_program()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
