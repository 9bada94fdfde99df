"""Smoke run of the benchmark at its smallest inputs.

    python3 perfbench/smoke.py

For every workload it runs perfbench/run.py untraced and traced and checks
that each run exits 0 with a correct result; that every metric BENCHMARK.json
names is printed, with its unit; and that the traced passes reproduced the
untraced job outputs exactly.  Last, it checks that a directory holding only
BENCHMARK.json and perfbench/ (no sources) makes run.py exit non-zero
without printing a result.  Exits non-zero on the first problem.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"]:
        problems.append(f"{where}: result not correct")
    group = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(printed.items()) ^ set(expected.items()))}")
    for name, metric in result["metrics"].items():
        if not (isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])):
            problems.append(f"{where}: {name} = {metric['value']!r}")
    report = json.loads((HERE / "out" / f"{workload}-seed0-trace{trace}.json").read_text())
    if trace and not (report["passes"]["traced_wall_s"] and report["outputs_repeat"]):
        problems.append(f"{where}: traced job outputs differ from untraced ones")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return ["run.py succeeded or printed a result without sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}", flush=True)
            if problems:
                return 1
    problems = check_bare_directory(spec)
    print(f"bare directory: {'; '.join(problems) or 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
