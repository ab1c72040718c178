"""Self-test of the benchmark, and one table of every workload's metrics.

    python3 perfbench/selftest.py

Runs each workload once plain and once traced with the shortest run length,
checks that the result line has exactly the contracted keys, that the metric
names and units are those in BENCHMARK.json, that every output check passed
and that the layers behave as the workload notes say.  It also checks that
every digest-checked job of a few seeds has a recorded digest, and that the
benchmark refuses to run where there is no source tree.  Prints every
end-to-end metric with its unit, plus `fail_ratio`, per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import harness
from workloads import WORKLOADS, make_jobs

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def run(workload: str, trace: int, cwd: Path = harness.ROOT) -> tuple[int, list[str], str]:
    proc = subprocess.run([*RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result_problems(lines: list[str], section: str) -> list[str]:
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("some output check failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics {got} differ from BENCHMARK.json {section} {want}")
    for name, m in result.get("metrics", {}).items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} is not {{value, unit}} with a number")
    return problems


def layer_problems(workload: str, metrics: dict) -> list[str]:
    value = {k: v["value"] for k, v in metrics.items()}
    layers = {k[:-len(".self_s")]: v for k, v in value.items() if k.endswith(".self_s")}
    largest = max(layers, key=layers.get)
    problems = []
    if workload == "ladder-large":
        if largest != "zlinalg":
            problems.append(f"largest layer is {largest}, expected zlinalg")
        if value["rootdata.weyl_tried"] or value["loopext.calls"]:
            problems.append("Weyl search or loopext ran")
    if workload == "small-sweep" and largest != "startup":
        problems.append(f"largest layer is {largest}, expected startup")
    if workload == "structure-search":
        if value["rootdata.weyl_tried"] < 1000 or value["flagcoh.cycle_tests"] < 1000:
            problems.append("fewer than a thousand Weyl elements or cycle tests")
    if not 0.9 <= value["trace.coverage"] <= 1.1:
        problems.append("trace.coverage outside 0.9-1.1")
    return problems


def refuses_without_source() -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=harness.ROOT))
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        return ["run.py printed a result in a directory without src/"]
    return []


def main() -> int:
    problems = []
    expected = checks.load_expected()
    for workload in WORKLOADS:
        for seed in range(5):
            for job in make_jobs(workload, seed):
                if job.check == "digest" and job.key not in expected:
                    problems.append(f"no digest for {job.key}")
    problems += refuses_without_source()
    print(f"{'workload':18s} {'metric':12s} {'value':>12s} unit")
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, stderr = run(workload, trace)
            print(stderr, end="", file=sys.stderr)
            if code != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            found = [f"{workload} trace={trace}: {p}" for p in result_problems(lines, section)]
            problems += found
            if found:
                continue
            metrics = json.loads(lines[-1])["metrics"]
            if trace:
                problems += [f"{workload}: {p}" for p in layer_problems(workload, metrics)]
                continue
            metrics["fail_ratio"] = json.loads(lines[-2])["fail_ratio"]
            for name, m in metrics.items():
                print(f"{workload:18s} {name:12s} {m['value']:12.4f} {m['unit']}")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
