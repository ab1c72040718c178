"""Paired benchmark of a change against its parent: writes BENCH_<pr>.json.

    python3 tools/bench_pr.py --pr N --parent DIR --pairs K [--seed0 S]

DIR is a checkout of the parent commit; the change is the checkout this
script sits in.  Every child that this script or tools/same_output.py starts
goes through `spawn`: `python3 args...` in one checkout's root, in `job_env`
(no TDUAL_* or PYTHON* setting, only that checkout's `src` on the path),
killed after TIMEOUT_S = 300 s.  A `tdual` row (`python3 -c ENTRY argv...`)
that times out is recorded with status "timeout after 300 s" and wall_s
None; any other child that times out or exits non-zero stops the script.
ENTRY runs the CLI and, at exit, writes the process's own peak RSS, its
VmHWM, to a file descriptor that `spawn` passes and names in PEAK_FD, so
stdout and stderr stay the program's own.  Exec starts VmHWM afresh, so a
row's maxrss_mb is its own peak, whatever this script holds.

First both checkouts run `python3 -m compileall -q src perfbench`, so that
no timed run compiles a module.  Then each step below runs on both
checkouts, one after the other, once per pair k: the parent goes first in
even pairs and the change in odd ones, so a drift of the host's speed
favours neither.

Each pair starts with four sections of rows:
- `cliffs`: `perfbench/cliffs.py`, the untimed report of the rows too slow
  for the workloads, with each row's layer split;
- `rank_cap`: RANK_CAP_ROWS, the rows no workload or cliff runs at total
  rank 32, the cap before `rootdata.MAX_RANK` rose to 128: `group`,
  `cohomology`, `twist level:1` and `dualize level:1` on the five rank-32
  groups; `extension --level 1` on the simply connected SU(33), Spin(64),
  Sp(32) and Spin(65), whose admissibility Gram matrix is a solve against
  X = I; `dualize level:1` with a one-entry shift on SU(33) and Spin(64);
  `cohomology`, `twist level:1` and `dualize level:1` with a zero shift on
  adjoint A1^32, whose 496 pairs of Smith invariants each add a Z/2 to H^3,
  the most H^3 torsion at that rank; `group` on adjoint A1^32 and on its
  quotient by the diagonal Z/2, the most cyclic center factors (32 copies
  of Z/2); and `extension` with a 32x32 zero `--b` on PSU(33) and adjoint
  A1^32, whose integrality check fails (508 and 32 lines);
- `rank_128`: RANK_128_ROWS, every verb at the cap 128: `group`,
  `cohomology`, `twist level:1`, `dualize level:1` with a one-entry shift,
  `langlands` and `extension --level 1` on SU(129), PSU(129), Spin(256),
  Sp(128) and adjoint A1^128, refusals included; `langlands` and
  `twist --twist langlands` on (B32 x C32)^2; and `twist level:1` and
  `dualize level:1` with a one-entry shift on A1_128_QUOTIENT, A1^128
  modulo 60 Z/2 generators, whose dense Smith basis U makes `class_in_h3`'s
  products with U's torsion rows the largest cost of any rank-128 row;
- `contcheck`: CONTCHECK_ROWS, `contcheck --grid 16384` and `--grid 131072`
  in JSON, the verb's largest memory.
Each section of BENCH_<N>.json lists its argv once, under `rows`; its
`runs` and `summary` follow that order.  A run holds, per pair, the side
that went first and per side one record per row: status, wall_s, sha256,
and layers for a cliff or maxrss_mb for the others.  The summary holds,
per row, each side's distinct stdout digests, median wall_s and median
maxrss_mb, and the change's wins in wall_s.  A row whose argv or exit
status differs between the checkouts stops the script.  Rows whose digests
differ between the checkouts in a pair, as on a deliberate output change,
or between the pairs of one side are counted on stderr.

Then both checkouts time STARTUP_SPAWNS rounds of fresh processes, one of
each of STARTUP_ROWS per round, the rows in turn, so that a drift of the
host's speed reaches every row alike: the bare interpreter (`-c "import
gc; gc.freeze()"`, the command path's first step, which loads nothing of
the package), the same followed by `import tdual_lie.cli`, and `group
--group SU(2)`.  Every row
freezes the collector before it exits, as the command path does, so no
row's shutdown collections walk the import-time heap.  The bare
interpreter is the floor under every job: the import row less it is the
package's import, and the `group` row less the import row is `main`.
`startup` keeps each side's least wall_s per row and pair (raw, unlike
perfbench's calibrated `setup_s`), the floor that the host's noise only
adds to.  Its summary compares rows, not levels: the host's speed drifts
between pairs far more than the rows differ, so per pair of adjacent rows
(`import - interpreter`, `group SU(2) - import`) it holds each side's
median, quartiles and IQR of the per-pair differences.

Last, for each workload W of BENCHMARK.json and each pair k, both
checkouts run `perfbench/run.py --workload W --seed S+k --trace 0`.
`workloads` keeps every run's metrics and fail_ratio, and per end-to-end
metric each side's median, quartiles and IQR and the number of pairs the
change won (strictly better in the metric's direction).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

CHANGE = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# The CLI, which at exit writes the process's VmHWM in kB to fd PEAK_FD.
ENTRY = """\
import atexit, os, sys
def peak():
    with open("/proc/self/status", "rb") as status:
        kb = next(line.split()[1] for line in status if line.startswith(b"VmHWM:"))
    os.write(int(os.environ["PEAK_FD"]), kb)
atexit.register(peak)
from tdual_lie.cli import main
sys.exit(main())
"""
STARTUP_ROWS = {"interpreter": ("-c", "import gc; gc.freeze()"),
                "import": ("-c", "import gc; gc.freeze(); import tdual_lie.cli"),
                "group SU(2)": ("-c", ENTRY, "group", "--group", "SU(2)")}
STARTUP_SPAWNS = 20
TIMEOUT_S = 300  # a child that runs longer is killed
ADJOINT_A1_32 = json.dumps({"components": [{"series": "A", "rank": 1}] * 32,
                            "fundamental_group": "adjoint"}, separators=(",", ":"))
DIAGONAL_A1_32 = json.dumps({"components": [{"series": "A", "rank": 1}] * 32,
                             "fundamental_group": {"generators": [[1] * 32]}},
                            separators=(",", ":"))
ZERO_32 = json.dumps([[0] * 32] * 32, separators=(",", ":"))


def unit_shift(n: int) -> str:
    """The n x n --shift matrix with a single 1, in row 0 and column 1 (zero
    when n is 1)."""
    return json.dumps([[int(i == 0 and j == 1) for j in range(n)] for i in range(n)],
                      separators=(",", ":"))


UNIT_SHIFT_32 = unit_shift(32)
RANK_CAP_ROWS = tuple(
    (verb, "--group", group, *extra)
    for group in ("PSU(33)", "SU(33)", "Spin(64)", "Spin(65)", "Sp(32)")
    for verb, extra in (("cohomology", ()), ("twist", ("--twist", "level:1")),
                        ("dualize", ("--twist", "level:1")), ("group", ()))
) + tuple(("extension", "--group", group, "--level", "1")
              for group in ("SU(33)", "Spin(64)", "Sp(32)", "Spin(65)")
        ) + tuple(("dualize", "--group", group, "--twist", "level:1", "--shift", UNIT_SHIFT_32)
                  for group in ("SU(33)", "Spin(64)")
        ) + (("cohomology", "--group", ADJOINT_A1_32),
             ("twist", "--group", ADJOINT_A1_32, "--twist", "level:1"),
             ("dualize", "--group", ADJOINT_A1_32, "--twist", "level:1",
              "--shift", ZERO_32),
             ("group", "--group", ADJOINT_A1_32), ("group", "--group", DIAGONAL_A1_32)
        ) + tuple(("extension", "--group", group, "--b", ZERO_32)
                  for group in ("PSU(33)", ADJOINT_A1_32))
# Every verb that takes a group at the total-rank cap 128.
ADJOINT_A1_128 = json.dumps({"components": [{"series": "A", "rank": 1}] * 128,
                             "fundamental_group": "adjoint"}, separators=(",", ":"))
# Two B_n x C_n pairs at the cap, whose Langlands twist swaps and negates rows.
B32_C32_SQUARED = json.dumps({"components": [{"series": "B", "rank": 32},
                                             {"series": "C", "rank": 32}] * 2},
                             separators=(",", ":"))
# At total rank 128, adjoint A1^128 has U = I, so a second group reads its
# torsion rows through a U that is not the identity: A1^128 modulo 60 Z/2
# generators, drawn once from a fixed seed (random() keeps its sequence
# across Python versions), which make U about half nonzero.
_DRAW = random.Random(128)
A1_128_QUOTIENT = json.dumps(
    {"components": [{"series": "A", "rank": 1}] * 128,
     "fundamental_group": {"generators": [[int(_DRAW.random() < 0.5) for _ in range(128)]
                                          for _ in range(60)]}},
    separators=(",", ":"))
RANK_128_ROWS = tuple(
    (verb, "--group", g, *extra)
    for g in ("SU(129)", "PSU(129)", "Spin(256)", "Sp(128)", ADJOINT_A1_128)
    for verb, *extra in (("group",), ("cohomology",), ("twist", "--twist", "level:1"),
                         ("dualize", "--twist", "level:1", "--shift", unit_shift(128)),
                         ("langlands",), ("extension", "--level", "1"))
) + (("langlands", "--group", B32_C32_SQUARED),
     ("twist", "--group", B32_C32_SQUARED, "--twist", "langlands"),
     ("twist", "--group", A1_128_QUOTIENT, "--twist", "level:1"),
     ("dualize", "--group", A1_128_QUOTIENT, "--twist", "level:1",
      "--shift", unit_shift(128)))
CONTCHECK_ROWS = tuple(("contcheck", "--grid", grid, "--format", "json")
                       for grid in ("16384", "131072"))


def job_env(root: Path) -> dict:
    """This process's environment with its PYTHON* and TDUAL_* settings
    stripped as perfbench strips them, and only `root`'s `src` on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("TDUAL_", "PYTHON")) or k == "PYTHONHOME"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    return env


class Child(NamedTuple):
    status: str  # "exit N", or "timeout after TIMEOUT_S s"
    stdout: bytes
    stderr: bytes
    wall_s: float | None  # None after a timeout
    maxrss_mb: float | None  # the VmHWM that ENTRY writes, in MB; None from others


def spawn(root: Path, args) -> Child:
    """`python3 args...` in `root`, in `job_env`, killed after TIMEOUT_S; the
    write end of a pipe is passed to the child as fd PEAK_FD."""
    read, write = os.pipe()
    with open(read, "rb") as peak:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=root,
                                  env={**job_env(root), "PEAK_FD": str(write)},
                                  pass_fds=(write,), stdin=subprocess.DEVNULL,
                                  capture_output=True, timeout=TIMEOUT_S)
            status, wall_s = f"exit {proc.returncode}", time.perf_counter() - start
        except subprocess.TimeoutExpired as timeout:  # holds what the child printed
            proc, status, wall_s = timeout, f"timeout after {TIMEOUT_S} s", None
        finally:
            os.close(write)
        kb = peak.read()
    return Child(status, proc.stdout or b"", proc.stderr or b"", wall_s,
                 int(kb) / 1024.0 if kb else None)


def checked(root: Path, args) -> Child:
    """`spawn(root, args)`, stopping the script unless the child exits 0."""
    child = spawn(root, args)
    if child.status != "exit 0":
        raise SystemExit(f"bench_pr: python3 {' '.join(args)} in {root}: {child.status}: "
                         f"{child.stderr.decode('utf-8', 'replace').strip()[-500:]}")
    return child


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `root`: its end-to-end
    metric values, fail_ratio and environment."""
    child = checked(root, ("perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"))
    details, result = map(json.loads, child.stdout.strip().splitlines()[-2:])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "fail_ratio": details["fail_ratio"]["value"],
            "environment": details["environment"]}


def run_cliffs(root: Path) -> list[dict]:
    """One `perfbench/cliffs.py` run in `root`: per row its argv, status,
    wall_s, sha256 and layers."""
    lines = checked(root, ("perfbench/cliffs.py",)).stdout.splitlines()
    keep = ("argv", "status", "wall_s", "sha256", "layers")
    return [{k: row.get(k) for k in keep}
            for row in map(json.loads, (line for line in lines if line.startswith(b"{")))]


def run_rows(root: Path, rows: tuple) -> list[dict]:
    """Each argv of `rows` once in `root`, as one `tdual` process: per row its
    argv, status, wall_s, sha256 and peak RSS in MB (maxrss_mb)."""
    out = []
    for argv in rows:
        child = spawn(root, ("-c", ENTRY, *argv))
        out.append({"argv": list(argv), "status": child.status, "wall_s": child.wall_s,
                    "sha256": hashlib.sha256(child.stdout).hexdigest(),
                    "maxrss_mb": child.maxrss_mb})
    return out


def run_startup(root: Path) -> dict:
    """Per row of STARTUP_ROWS, the least wall_s of STARTUP_SPAWNS fresh
    processes in `root`, spawned in rounds of one process per row."""
    walls = {name: [] for name in STARTUP_ROWS}
    for _ in range(STARTUP_SPAWNS):
        for name, args in STARTUP_ROWS.items():
            walls[name].append(checked(root, args).wall_s)
    return {name: min(ws) for name, ws in walls.items()}


def alternate(k: int, roots: dict, run) -> dict:
    """Pair k of `run(root)` on both checkouts: the parent runs first in even
    pairs and the change in odd ones."""
    order = SIDES if k % 2 == 0 else SIDES[::-1]
    return {"first": order[0], **{side: run(roots[side]) for side in order}}


def median(values: list) -> float | None:
    """The median of `values`, or None if one is None (a timed-out row)."""
    return None if None in values else statistics.median(values)


def compare(walls: list[list]) -> dict:
    """The pairs, the change's wins and each side's median_wall_s of one row,
    given its wall times [parent's, change's]; wins is None after a timeout."""
    timed = None not in walls[0] + walls[1]
    return {"pairs": len(walls[0]), "wins": sum(c < p for p, c in zip(*walls)) if timed else None,
            **{side: {"median_wall_s": median(ws)} for side, ws in zip(SIDES, walls)}}


def summarize_rows(runs: list[dict]) -> list[dict]:
    """Per row of a section, in its order: `compare` of its wall times, and
    each side's distinct stdout digests, in the order the pairs printed them,
    and median maxrss_mb where the row has it."""
    out = []
    for i in range(len(runs[0]["parent"])):
        rows = {side: [run[side][i] for run in runs] for side in SIDES}
        out.append(compare([[row["wall_s"] for row in rows[side]] for side in SIDES]))
        for side in SIDES:
            out[-1][side]["sha256"] = list(dict.fromkeys(row["sha256"] for row in rows[side]))
            if "maxrss_mb" in rows[side][0]:
                out[-1][side]["median_maxrss_mb"] = median([row["maxrss_mb"]
                                                            for row in rows[side]])
    return out


def spread(values: list) -> dict:
    """The median, quartiles and IQR of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize_startup(runs: list[dict]) -> dict:
    """Per pair of adjacent STARTUP_ROWS, `"later - earlier"`: each side's
    `spread` of the differences of their per-pair minima."""
    names = list(STARTUP_ROWS)
    return {f"{later} - {earlier}": {side: spread([run[side][later] - run[side][earlier]
                                                   for run in runs]) for side in SIDES}
            for earlier, later in zip(names, names[1:])}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median, quartiles and IQR, and the change's
    wins."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(*values.values()))
        out[name] = {"better": m["better"], "wins": wins, "pairs": len(runs),
                     **{side: spread(values[side]) for side in SIDES}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, default=100)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    roots = {"parent": args.parent.resolve(), "change": CHANGE}
    report = {"pr": args.pr, "parent": str(roots["parent"]), "pairs": args.pairs,
              "command": spec["command"] + ["--trace", "0"], "workloads": {}}
    sections = {"cliffs": run_cliffs,
                "rank_cap": functools.partial(run_rows, rows=RANK_CAP_ROWS),
                "rank_128": functools.partial(run_rows, rows=RANK_128_ROWS),
                "contcheck": functools.partial(run_rows, rows=CONTCHECK_ROWS)}
    for root in roots.values():
        checked(root, ("-m", "compileall", "-q", "src", "perfbench"))
    startup = []
    for k in range(args.pairs):
        for name, runner in sections.items():
            pair = alternate(k, roots, runner)
            argvs = [[row.pop("argv") for row in pair[side]] for side in SIDES]
            section = report.setdefault(name, {"rows": argvs[0], "runs": []})
            both = list(zip(pair["parent"], pair["change"]))
            if argvs != [section["rows"]] * 2 or any(p["status"] != c["status"] for p, c in both):
                raise SystemExit(f"bench_pr: {name} argv or exit status differ in pair {k + 1}")
            if differ := sum(p["sha256"] != c["sha256"] for p, c in both):
                print(f"bench_pr: {name} stdout digests differ on {differ} rows in pair {k + 1}",
                      file=sys.stderr)
            section["runs"].append(pair)
            print(f"bench_pr: {name} pair {k + 1}/{args.pairs} done", file=sys.stderr)
        startup.append(alternate(k, roots, run_startup))
    for name in sections:
        summary = report[name]["summary"] = summarize_rows(report[name]["runs"])
        for side in SIDES:
            if varies := sum(len(row[side]["sha256"]) > 1 for row in summary):
                print(f"bench_pr: {name} {side} stdout digests vary between pairs on {varies} "
                      "rows", file=sys.stderr)
    report["startup"] = {"spawns": STARTUP_SPAWNS, "summary": summarize_startup(startup),
                         "runs": startup}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for k in range(args.pairs):
            run = functools.partial(run_side, workload=workload, seed=args.seed0 + k,
                                    seconds=spec["run_seconds"])
            pair = {"seed": args.seed0 + k, **alternate(k, roots, run)}
            report["environment"] = pair["change"].pop("environment")
            pair["parent"].pop("environment")
            runs.append(pair)
            print(f"bench_pr: {workload} pair {k + 1}/{args.pairs} done", file=sys.stderr)
        report["workloads"][workload] = {
            "summary": summarize(runs, spec["end_to_end"]),
            "max_fail_ratio": max(run[side]["fail_ratio"] for run in runs for side in SIDES),
            "runs": runs,
        }
    out = CHANGE / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"bench_pr: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
