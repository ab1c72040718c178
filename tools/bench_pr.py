"""Paired benchmark of a change against its parent: writes BENCH_<pr>.json.

    python3 tools/bench_pr.py --pr N --parent DIR --pairs K [--seed0 S]

DIR is a checkout of the parent commit; the change is the checkout this
script sits in.  For each workload of BENCHMARK.json and each pair k, both
checkouts run `perfbench/run.py --workload W --seed S+k --trace 0` from
their own root, one after the other; the parent goes first in even pairs
and the change in odd ones, so a drift of the host's speed favours neither.
BENCH_<N>.json, in the root of the change's checkout, holds every run (its
metrics and fail_ratio), and per end-to-end metric each side's median,
quartiles and IQR and the number of pairs the change won (strictly better
in the metric's direction).

Before the workloads, once per pair and in the same alternating order, both
checkouts run `perfbench/cliffs.py`, the untimed report of the rows too slow
for the workloads.  BENCH_<N>.json keeps each cliff row's wall_s, sha256 and
layer split, and per row each side's stdout digest, median wall_s and the
change's wins.  A row whose argv or exit status differs between the two
checkouts stops the script; rows whose stdout digests differ, as on a
deliberate output change, are counted on stderr and keep both digests.

Right after the cliffs, in the same order, both checkouts run each of
RANK_CAP_ROWS once: `group`, `cohomology`, `twist level:1` and `dualize
level:1` on the five rank-32 groups, `extension --level 1` on SU(33),
Spin(64), Sp(32) and Spin(65), where b needs no input, `dualize level:1`
with a shift of one entry above the diagonal on SU(33) and Spin(64) (the
twist gets a cycle test, an H^3 class and dual Chern data; the moved twist
gets dual Chern data and their cycle test, and reuses the twist's class),
`cohomology`, `twist level:1` and `dualize level:1` with a
zero shift on adjoint A1^32, `group` on adjoint A1^32 and on its quotient
by the diagonal Z/2, and `extension` with a 32x32 zero `--b` on PSU(33)
and on adjoint A1^32, the rows no workload or cliff runs at total rank 32,
the cap before `rootdata.MAX_RANK` rose to 128.  The four `--level 1` extension
rows are simply connected, so their admissibility Gram matrix is a solve
against the character basis X = I with no scale; the two `--b` rows
scale it by the exponent of pi_1 (33 and 2), and their integrality check
fails (508 and 32 lines).
Adjoint A1^32 has the most H^3 torsion at total rank 32: its character basis is
2I, so each of its 496 pairs of Smith invariants adds a Z/2, and
`class_in_h3` reads one torsion coordinate per pair.  The two `group` rows
have the most cyclic center factors at total rank 32, 32 copies of Z/2, so they
time the merge of 32 center orders (496 pairs) and the 32 generator lifts
of a quotient.  Next they run each of RANK_128_ROWS once: `group`,
`cohomology`, `twist level:1`, `dualize level:1` with a one-entry shift,
`langlands` and `extension --level 1` on SU(129), PSU(129), Spin(256),
Sp(128) and adjoint A1^128, every verb at the cap 128 (`langlands` and
`extension` give their refusal reports where the group has no Langlands
twist or no level commutator map), and `langlands` and `twist --twist
langlands` on (B32 x C32)^2, whose twist pairs each B32 with a C32.  Then
they run each of CONTCHECK_ROWS once: `contcheck --grid 16384` and `--grid
131072` in JSON, the verb's largest memory.  Each is one `tdual` process
with only the checkout's `src` on its path, killed after TIMEOUT_S = 300 s
and then recorded with status "timeout after 300 s" and wall_s None; as
the status differs, a timeout on one side only stops the script.
BENCH_<N>.json keeps the same per-row figures as for the cliffs (no layer
split), plus the child's `ru_maxrss` from `os.wait4` as maxrss_mb and each
side's median of it; a difference is handled in the same way.  maxrss_mb
is floored at this script's own RSS, since a child's high-water mark
starts from the process it was forked from.

After those rows, in the same order, both checkouts time STARTUP_SPAWNS
fresh processes of each of STARTUP_ROWS: `import tdual_lie.cli` alone and
`group --group SU(2)`.  BENCH_<N>.json keeps, under `startup`, each side's
raw median wall_s per pair (not calibrated, unlike perfbench's `setup_s`)
and per row each side's median over the pairs and the change's wins.  A
start-up process still running after TIMEOUT_S stops the script.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
ENTRY = "import sys; from tdual_lie.cli import main; sys.exit(main())"
STARTUP_ROWS = {"import": ("-c", "import tdual_lie.cli"),
                "group SU(2)": ("-c", ENTRY, "group", "--group", "SU(2)")}
STARTUP_SPAWNS = 20
TIMEOUT_S = 300  # a row that runs longer is killed and reported as timed out
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
RANK_128_ROWS = tuple(
    (verb, "--group", g, *extra)
    for g in ("SU(129)", "PSU(129)", "Spin(256)", "Sp(128)", ADJOINT_A1_128)
    for verb, *extra in (("group",), ("cohomology",), ("twist", "--twist", "level:1"),
                         ("dualize", "--twist", "level:1", "--shift", unit_shift(128)),
                         ("langlands",), ("extension", "--level", "1"))
) + (("langlands", "--group", B32_C32_SQUARED),
     ("twist", "--group", B32_C32_SQUARED, "--twist", "langlands"))
CONTCHECK_ROWS = tuple(("contcheck", "--grid", grid, "--format", "json")
                       for grid in ("16384", "131072"))


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `root`: its end-to-end
    metric values, fail_ratio and environment."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pr: {' '.join(argv[1:])} in {root} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    details, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "fail_ratio": details["fail_ratio"]["value"],
            "environment": details["environment"]}


def run_cliffs(root: Path) -> list[dict]:
    """One `perfbench/cliffs.py` run in `root`: per row its argv, status,
    wall_s, sha256 and layers."""
    argv = [sys.executable, "perfbench/cliffs.py"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pr: perfbench/cliffs.py in {root} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    keep = ("argv", "status", "wall_s", "sha256", "layers")
    return [{k: row.get(k) for k in keep}
            for row in map(json.loads, filter(lambda line: line.startswith("{"),
                                              proc.stdout.splitlines()))]


def job_env(root: Path) -> dict:
    """This process's environment with its PYTHON* and TDUAL_* settings
    stripped as perfbench strips them, and only `root`'s `src` on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("TDUAL_", "PYTHON")) or k == "PYTHONHOME"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    return env


def run_rows(root: Path, rows: tuple) -> list[dict]:
    """Each argv of `rows` once in `root`, as one `tdual` process in
    `job_env`: per row its argv, status, wall_s, sha256 and the child's
    ru_maxrss in MB (maxrss_mb).  A child still running after TIMEOUT_S is
    killed, with status "timeout after TIMEOUT_S s" and wall_s None."""
    env = job_env(root)
    out = []
    for argv in rows:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=root, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        timed_out = threading.Event()
        killer = threading.Timer(TIMEOUT_S, lambda p=proc, e=timed_out: (e.set(), p.kill()))
        killer.start()
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            status, wall_s = f"timeout after {TIMEOUT_S} s", None
        else:
            status = f"exit {proc.returncode}"
        out.append({"argv": list(argv), "status": status, "wall_s": wall_s,
                    "sha256": hashlib.sha256(stdout).hexdigest(),
                    "maxrss_mb": usage.ru_maxrss / 1024.0})
    return out


def run_startup(root: Path) -> dict:
    """Per row of STARTUP_ROWS, the median wall_s of STARTUP_SPAWNS fresh
    processes in `root`, in `job_env`; a process still running after
    TIMEOUT_S stops the run."""
    env, out = job_env(root), {}
    for name, argv in STARTUP_ROWS.items():
        walls = []
        for _ in range(STARTUP_SPAWNS):
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                                      stdin=subprocess.DEVNULL, capture_output=True,
                                      timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise SystemExit(f"bench_pr: startup row {name!r} in {root}: "
                                 f"timeout after {TIMEOUT_S} s") from None
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise SystemExit(f"bench_pr: startup row {name!r} in {root} exited "
                                 f"{proc.returncode}: {proc.stderr.decode().strip()[-500:]}")
        out[name] = statistics.median(walls)
    return out


def summarize_startup(pairs: list[dict]) -> dict:
    """Per startup row: each side's median over the pairs and the change's
    wins."""
    out = {}
    for name in STARTUP_ROWS:
        walls = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        out[name] = {"pairs": len(pairs),
                     "wins": sum(c < p for p, c in zip(walls["parent"], walls["change"])),
                     **{side: {"median_wall_s": statistics.median(ws)}
                        for side, ws in walls.items()}}
    return out


def summarize_rows(pairs: list[dict]) -> dict:
    """Per cliff, rank-cap, rank-128 or contcheck row (its argv joined by spaces): the
    digest each side printed, each side's median wall_s (and maxrss_mb where
    the row has it) and the change's wins in wall_s."""
    out = {}
    for i, row in enumerate(pairs[0]["parent"]):
        walls = {side: [p[side][i]["wall_s"] for p in pairs] for side in ("parent", "change")}
        timed = all(w is not None for ws in walls.values() for w in ws)
        out[" ".join(row["argv"])] = summary = {
            "pairs": len(pairs),
            "wins": sum(c < p for p, c in zip(walls["parent"], walls["change"])) if timed else None,
            **{side: {"sha256": pairs[0][side][i]["sha256"],
                      "median_wall_s": statistics.median(ws) if timed else None}
               for side, ws in walls.items()}}
        if "maxrss_mb" in row:
            for side in ("parent", "change"):
                summary[side]["median_maxrss_mb"] = statistics.median(
                    p[side][i]["maxrss_mb"] for p in pairs)
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median, quartiles and IQR, and the change's
    wins."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"better": m["better"], "wins": wins, "pairs": len(pairs)}
        for side, values in sides.items():
            q1, q3 = quartiles(values)
            out[name][side] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                               "iqr": q3 - q1}
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
    rows = {"cliffs": (run_cliffs, []),
            "rank_cap": (functools.partial(run_rows, rows=RANK_CAP_ROWS), []),
            "rank_128": (functools.partial(run_rows, rows=RANK_128_ROWS), []),
            "contcheck": (functools.partial(run_rows, rows=CONTCHECK_ROWS), [])}
    startup = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name, (runner, pairs) in rows.items():
            pair = {"first": order[0], **{side: runner(roots[side]) for side in order}}
            both = list(zip(pair["parent"], pair["change"]))
            if len(pair["parent"]) != len(pair["change"]) or any(
                    (p["argv"], p["status"]) != (c["argv"], c["status"]) for p, c in both):
                raise SystemExit(f"bench_pr: {name} argv or exit status differ in pair {k + 1}")
            if differ := sum(p["sha256"] != c["sha256"] for p, c in both):
                print(f"bench_pr: {name} stdout digests differ on {differ} rows in pair {k + 1}",
                      file=sys.stderr)
            pairs.append(pair)
            print(f"bench_pr: {name} pair {k + 1}/{args.pairs} done", file=sys.stderr)
        startup.append({"first": order[0], **{side: run_startup(roots[side]) for side in order}})
    for name, (_, pairs) in rows.items():
        report[name] = {"summary": summarize_rows(pairs), "runs": pairs}
    report["startup"] = {"spawns": STARTUP_SPAWNS, "summary": summarize_startup(startup),
                         "runs": startup}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for k in range(args.pairs):
            seed = args.seed0 + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(roots[side], workload, seed, spec["run_seconds"])
            report["environment"] = pair["change"].pop("environment")
            pair["parent"].pop("environment")
            pairs.append(pair)
            print(f"bench_pr: {workload} pair {k + 1}/{args.pairs} done", file=sys.stderr)
        report["workloads"][workload] = {
            "summary": summarize(pairs, spec["end_to_end"]),
            "max_fail_ratio": max(p[s]["fail_ratio"] for p in pairs for s in ("parent", "change")),
            "runs": pairs,
        }
    out = CHANGE / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"bench_pr: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
