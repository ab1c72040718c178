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
layer split, and per row each side's median wall_s and the change's wins; a
row whose stdout digest differs between the two checkouts stops the script.

Right after the cliffs, in the same order, both checkouts run each of
RANK_CAP_ROWS once: `group`, `cohomology`, `twist level:1` and `dualize
level:1` on the five rank-32 groups and `extension --level 1` where b needs
no input, the rows no workload or cliff runs at the rank cap.  Each is one
`tdual` process with only the checkout's `src` on its path; BENCH_<N>.json
keeps the same per-row figures as for the cliffs (no layer split), and a
digest difference stops the script in the same way.

After the rank-cap rows, in the same order, both checkouts time STARTUP_SPAWNS
fresh processes of each of STARTUP_ROWS: `import tdual_lie.cli` alone and
`group --group SU(2)`.  BENCH_<N>.json keeps, under `startup`, each side's
raw median wall_s per pair (not calibrated, unlike perfbench's `setup_s`)
and per row each side's median over the pairs and the change's wins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
ENTRY = "import sys; from tdual_lie.cli import main; sys.exit(main())"
STARTUP_ROWS = {"import": ("-c", "import tdual_lie.cli"),
                "group SU(2)": ("-c", ENTRY, "group", "--group", "SU(2)")}
STARTUP_SPAWNS = 20
RANK_CAP_ROWS = tuple(
    (verb, "--group", group, *extra)
    for group in ("PSU(33)", "SU(33)", "Spin(64)", "Spin(65)", "Sp(32)")
    for verb, extra in (("cohomology", ()), ("twist", ("--twist", "level:1")),
                        ("dualize", ("--twist", "level:1")), ("group", ()))
) + tuple(("extension", "--group", group, "--level", "1") for group in ("SU(33)", "Spin(64)"))


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


def run_rank_cap(root: Path) -> list[dict]:
    """Each of RANK_CAP_ROWS once in `root`, in `job_env`: per row its argv,
    status, wall_s and sha256."""
    env = job_env(root)
    rows = []
    for argv in RANK_CAP_ROWS:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=root, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True)
        rows.append({"argv": list(argv), "status": f"exit {proc.returncode}",
                     "wall_s": time.perf_counter() - start,
                     "sha256": hashlib.sha256(proc.stdout).hexdigest()})
    return rows


def run_startup(root: Path) -> dict:
    """Per row of STARTUP_ROWS, the median wall_s of STARTUP_SPAWNS fresh
    processes in `root`, in `job_env`."""
    env, out = job_env(root), {}
    for name, argv in STARTUP_ROWS.items():
        walls = []
        for _ in range(STARTUP_SPAWNS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                                  stdin=subprocess.DEVNULL, capture_output=True)
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
    """Per cliff or rank-cap row (its argv joined by spaces): the digest both
    sides printed, each side's median wall_s and the change's wins."""
    out = {}
    for i, row in enumerate(pairs[0]["parent"]):
        walls = {side: [p[side][i]["wall_s"] for p in pairs] for side in ("parent", "change")}
        timed = all(w is not None for ws in walls.values() for w in ws)
        out[" ".join(row["argv"])] = {
            "sha256": row["sha256"], "pairs": len(pairs),
            "wins": sum(c < p for p, c in zip(walls["parent"], walls["change"])) if timed else None,
            **{side: {"median_wall_s": statistics.median(ws) if timed else None}
               for side, ws in walls.items()}}
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
    rows = {"cliffs": (run_cliffs, []), "rank_cap": (run_rank_cap, [])}
    key = ("argv", "status", "sha256")
    startup = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name, (runner, pairs) in rows.items():
            pair = {"first": order[0], **{side: runner(roots[side]) for side in order}}
            differ = [" ".join(p["argv"]) for p, c in zip(pair["parent"], pair["change"])
                      if [p.get(x) for x in key] != [c.get(x) for x in key]]
            if differ or len(pair["parent"]) != len(pair["change"]):
                raise SystemExit(f"bench_pr: {name} stdout digests differ in pair {k + 1}: {differ}")
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
