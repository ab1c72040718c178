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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]


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
