"""Untimed report of the baseline rows too slow for the timed workloads.

    python3 perfbench/cliffs.py

Runs each cliff job (SU(16) and Spin(32) cohomology/twist; B4xC4, B5xC5,
B3xC3xG2 and F4xG2xB2 langlands) once as users run it and, when that
finished in time, once more through traced.py for its layer split.  A job
still running after CLIFF_TIMEOUT_S is killed and reported as a timeout.  Prints
one JSON line per job and then a table.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import harness
import traced
from workloads import CLIFFS

CLIFF_TIMEOUT_S = 120.0


def measure(job, scratch: Path) -> dict:
    row = {"argv": list(job.argv), "timeout_s": CLIFF_TIMEOUT_S}
    outcome = harness.run_job(job.argv, scratch, CLIFF_TIMEOUT_S)
    if outcome.code is None:
        row.update(status="timeout", wall_s=None)
        return row
    row.update(status=f"exit {outcome.code}", wall_s=outcome.wall_s, peak_rss_mb=outcome.rss_mb,
               sha256=checks.digest(outcome.stdout))
    spans = scratch / "cliff.spans"
    traced_outcome = harness.run_job(job.argv, scratch, CLIFF_TIMEOUT_S, spans)
    if traced_outcome.code is None:
        row["layers"] = "timeout"
        return row
    prof = traced.job_profile(spans, traced_outcome.started, traced_outcome.exited)
    row["traced_wall_s"] = traced_outcome.wall_s
    row["layers"] = {"startup": prof["startup_s"],
                     **{k: v for k, v in prof["self_s"].items() if v}}
    row["counts"] = {k: v for k, v in prof["counts"].items() if v}
    return row


def main() -> int:
    harness.require_checkout()
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=harness.ROOT))
    rows = []
    try:
        harness.check_import(scratch)
        for job in CLIFFS:
            rows.append(measure(job, scratch))
            print(json.dumps(rows[-1], sort_keys=True), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"# environment: {json.dumps(harness.environment(), sort_keys=True)}")
    for row in rows:
        verb, group = row["argv"][0], row["argv"][2]
        if group.startswith("{"):
            group = " x ".join(f"{c['series']}{c['rank']}" for c in json.loads(group)["components"])
        wall = f"{row['wall_s']:.2f} s" if row["wall_s"] is not None else "timeout"
        top = ""
        if isinstance(row.get("layers"), dict):
            layer, secs = max(row["layers"].items(), key=lambda kv: kv[1])
            top = f"  (largest layer: {layer} {secs:.2f} s)"
        print(f"{verb:11s} {group:14s} {wall}{top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
