"""Record the stdout digest of every fixed benchmark job in expected.json.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose output is known to be right; the
digests then pin that output byte for byte.  A job whose exit code differs
from the one the workload expects is reported and nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import harness
from workloads import digest_jobs


def main() -> int:
    harness.require_checkout()
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=harness.ROOT))
    recorded, wrong = {}, []
    try:
        for job in digest_jobs():
            outcome = harness.run_job(job.argv, scratch, 600)
            if outcome.code != job.code:
                wrong.append(f"{job.key}: exit {outcome.code}, expected {job.code}")
            recorded[job.key] = checks.digest(outcome.stdout)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} digests in {checks.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
