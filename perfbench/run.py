"""tdual-lie benchmark: named workloads of real `tdual` CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Jobs run one after another from this
process, a closed loop with one client.  With `--trace 0` the workload's job
list is run once, with calibrate.py before every job, and the end-to-end
metrics are printed; with `--trace 1` one plain round, one traced round and
one sampled round give the per-layer metrics.  Every job's output is
checked.  S is recorded but changes nothing, so a faster program is timed
on the same work as a slower one.

The last stdout line is the result object; the line before it carries the
details (environment, sample counts, the tail percentile, `fail_ratio` and
any failures).
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import checks
import harness
import traced
from workloads import WORKLOADS, Job, make_jobs

SETUP_PER_ROUND = 10
# The calibrate.py times that define a reference second, for its start-up
# part and its work part: measured start-up time is scaled by
# REFERENCE_STARTUP_S / the mean start-up part of the calibrations near it,
# the rest of a job by REFERENCE_WORK_S / their mean work part (see
# NOTES.md).  About what the parts take on the reference host when it runs
# at full speed.
REFERENCE_STARTUP_S = 0.15
REFERENCE_WORK_S = 0.1
CALIBRATE_EVERY = 2  # calibrate.py runs before every second job
# Calibrations on each side of a job that scale it: the host's speed swings
# within seconds, so near ones track it better than the round's mean.
CALIBRATION_WINDOW = 3
JOB_TIMEOUT_S = 60.0
COVERAGE_RANGE = (0.9, 1.1)
# Largest |span self time - sampled share| of any layer, as a share of the
# job's wall time, before the job fails (see traced.attribution_error).
ATTRIBUTION_TOLERANCE = 0.1
TAIL_BEYOND = 10  # the tail percentile has at least this many jobs beyond it


@dataclass
class JobRun:
    job: Job
    outcome: harness.Outcome
    failure: str | None


@dataclass
class Round:
    runs: list[JobRun]
    wall_s: float  # first spawn to last exit
    setup_s: list[tuple[int, float]]  # (index of the next job, bare-import time)
    # calibrate.py (start-up, work) times; entry k was taken just before job
    # k * CALIBRATE_EVERY, and the last one after the last job
    calibration_s: list[tuple[float, float]]

    def scale(self, i: int) -> tuple[float, float]:
        """Reference seconds per measured second of start-up and of work,
        from the CALIBRATION_WINDOW calibrations on each side of job i."""
        k = i // CALIBRATE_EVERY
        near = self.calibration_s[max(0, k - CALIBRATION_WINDOW + 1):k + CALIBRATION_WINDOW + 1]
        startup, work = zip(*near)
        return (REFERENCE_STARTUP_S / statistics.mean(startup),
                REFERENCE_WORK_S / statistics.mean(work))


def run_round(jobs: list[Job], scratch: Path, expected: dict, trace_dir: Path | None = None,
              samples: bool = False, suffix: str = "spans") -> Round:
    """Run every job once.  With `samples`, SETUP_PER_ROUND bare imports are
    spread evenly between the jobs and calibrate.py runs before every
    CALIBRATE_EVERY-th job and after the last.  With `trace_dir`, job i writes
    `trace_dir/i.spans` (span trace) or `trace_dir/i.samples` (sampled)."""
    runs, setup, calibration = [], [], []
    every = max(1, len(jobs) // SETUP_PER_ROUND)
    for i, job in enumerate(jobs):
        if samples and i % every == 0 and len(setup) < SETUP_PER_ROUND:
            setup.append((i, harness.setup_time(scratch)))
        if samples and i % CALIBRATE_EVERY == 0:
            calibration.append(harness.calibration_time(scratch))
        out = trace_dir / f"{i}.{suffix}" if trace_dir is not None else None
        outcome = harness.run_job(job.argv, scratch, JOB_TIMEOUT_S,
                                  spans_path=out if suffix == "spans" else None,
                                  samples_path=out if suffix == "samples" else None)
        if outcome.code is None:
            failure = f"timed out after {JOB_TIMEOUT_S:.0f} s"
        else:
            failure = checks.check_output(job, outcome.code, outcome.stdout, outcome.stderr,
                                          expected)
        runs.append(JobRun(job, outcome, failure))
    if samples:
        calibration.append(harness.calibration_time(scratch))
    return Round(runs, runs[-1].outcome.exited - runs[0].outcome.started, setup, calibration)


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with TAIL_BEYOND jobs
    beyond it, or None when that percentile is not above the median."""
    n = len(walls)
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    if percentile <= 50.0:
        return None
    return percentile, sorted(walls)[n - TAIL_BEYOND - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def job_times(job_s: list[float], setup_s: float) -> dict:
    """wall_s, job_s.p50, job_s.tail (where defined) and setup_s."""
    times = {"wall_s": sum(job_s), "job_s.p50": statistics.median(job_s)}
    tail_at = tail(job_s)
    if tail_at is not None:
        times["job_s.tail"] = tail_at[1]
    times["setup_s"] = setup_s
    return times


def timed(jobs, scratch, expected):
    """One round of the job list, every time scaled to reference seconds.

    The host's speed drifts by up to 1.8x over minutes and swings within
    seconds, and start-up and work drift apart (see NOTES.md).  Each job's
    time is split into start-up, the round's median bare import, and the
    work after it; each part is scaled by the calibrations of its kind taken
    around the job, which removes the drift and most of the swings, and the
    sums and medians over the round's jobs average what is left.  `wall_s`
    is the round's time to solution, the sum of its jobs' times; `setup_s`
    is the median scaled bare import.  The unscaled figures are in the
    details line.
    """
    r = run_round(jobs, scratch, expected, samples=True)
    raw_s = [run.outcome.wall_s for run in r.runs]
    setup_s = statistics.median(t for _, t in r.setup_s)
    scales = [r.scale(i) for i in range(len(jobs))]
    job_s = [min(t, setup_s) * startup + max(t - setup_s, 0.0) * work
             for t, (startup, work) in zip(raw_s, scales)]
    scaled_setup_s = statistics.median(t * scales[i][0] for i, t in r.setup_s)
    metrics = {name: metric(value, "s") for name, value in job_times(job_s, scaled_setup_s).items()}
    metrics["peak_rss_mb"] = metric(max(run.outcome.rss_mb for run in r.runs), "MB")
    tail_at = tail(job_s)
    details = {
        "jobs": len(jobs),
        "unscaled": {**job_times(raw_s, setup_s), "round_wall_s": r.wall_s},
        "scale": scales,
        "calibration_s": r.calibration_s,
        "job_s": job_s,
        "unscaled_job_s": raw_s,
        "job_s.tail_percentile": tail_at[0] if tail_at else None,
        "setup_s_samples": r.setup_s,
    }
    return r.runs, metrics, details


def traced_metrics(jobs, scratch, expected):
    plain = run_round(jobs, scratch, expected)
    trace_dir = scratch / "spans"
    trace_dir.mkdir()
    traced_round = run_round(jobs, scratch, expected, trace_dir)
    sampled = run_round(jobs, scratch, expected, trace_dir, suffix="samples")
    traced_runs = traced_round.runs
    self_s = dict.fromkeys(traced.LAYERS, 0.0)
    calls = dict.fromkeys(traced.LAYERS, 0)
    startup = 0.0
    counts: dict[str, int] = {}
    cache = {"rootdata": [0, 0], "flagcoh": [0, 0]}
    coverage, attribution = [], []
    for i, run in enumerate(traced_runs):
        try:
            prof = traced.job_profile(trace_dir / f"{i}.spans", run.outcome.started,
                                      run.outcome.exited)
            error = traced.attribution_error(prof, trace_dir / f"{i}.samples")
        except (OSError, ValueError, EOFError, KeyError) as exc:
            run.failure = run.failure or f"no usable trace: {exc}"
            continue
        for layer in traced.LAYERS:
            self_s[layer] += prof["self_s"][layer]
            calls[layer] += prof["calls"][layer]
        startup += prof["startup_s"]
        for name, value in prof["counts"].items():
            if name.startswith("zlinalg.max_"):
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        for layer, (hits, misses) in prof["cache"].items():
            cache[layer][0] += hits
            cache[layer][1] += misses
        coverage.append(prof["coverage"])
        lo, hi = COVERAGE_RANGE
        if not lo <= prof["coverage"] <= hi:
            run.failure = run.failure or f"trace.coverage {prof['coverage']:.3f} outside {lo}-{hi}"
        worst = max(error, key=error.get)
        attribution.append(error[worst])
        if error[worst] > ATTRIBUTION_TOLERANCE:
            run.failure = run.failure or (
                f"{worst}.self_s differs from the sampled split by {error[worst]:.3f} of wall")

    metrics = {}
    for layer in traced.LAYERS:
        metrics[f"{layer}.self_s"] = metric(self_s[layer], "s")
        metrics[f"{layer}.calls"] = metric(calls[layer], "count")
    metrics["startup.self_s"] = metric(startup, "s")
    for name in ("zlinalg.cells_in", "zlinalg.max_cells"):
        metrics[name] = metric(counts.get(name, 0), "cells")
    metrics["zlinalg.max_bits"] = metric(counts.get("zlinalg.max_bits", 0), "bits")
    for name in ("zlinalg.nf_calls", "zlinalg.coords_calls", "rootdata.weyl_tried",
                 "rootdata.form_evals", "flagcoh.cycle_tests"):
        metrics[name] = metric(counts.get(name, 0), "count")
    tests = counts.get("flagcoh.cycle_tests", 0)
    metrics["flagcoh.cycle_pass_ratio"] = metric(
        counts.get("flagcoh.cycle_passes", 0) / tests if tests else 0.0, "ratio")
    for layer, (hits, misses) in cache.items():
        metrics[f"{layer}.cache_hit_ratio"] = metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["trace.coverage"] = metric(min(coverage, default=0.0), "ratio")
    metrics["trace.overhead_ratio"] = metric(traced_round.wall_s / plain.wall_s, "ratio")
    details = {"plain_wall_s": plain.wall_s, "traced_wall_s": traced_round.wall_s,
               "jobs": len(jobs),
               "trace.coverage_range": [min(coverage, default=0.0), max(coverage, default=0.0)],
               "attribution_error_max": max(attribution, default=0.0)}
    return plain.runs + traced_runs + sampled.runs, metrics, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the running job is killed and reaped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        harness.require_checkout()
        expected = checks.load_expected()
    except (harness.CheckoutError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=harness.ROOT))
    try:
        harness.check_import(scratch)
        if args.trace:
            runs, metrics, details = traced_metrics(jobs, scratch, expected)
        else:
            runs, metrics, details = timed(jobs, scratch, expected)
    except harness.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [r for r in runs if r.failure]
    for r in failures[:10]:
        print(f"perfbench: FAILED {' '.join(r.job.argv)}: {r.failure}", file=sys.stderr)
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": harness.environment(),
        "fail_ratio": metric(len(failures) / len(runs), "ratio"),
        "failures": [{"argv": list(r.job.argv), "why": r.failure} for r in failures[:10]],
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(runs), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
