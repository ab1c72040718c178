"""Spawning `tdual` jobs the way users run them, one at a time.

Every job is a fresh interpreter started from the root of the checkout with
`src` first on its path, a pinned environment and stdout/stderr captured to
files inside the checkout.  Wall time runs from just before the spawn to the
moment the child has exited; peak memory is the child's own max-RSS.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACED = Path(__file__).with_name("traced.py")
CALIBRATE = Path(__file__).with_name("calibrate.py")
# What the `tdual` console script runs.
ENTRY = "import sys; from tdual_lie.cli import main; sys.exit(main())"
IMPORT_ONLY = "import tdual_lie.cli"


class CheckoutError(Exception):
    """The working directory holds no tdual-lie source tree."""


def require_checkout() -> None:
    if not (SRC / "tdual_lie" / "cli.py").is_file():
        raise CheckoutError(f"no src/tdual_lie/cli.py under {ROOT}; run from the repository root")


def job_env() -> dict[str, str]:
    """The inherited environment without TDUAL_* settings (TDUAL_PRECISION
    changes contcheck output) or other PYTHON* settings, with a fixed hash
    seed and only `src` on the module path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("TDUAL_", "PYTHON")) or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Outcome:
    code: int | None  # None when the job was killed at its timeout
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    started: float  # perf_counter readings at spawn and at exit
    exited: float


def run_process(args: list[str], scratch: Path, timeout: float) -> Outcome:
    """Run `python3 args...` to completion or until `timeout` seconds pass."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    env = job_env()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        lock = threading.Lock()
        exited_seen = False
        killed = False

        def kill_at_timeout():
            nonlocal killed
            with lock:
                if not exited_seen:  # unreaped, so the pid is still our child
                    proc.kill()
                    killed = True

        timer = threading.Timer(timeout, kill_at_timeout)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exited = perf_counter()
            with lock:
                exited_seen = True
        except BaseException:  # interrupted: leave no child behind
            with lock:
                proc.kill()
                exited_seen = True
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        code=None if killed else proc.returncode,
        wall_s=exited - started,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        started=started,
        exited=exited,
    )


def run_job(argv, scratch: Path, timeout: float, spans_path: Path | None = None,
            samples_path: Path | None = None) -> Outcome:
    """Run one job as users run it, or through traced.py when `spans_path`
    (span trace) or `samples_path` (sampled layer split) is given."""
    if spans_path is not None:
        return run_process([str(TRACED), str(spans_path), *argv], scratch, timeout)
    if samples_path is not None:
        return run_process([str(TRACED), "--sample", str(samples_path), *argv], scratch, timeout)
    return run_process(["-c", ENTRY, *argv], scratch, timeout)


def check_import(scratch: Path) -> None:
    """Import once (this also writes the bytecode cache) and make sure the
    package comes from this checkout's `src`."""
    probe = run_process(["-c", "import tdual_lie.cli as c; print(c.__file__)"], scratch, 120)
    where = probe.stdout.decode().strip()
    if probe.code != 0 or Path(where).resolve() != (SRC / "tdual_lie" / "cli.py").resolve():
        raise CheckoutError(f"tdual_lie.cli does not import from {SRC}: {probe.stderr.decode()}")


def setup_time(scratch: Path) -> float:
    """Wall time of a fresh interpreter that only imports tdual_lie.cli."""
    outcome = run_process(["-c", IMPORT_ONLY], scratch, 120)
    if outcome.code != 0:
        raise CheckoutError(f"importing tdual_lie.cli failed: {outcome.stderr.decode()}")
    return outcome.wall_s


def calibration_time(scratch: Path) -> tuple[float, float]:
    """(start-up, work) wall times of calibrate.py, the fixed reference work:
    spawn to the end of its imports, and from there to exit."""
    outcome = run_process([str(CALIBRATE)], scratch, 120)
    if outcome.code != 0:
        raise CheckoutError(f"calibrate.py failed: {outcome.stderr.decode()}")
    imported = float(outcome.stdout.split(b"\n", 1)[0])
    return imported - outcome.started, outcome.exited - imported


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "jobs_in_parallel": 1,
    }
