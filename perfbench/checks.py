"""Output checks behind `fail_ratio`.

Every job must exit with its expected code and print no traceback.  Fixed
jobs must reproduce the stdout digest recorded in `expected.json` (see
record_digests.py).  Seeded jobs are checked by invariants that hold
whatever the input:

  * the center of the simply connected form has order det(Cartan), pi_1
    divides it, and the root count matches the classification;
  * H^3 of K has free rank = number of simple factors when K is simply
    connected;
  * a level twist is a cycle, and a torsor shift preserves its H^3 class;
  * `match` is true wherever `langlands` is available;
  * a level-derived commutator map is admissible, and an explicit one is
    echoed back and is trivializable exactly when it vanishes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import Job

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    n, out = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def _order(group: dict) -> int:
    if group["free_rank"]:
        return 0
    out = 1
    for d in group["invariant_factors"]:
        out *= d
    return out


def _check_group(r, facts):
    if r["rank"] != facts["rank"] or r["root_count"] != facts["roots"]:
        return "rank or root count differs from the classification"
    if r["simply_connected"] != facts["simply_connected"]:
        return "simply_connected flag differs from the requested fundamental group"
    center, pi1 = _order(r["center"]), _order(r["fundamental_group"])
    if center != det(r["cartan"]) or not pi1 or center % pi1:
        return "|center| != det(Cartan) or |pi_1| does not divide it"
    return None


def _check_cohomology(r, facts):
    if facts["simply_connected"] and r["H3_K"]["free_rank"] != len(facts["factors"]):
        return "H^3 free rank != number of simple factors for a simply connected group"
    return None


def _check_twist(r, facts):
    if r["twist_is_cycle"] != ("h3_class" in r) or r["dualizable"] not in (True, False):
        return "cycle flag, class and dualizability disagree"
    return None


def _check_twist_level(r, facts):
    if not r["twist_is_cycle"]:
        return "a level twist is not a cycle"
    return _check_twist(r, facts)


def _check_dualize(r, facts):
    if not r["twist_is_cycle"]:
        return "a level twist is not a cycle"
    if r["shifted"]["h3_class"] != r["h3_class"]:
        return "the torsor shift moved the H^3 class"
    return None


def _check_langlands(r, facts):
    if r["available"] and r["match"] is not True:
        return "langlands available but the two sides do not match"
    if not r["available"] and not r.get("reason"):
        return "langlands unavailable without a reason"
    return None


def _check_extension_level(r, facts):
    if r["admissibility"]["passed"] is not True:
        return "a level-derived commutator map failed admissibility"
    return None


def _check_extension_b(r, facts):
    if r["commutator_matrix"] != facts["b"]:
        return "the explicit commutator map was not echoed back"
    zero = all(v == "0" for row in facts["b"] for v in row)
    if r["trivializable"] != zero or r["admissibility"]["passed"] not in (True, False):
        return "trivializability differs from b == 0"
    return None


def _check_contcheck(r, facts):
    if r["grid"] != facts["grid"] or r["expected_integral"] != -1.0 / 6.0:
        return "grid or expected integral not echoed"
    if facts["grid"] >= 8192 and r["passed"] is not True:
        return "contcheck failed at the default grid"
    return None


REPORT_CHECKS = {
    "group": _check_group,
    "cohomology": _check_cohomology,
    "twist": _check_twist,
    "twist_level": _check_twist_level,
    "dualize": _check_dualize,
    "langlands": _check_langlands,
    "extension_level": _check_extension_level,
    "extension_b": _check_extension_b,
    "contcheck": _check_contcheck,
}


def check_output(job: Job, code: int, stdout: bytes, stderr: bytes, expected: dict) -> str | None:
    """None when the job's output is right, otherwise why it is not."""
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    if job.check == "digest":
        if job.key not in expected:
            return "no recorded digest for this job"
        if digest(stdout) != expected[job.key]:
            return "stdout differs from the recorded digest"
        return None
    if job.check == "usage":
        if stdout or not stderr.strip():
            return "usage error must print nothing on stdout and a message on stderr"
        return None
    try:
        payload = json.loads(stdout)
        (report,) = payload["reports"]
        if payload["command"] != job.argv[0]:
            return "payload names another command"
        return REPORT_CHECKS[job.check](report, job.facts)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
