"""Seeded job lists for the three workloads and the untimed cliff report.

A job is one `tdual` command line plus what its output must satisfy.  The
seed picks twists, torsor shifts, explicit commutator maps, custom
fundamental groups and the job order; the program sees only argv.  The set
of groups and verbs in `ladder-large` and `structure-search` is fixed, so a
different seed changes the inputs but not how much work the workload is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("ladder-large", "structure-search", "small-sweep")


@dataclass(frozen=True)
class Job:
    """One CLI call.  `check` names the output check in checks.py; `facts`
    holds what that check needs to know about the input."""

    argv: tuple[str, ...]
    check: str = "digest"
    code: int = 0
    facts: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return json.dumps(list(self.argv))


def _factor(series: str, rank: int) -> dict:
    return {"series": series, "rank": rank}


def _product(*factors, fundamental_group="simply_connected") -> str:
    data = {"components": [_factor(s, r) for s, r in factors]}
    if fundamental_group != "simply_connected":
        data["fundamental_group"] = fundamental_group
    return json.dumps(data, separators=(",", ":"))


def _shift(rng: random.Random, n: int) -> str:
    """Strictly upper-triangular torsor shift with small entries."""
    rows = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
    return json.dumps(rows, separators=(",", ":"))


def _commutator(rng: random.Random, n: int) -> list[list[str]]:
    """Antisymmetric map to Q/Z with values in {0, 1/2}, as CLI strings."""
    vals = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vals[i][j] = vals[j][i] = Fraction(rng.randint(0, 1), 2)
    return [[str(v) for v in row] for row in vals]


def _extension_b(rng, group, rank):
    b = _commutator(rng, rank)
    return Job(("extension", "--group", group, "--b", json.dumps(b, separators=(",", ":")),
                "--format", "json"), "extension_b", facts={"b": b})


def _json(*argv: str) -> tuple[str, ...]:
    return (*argv, "--format", "json")


# -- ladder-large --------------------------------------------------------------
# Rank 7 to 12: the time goes to a few large normal forms (n^2-row complexes,
# sym^2 invariants, the wedge^3 kernel).  No Weyl search, no loop extension.

LADDER_COHOMOLOGY = ("SU(8)", "SU(9)", "SU(10)", "SU(12)", "PSU(9)", "Spin(16)", "Spin(20)",
                     "Sp(7)", "Sp(8)", "E6", "E7", "E8")
LADDER_TWIST = ("SU(8)", "SU(9)", "SU(10)", "PSU(9)", "Spin(16)", "Spin(18)", "Sp(7)", "Sp(8)",
                "E6", "E7", "E8")
LADDER_DUALIZE = {"SU(8)": 7, "SU(9)": 8, "Spin(16)": 8, "Sp(7)": 7, "E6": 6, "E7": 7,
                  "E8": 8}  # group: rank
LEVELS = (1, 2, 3)


def ladder_large(rng: random.Random) -> list[Job]:
    jobs = [Job(_json("cohomology", "--group", g)) for g in LADDER_COHOMOLOGY]
    jobs += [Job(_json("twist", "--group", g, "--twist", f"level:{rng.choice(LEVELS)}"))
             for g in LADDER_TWIST]
    jobs += [Job(_json("dualize", "--group", g, "--twist", f"level:{rng.choice(LEVELS)}",
                       "--shift", _shift(rng, n)), "dualize")
             for g, n in LADDER_DUALIZE.items()]
    rng.shuffle(jobs)
    return jobs


# -- structure-search ----------------------------------------------------------
# Thousands of small (<= 12x12) solves: Langlands Weyl refinement on products
# that need it, obstructed and first-try cases, and loop-extension
# admissibility with many coroot coordinate solves and rational form values.
# Eight jobs cost more than the four F4 products (0.6 s each at reference
# speed), and the E6 extensions (0.4-0.6 s) come next, so the 11th-slowest
# job, which is job_s.tail, is the third of the F4 cluster rather than at
# the edge between the F4 and E6 classes, where seven jobs put it.

LANGLANDS_FIXED = (
    _product(("B", 3), ("C", 3)),
    _product(("C", 3), ("B", 3)),
    _product(("B", 3), ("C", 3), fundamental_group="adjoint"),
    _product(("F", 4), ("G", 2)),
    _product(("G", 2), ("F", 4)),
    _product(("F", 4), ("B", 2)),
    _product(("B", 2), ("F", 4)),
    _product(("B", 2), ("B", 2), ("G", 2)),
    "B3",
    "Spin(9)",
    "Sp(3)",
    "Spin(11)",
    "E6",
    "E7",
    "E8",
)
EXTENSION_LEVELS = (("E6", 1), ("E6", 3), ("E7", 2), ("E7", 3), ("E8", 3), ("Spin(16)", 2),
                    ("SU(10)", 1))
EXPLICIT_B = {"G2": 2, "F4": 4, "Spin(5)": 2, "Spin(7)": 3, "Spin(9)": 4, "Sp(3)": 3,
              "Sp(4)": 4, "SU(3)": 2, "PSU(3)": 2, "PSU(4)": 3, "SO(3)": 1}


def structure_search(rng: random.Random) -> list[Job]:
    jobs = [Job(_json("langlands", "--group", g)) for g in LANGLANDS_FIXED]
    jobs += [Job(_json("extension", "--group", g, "--level", str(k)))
             for g, k in EXTENSION_LEVELS]
    jobs += [_extension_b(rng, g, n) for g, n in EXPLICIT_B.items()]
    rng.shuffle(jobs)
    return jobs


# -- small-sweep -----------------------------------------------------------------
# Rank <= 4: every job is mostly interpreter start, imports and cli rendering.

SMALL_FACTORS = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                 ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4))
ROOT_COUNTS = {"A": lambda n: n * (n + 1), "B": lambda n: 2 * n * n, "C": lambda n: 2 * n * n,
               "D": lambda n: 2 * n * (n - 1), "G": lambda n: 12, "F": lambda n: 48}


def center_orders(series: str, rank: int) -> list[int]:
    """Orders of the cyclic factors of the simply connected group's center."""
    if series == "A":
        return [rank + 1]
    if series in "BC":
        return [2]
    if series == "D":
        return [2, 2] if rank % 2 == 0 else [4]
    return []


def random_group(rng: random.Random, simply_connected: bool = False,
                 simply_laced: bool = False) -> tuple[str, dict]:
    """A seeded root datum of total rank <= 4, as inline JSON plus facts."""
    pool = [f for f in SMALL_FACTORS if not simply_laced or f[0] in "AD"]
    factors, left = [], 4
    while left and (not factors or rng.random() < 0.4):
        fitting = [f for f in pool if f[1] <= left]
        if not fitting:
            break
        factors.append(rng.choice(fitting))
        left -= factors[-1][1]
    orders = [o for s, r in factors for o in center_orders(s, r)]
    kind = "simply_connected"
    if orders and not simply_connected:
        kind = rng.choice(("simply_connected", "adjoint", "custom"))
    fg = kind
    if kind == "custom":
        gen = [rng.randrange(o) for o in orders]
        k = rng.randrange(len(orders))
        gen[k] = gen[k] or 1
        fg = {"generators": [gen]}
    facts = {"factors": factors, "rank": sum(r for _, r in factors),
             "simply_connected": kind == "simply_connected",
             "roots": sum(ROOT_COUNTS[s](r) for s, r in factors)}
    return _product(*factors, fundamental_group=fg), facts


# Exact output recorded by digest, covering text output, batches, failed
# --expect assertions (exit 1) and handled usage errors (exit 2).
SMALL_FIXED = (
    Job(("group", "--group", "SU(3)")),
    Job(("cohomology", "--group", "SO(3)")),
    Job(("langlands", "--group", "G2")),
    Job(("extension", "--group", "SU(2)", "--level", "2")),
    Job(("twist", "--group", "Sp(3)", "--twist", "level:1")),
    Job(_json("group", "--group-list", "SU(2),SO(3),G2,Spin(8)")),
    Job(_json("cohomology", "--group-list", "SU(4),PSU(4),Spin(7)")),
    Job(("langlands", "--group-list", "B2,G2,F4,B3")),
    Job(_json("extension", "--group", "SU(3)", "--expect", "trivializable"), code=1),
    Job(_json("langlands", "--group", "Spin(7)", "--expect", "available"), code=1),
    Job(("twist", "--group", "SU(2)", "--twist", "[[3]]", "--expect", "dualizable")),
    Job(("twist", "--group", "SU(3)", "--twist", "[[1,0],[0,0]]", "--expect", "cycle"), code=1),
)
SMALL_USAGE = (
    ("group", "--group", "SU(2)", "--group-list", "SU(3)"),
    ("cohomology",),
    ("group", "--group", "Q7"),
    ("twist", "--group", "SU(2)", "--twist", "[[1,"),
    ("frobnicate",),
)


def small_sweep(rng: random.Random) -> list[Job]:
    jobs = list(SMALL_FIXED)
    jobs += [Job(argv, "usage", code=2) for argv in SMALL_USAGE]
    for _ in range(6):
        spec, facts = random_group(rng)
        jobs.append(Job(_json("group", "--group", spec), "group", facts=facts))
    for _ in range(6):
        spec, facts = random_group(rng)
        jobs.append(Job(_json("cohomology", "--group", spec), "cohomology", facts=facts))
    for _ in range(6):
        spec, facts = random_group(rng)
        twist = f"level:{rng.choice(LEVELS)}"
        jobs.append(Job(_json("twist", "--group", spec, "--twist", twist), "twist_level"))
    for _ in range(2):
        spec, facts = random_group(rng)
        n = facts["rank"]
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        jobs.append(Job(_json("twist", "--group", spec, "--twist", json.dumps(rows)), "twist"))
    for _ in range(5):
        spec, facts = random_group(rng)
        jobs.append(Job(_json("dualize", "--group", spec, "--twist",
                              f"level:{rng.choice(LEVELS)}", "--shift",
                              _shift(rng, facts["rank"])), "dualize"))
    for _ in range(5):
        spec, facts = random_group(rng)
        jobs.append(Job(_json("langlands", "--group", spec), "langlands"))
    for _ in range(3):
        spec, facts = random_group(rng, simply_connected=True, simply_laced=True)
        jobs.append(Job(_json("extension", "--group", spec, "--level",
                              str(rng.choice(LEVELS))), "extension_level"))
    for _ in range(3):
        spec, facts = random_group(rng)
        jobs.append(_extension_b(rng, spec, facts["rank"]))
    jobs.append(Job(_json("contcheck"), "contcheck", facts={"grid": 8192}))
    jobs.append(Job(_json("contcheck", "--grid", "16384"), "contcheck", facts={"grid": 16384}))
    rng.shuffle(jobs)
    return jobs


def digest_jobs() -> list[Job]:
    """Every digest-checked job that some seed can produce."""
    jobs = [Job(_json("cohomology", "--group", g)) for g in LADDER_COHOMOLOGY]
    jobs += [Job(_json("twist", "--group", g, "--twist", f"level:{k}"))
             for g in LADDER_TWIST for k in LEVELS]
    jobs += [Job(_json("langlands", "--group", g)) for g in LANGLANDS_FIXED]
    jobs += [Job(_json("extension", "--group", g, "--level", str(k)))
             for g, k in EXTENSION_LEVELS]
    return jobs + list(SMALL_FIXED)


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return {"ladder-large": ladder_large, "structure-search": structure_search,
            "small-sweep": small_sweep}[workload](rng)


# -- cliffs ----------------------------------------------------------------------
# Baseline rows too slow for a timed workload; reported once, untimed.
# F4xG2xB2 langlands (about 5 s, 2918 Weyl elements) would be a quarter of
# a structure-search round, and its best-of-rounds time alone spreads by
# about 28 % from run to run on a noisy host.

CLIFFS = (
    Job(_json("cohomology", "--group", "SU(16)")),
    Job(_json("twist", "--group", "SU(16)", "--twist", "level:1")),
    Job(_json("cohomology", "--group", "Spin(32)")),
    Job(_json("twist", "--group", "Spin(32)", "--twist", "level:1")),
    Job(_json("langlands", "--group", _product(("B", 4), ("C", 4)))),
    Job(_json("langlands", "--group", _product(("B", 5), ("C", 5)))),
    Job(_json("langlands", "--group", _product(("B", 3), ("C", 3), ("G", 2)))),
    Job(_json("langlands", "--group", _product(("F", 4), ("G", 2), ("B", 2)))),
)
