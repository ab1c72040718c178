"""Check that a change prints what its parent prints, argv by argv.

    python3 tools/same_output.py --parent DIR

DIR is a checkout of the parent commit; the change is the checkout this
script sits in.  Each argv runs once in each checkout, as one `tdual`
process that `bench_pr.spawn` starts in that checkout and kills after
`bench_pr.TIMEOUT_S`.  The argv are every
`perfbench/workloads.digest_jobs()` row, `make_jobs(w, s)` for seeds 1-5 of
each workload, the cliff rows, bench_pr's RANK_CAP_ROWS and CONTCHECK_ROWS,
DOUBLE_DATUM_ROWS (every verb over `--group-list SU(4),SU(4)`, `extension
--b` over PSU(4) twice, and `cohomology`, `twist --twist level:1` and
`extension --level 1` over `--group-list SU(4),Sp(3),SU(4),PSU(4)`),
QUOTIENT_ROWS, SPEC_ROWS, CENTER_ROWS (`group --format
json` on A1 x A2, A1 x A1 x A3, A2 x A5 x E6, A4 x A9 and D4 x D5 x A1 x E7,
simply connected and adjoint), LEVEL_ROWS (`extension --level 1..3`, text
and JSON, on Spin(5), Sp(3), Spin(7), G2, F4, B3 x C3 and Sp(32)),
HELP_ROWS (`--help`, `-h` and `VERB --help` for each of the seven verbs) and
TORSION_ROWS (`twist --twist level:1` and `dualize --twist level:1` with a
one-entry shift, text and JSON, on adjoint A1^3, D4, A2 x A2, A1 x A3,
B3 x C3, D4^32, A1 x A1 and A3, the D6 x D5 x A1 quotient, D4^8 / (Z/2)^3
and bench_pr's A1_128_QUOTIENT, A1^128 modulo 60 fixed Z/2 generators;
D4^32 and the A1^128 quotient have total rank 128 and a Smith basis U that
is not the identity), bench_pr's RANK_128_ROWS (every verb on the five
groups of total rank 128, `langlands` and `twist --twist langlands` on
(B32 x C32)^2, and `twist` and `dualize` at `level:1` on A1_128_QUOTIENT),
LANGLANDS_ROWS (`langlands` in text and with `--expect match`, `twist
--twist langlands` and `dualize --twist langlands` with a one-entry shift,
on B_n x C_n and C_n x B_n for n = 3..6, simply connected and adjoint, E6 x
G2, D4 x B2 x G2, SO(3), PSU(4) and adjoint D4) and PAIRING_ROWS (the same
four argv on B3 x C3 x B3 x C3, C3 x B3 x C3 x B3, B3 x B3 x C3 x C3 and
B4 x C3 x C4 x B3, simply connected and adjoint, on the refusals C4 x B4 x
C4 and B3 x A2 x C4, and on (B32 x C32)^2) and EDGE_ROWS (`extension --b`
on SU(3), SO(3), PSU(4) and adjoint D4 at `--level` 1 and 2, text and JSON,
with the entries "1/3", "1/4", "1/6", "2/4", "-1/2" and "0.25" above the
diagonal and their negatives below; the nonzero-diagonal,
non-antisymmetric and wrong-size `--b` refusals on SU(3); `cohomology` and
`twist --twist level:1` over the `--group-list` of SU(2), an inline JSON
quotient of A3 and SO(3), which is refused; `twist` and `dualize` with a
one-entry shift at `level:0`, u = 0, on SU(3) and PSU(4); `langlands` and
`twist --twist langlands` on SU(2)), CONTCHECK_TEXT_ROWS (`contcheck`
in text at the default grid,
and `contcheck --grid 844` in text and JSON), EMPTY_FLAG_ROWS (an empty
`--shift` on `dualize`, an empty `--b` on `extension`, an empty `--output`
on `group`, and an empty `--group` beside `--group-list` and alone),
REFUSED_INPUT_ROWS (`langlands` on root-datum JSON with a `label` key,
adjoint A2 labelled SU(3) and G2 labelled dual(E8); `group -g SU(2)`;
`group --group " SU(3) "`; and a JSON key given twice, in a `--group` and
inside a `--group-list`), EXPECT_ROWS (each verb with each of the seven
`--expect` keys on SU(3), `twist` and `dualize` at `level:1`, `dualize` with
a one-entry shift, `extension` at the default level and `contcheck` at the
default grid), REFUSAL_ROWS (`group --group` on E9, JSON with no
components, A129, an unknown `fundamental_group` string, a generator of the
wrong length on A1, SU(x), SU(1), PSU(1), Spin(6), SO(4), Sp(2) and a
lowercase JSON series; a non-square and a below-diagonal `--shift` on
`dualize` of SU(3) at `level:1`; a ragged `--twist` on SU(3)) and FILE_ROWS
(`file_rows`: `--group @F` on the A3 quotient and on A1 with 129
generators, `cohomology --group-list SU(2),@F,SO(3)`, `twist --twist @T`,
`dualize --shift @S` and `extension --b @B` on SU(3), `--group @/dev/null`,
which is malformed JSON, and an @FILE that does not exist), each distinct
argv once.  `main` writes
the files FILE_ROWS read into one temporary directory before any row runs.
Against a parent that upper-cases a JSON series, one argv differs by design:
`group --group '{"components":[{"series":"a","rank":2}]}'`, where the
parent exits 0 with A2's report and the change exits 2 with one `error:`
line and an empty stdout.
Every argv whose exit code, stdout or stderr differs, or that timed out on
both sides, is printed with both sides' status and stderr, and the script
exits 1 if any is.  When both sides' stdout parse as JSON, the sorted key
paths whose values differ (`reports.0.h3_class.torsion`) are printed too;
otherwise the sorted keys of the text lines that differ (`h3_class.free`,
the part of a line before ": ").
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent),
                str(Path(__file__).resolve().parents[1] / "perfbench")]

from bench_pr import (A1_128_QUOTIENT, B32_C32_SQUARED, CHANGE, CONTCHECK_ROWS,  # noqa: E402
                      ENTRY, RANK_128_ROWS, RANK_CAP_ROWS, UNIT_SHIFT_32, ZERO_32, spawn,
                      unit_shift)
from workloads import CLIFFS, WORKLOADS, digest_jobs, make_jobs  # noqa: E402

SEEDS = range(1, 6)
# Batches that build one datum twice: equal data built apart solve for their
# character bases apart, and must print what one shared solve printed.  Then
# batches that alternate distinct data, where a cache of one datum's values
# would be evicted and refilled: each datum computes and keeps its own.
TWICE = "SU(4),SU(4)"
ALTERNATING = "SU(4),Sp(3),SU(4),PSU(4)"
DOUBLE_DATUM_ROWS = (
    ("group", "--group-list", TWICE),
    ("cohomology", "--group-list", TWICE),
    ("twist", "--group-list", TWICE, "--twist", "level:1"),
    ("dualize", "--group-list", TWICE, "--twist", "level:1",
     "--shift", "[[0,1,0],[0,0,0],[0,0,0]]"),
    ("langlands", "--group-list", TWICE),
    ("extension", "--group-list", TWICE, "--level", "1"),
    ("extension", "--group-list", "PSU(4),PSU(4)", "--b", "[[0,0,0],[0,0,0],[0,0,0]]"),
    ("cohomology", "--group-list", ALTERNATING),
    ("twist", "--group-list", ALTERNATING, "--twist", "level:1"),
    ("extension", "--group-list", ALTERNATING, "--level", "1"),
)
# A rank-32 quotient by three generators, D4^8 / (Z/2)^3: its integral basis
# is a Hermite basis and its character basis has three Smith invariants 2, so
# pi_1 = (Z/2)^3 and H^3 has torsion pairs.
D4_8_QUOTIENT = json.dumps(
    {"components": [{"series": "D", "rank": 4}] * 8,
     "fundamental_group": {"generators": [[1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1],
                                          [0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0],
                                          [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0]]}},
    separators=(",", ":"))
QUOTIENT_ROWS = (
    ("group", "--group", D4_8_QUOTIENT),
    ("cohomology", "--group", D4_8_QUOTIENT),
    ("twist", "--group", D4_8_QUOTIENT, "--twist", "level:1"),
    ("dualize", "--group", D4_8_QUOTIENT, "--twist", "level:1", "--shift", UNIT_SHIFT_32),
    ("extension", "--group", D4_8_QUOTIENT, "--b", ZERO_32),
)


def product(factors, fundamental_group="simply_connected") -> str:
    """The --group JSON of the product of `factors`, (series, rank) pairs."""
    return json.dumps({"components": [{"series": s, "rank": r} for s, r in factors],
                       "fundamental_group": fundamental_group}, separators=(",", ":"))


# One custom quotient per row of the center-generator table (A_n, B_n, C_n,
# D_even, D_odd, E6, E7), and the trivial quotients of simply connected,
# simply laced groups, whose integral basis is the Hermite basis of the
# coroots rather than the coroots themselves.
TABLE_QUOTIENTS = tuple(product(factors, {"generators": gens}) for factors, gens in (
    ([("A", 5), ("A", 2)], [[1, 1]]),
    ([("A", 3)], [[2]]),
    ([("D", 4)], [[1, 0]]),
    ([("D", 4)], [[0, 1]]),
    ([("D", 4)], [[1, 1]]),
    ([("D", 5)], [[1]]),
    ([("D", 5)], [[2]]),
    ([("E", 6)], [[1]]),
    ([("E", 7)], [[1]]),
    ([("B", 3), ("C", 3)], [[1, 1]]),
    ([("C", 4), ("A", 3)], [[1, 2]]),
    ([("D", 6), ("D", 5), ("A", 1)], [[1, 0, 2, 1], [0, 1, 1, 0]]),
))
TRIVIAL_QUOTIENTS = tuple(product(factors, {"generators": gens}) for factors, gens in (
    ([("A", 3)], [[0]]),
    ([("A", 4)], [[0]]),
    ([("D", 4)], [[0, 0]]),
    ([("D", 5)], [[0]]),
    ([("E", 6)], [[0]]),
    ([("E", 7)], [[0]]),
))
# Products whose cyclic center orders `center` merges or reorders into a
# divisor chain (A1 x A2: 2, 3 into 6; A2 x A5 x E6: 3, 6, 3 into 3, 3, 6;
# D4 x D5 x A1 x E7: 2, 2, 4, 2, 2 into 2, 2, 2, 2, 4), simply connected and
# adjoint.
CENTER_PRODUCTS = ((("A", 1), ("A", 2)), (("A", 1), ("A", 1), ("A", 3)),
                   (("A", 2), ("A", 5), ("E", 6)), (("A", 4), ("A", 9)),
                   (("D", 4), ("D", 5), ("A", 1), ("E", 7)))
CENTER_ROWS = tuple(("group", "--format", "json", "--group", product(factors, fg))
                    for factors in CENTER_PRODUCTS for fg in ("simply_connected", "adjoint"))
SPEC_ROWS = tuple(
    [(verb, "--group", g, *extra) for g in TABLE_QUOTIENTS
     for verb, *extra in (("group",), ("cohomology",), ("twist", "--twist", "level:1"),
                          ("langlands",))]
    + [("extension", "--group", g, "--level", "1") for g in TRIVIAL_QUOTIENTS])
# Simply connected groups that are not simply laced, whose commutator map
# `extension --level` reads off the lattice Gram matrix as on A, D and E.
B3_C3 = json.dumps({"components": [{"series": "B", "rank": 3}, {"series": "C", "rank": 3}]},
                   separators=(",", ":"))
LEVEL_ROWS = tuple(
    ("extension", "--group", g, "--level", str(k), *fmt)
    for g in ("Spin(5)", "Sp(3)", "Spin(7)", "G2", "F4", B3_C3, "Sp(32)")
    for k in (1, 2, 3) for fmt in ((), ("--format", "json")))
HELP_ROWS = (("--help",), ("-h",), *((verb, "--help") for verb in (
    "group", "cohomology", "twist", "dualize", "langlands", "extension", "contcheck")))
# Groups whose pi_1 has two or more nontrivial invariant factors, so that
# `h3_class.torsion` is printed in coordinates relative to the Smith basis U
# of the character basis: any Smith U gives an isomorphic coordinate system,
# so a change of U moves these coordinates and nothing else.  Adjoint
# A1 x A1 (one torsion pair) and adjoint A3 = PSU(4) (one invariant factor,
# no pair) are the two edges of `flagcoh.class_in_h3`'s early return.
TORSION_GROUPS = (
    *(product(factors, "adjoint")
      for factors in ((("A", 1),) * 3, (("D", 4),), (("A", 2), ("A", 2)),
                      (("A", 1), ("A", 3)), (("B", 3), ("C", 3)), (("D", 4),) * 32,
                      (("A", 1),) * 2, (("A", 3),))),
    TABLE_QUOTIENTS[-1],  # D6 x D5 x A1 by two generators
    D4_8_QUOTIENT,
    A1_128_QUOTIENT,
)


TORSION_ROWS = tuple(
    row + fmt
    for g in TORSION_GROUPS
    for row in (("twist", "--group", g, "--twist", "level:1"),
                ("dualize", "--group", g, "--twist", "level:1",
                 "--shift", unit_shift(sum(c["rank"] for c in json.loads(g)["components"]))))
    for fmt in ((), ("--format", "json")))


# Groups with a Langlands twist, with their ranks: the cross-matched B_n x C_n
# pairs in both orders, simply connected and adjoint, products whose
# self-dual factors take a Weyl word, and small quotients.
LANGLANDS_GROUPS = (
    *((product(factors, fg), 2 * n) for n in range(3, 7)
      for factors in ((("B", n), ("C", n)), (("C", n), ("B", n)))
      for fg in ("simply_connected", "adjoint")),
    (product((("E", 6), ("G", 2))), 8), (product((("D", 4), ("B", 2), ("G", 2))), 8),
    ("SO(3)", 1), ("PSU(4)", 3), (product((("D", 4),), "adjoint"), 4),
)
# Products with several B_n x C_n pairs, in which `require_phi` pairs the
# k-th B_n with the k-th C_n, simply connected and adjoint; two refusals,
# where a C4 or a B3 has no partner; and (B32 x C32)^2 at total rank 128.
PAIRING_GROUPS = (
    *((product(factors, fg), sum(r for _, r in factors))
      for factors in ((("B", 3), ("C", 3)) * 2, (("C", 3), ("B", 3)) * 2,
                      (("B", 3),) * 2 + (("C", 3),) * 2,
                      (("B", 4), ("C", 3), ("C", 4), ("B", 3)))
      for fg in ("simply_connected", "adjoint")),
    (product((("C", 4), ("B", 4), ("C", 4))), 12), (product((("B", 3), ("A", 2), ("C", 4))), 9),
    (B32_C32_SQUARED, 128),
)


def langlands_rows(groups) -> tuple[tuple[str, ...], ...]:
    """`langlands` in text and with `--expect match`, `twist --twist
    langlands` and `dualize --twist langlands` with a one-entry shift, on
    each (group, rank) of `groups`."""
    return tuple(
        (verb, "--group", g, *extra)
        for g, n in groups
        for verb, *extra in (("langlands",), ("langlands", "--expect", "match"),
                             ("twist", "--twist", "langlands"),
                             ("dualize", "--twist", "langlands", "--shift", unit_shift(n))))


LANGLANDS_ROWS = langlands_rows(LANGLANDS_GROUPS)
PAIRING_ROWS = langlands_rows(PAIRING_GROUPS)


def b_matrix(n: int, entry: str) -> str:
    """The n x n --b matrix with `entry` above the diagonal and its negative
    below."""
    neg = entry[1:] if entry.startswith("-") else "-" + entry
    return json.dumps([[0 if i == j else entry if i < j else neg for j in range(n)]
                       for i in range(n)], separators=(",", ":"))


# Inputs that no other row reaches: `--b` entries with denominators 3, 4 and
# 6, unreduced, negative and decimal; the three `--b` refusals (a nonzero
# diagonal, no antisymmetry, the wrong size); a JSON spec inside
# `--group-list`, which is refused; the zero twist `level:0`; and SU(2)'s
# Langlands dual label.
EDGE_ROWS = tuple(
    ("extension", "--group", g, "--level", str(k), "--b", b_matrix(n, entry), *fmt)
    for g, n in (("SU(3)", 2), ("SO(3)", 1), ("PSU(4)", 3), (product((("D", 4),), "adjoint"), 4))
    for k in (1, 2) for entry in ("1/3", "1/4", "1/6", "2/4", "-1/2", "0.25")
    for fmt in ((), ("--format", "json"))
) + tuple(
    ("extension", "--group", "SU(3)", "--b", b, *fmt)
    for b in ('[["1/2","1/3"],["-1/3",0]]', '[[0,"1/3"],["1/3",0]]', b_matrix(3, "1/3"))
    for fmt in ((), ("--format", "json"))
) + tuple(
    (verb, "--group-list", f"SU(2),{TABLE_QUOTIENTS[1]},SO(3)", *extra)
    for verb, *extra in (("cohomology",), ("twist", "--twist", "level:1"))
) + tuple(
    row + fmt
    for g, n in (("SU(3)", 2), ("PSU(4)", 3))
    for row in (("twist", "--group", g, "--twist", "level:0"),
                ("dualize", "--group", g, "--twist", "level:0", "--shift", unit_shift(n)))
    for fmt in ((), ("--format", "json"))
) + (("langlands", "--group", "SU(2)"), ("twist", "--group", "SU(2)", "--twist", "langlands"))


CONTCHECK_TEXT_ROWS = (("contcheck",), ("contcheck", "--grid", "844"),
                       ("contcheck", "--grid", "844", "--format", "json"))
EMPTY_FLAG_ROWS = (
    ("dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", ""),
    ("extension", "--group", "SU(3)", "--b", ""),
    ("group", "--group", "SU(2)", "--output", ""),
    ("group", "--group", "", "--group-list", "SU(2)"),
    ("group", "--group", ""),
)
# Inputs a parent read and the change refuses: a root-datum `label`, which
# renamed the group and its Langlands dual (PSU(3) as SU(3), G2 as dual(E8)),
# the `-g` alias, a group name with spaces around it, and a repeated key.
REPEATED_KEY = '{"components":[{"series":"A","rank":1}],"components":[{"series":"A","rank":2}]}'
REFUSED_INPUT_ROWS = (
    ("langlands", "--group", '{"components":[{"series":"A","rank":2}],'
     '"fundamental_group":"adjoint","label":"SU(3)"}'),
    ("langlands", "--group", '{"components":[{"series":"G","rank":2}],"label":"dual(E8)"}'),
    ("group", "-g", "SU(2)"),
    ("group", "--group", " SU(3) "),
    ("group", "--group", REPEATED_KEY),
    ("group", "--group-list", f"SU(2),{REPEATED_KEY},SO(3)"),
)
# Every verb with each --expect key, on SU(3): a verb takes only the keys
# whose entry its reports carry, and refuses the others.
EXPECT_ROWS = tuple(
    (*row, "--expect", key)
    for row in (("group", "--group", "SU(3)"), ("cohomology", "--group", "SU(3)"),
                ("twist", "--group", "SU(3)", "--twist", "level:1"),
                ("dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", unit_shift(2)),
                ("langlands", "--group", "SU(3)"), ("extension", "--group", "SU(3)"),
                ("contcheck",))
    for key in ("trivializable", "not-trivializable", "match", "available", "dualizable",
                "cycle", "pass"))
# A refusal from each library check that the command line reaches and no
# other row does: every such check raises a plain TdualError, so its one
# stderr line is all that names it.
A1 = '{"components":[{"series":"A","rank":1}]'
REFUSAL_ROWS = (
    *(("group", "--group", g) for g in (
        "E9", '{"components":[]}', "A129", A1 + ',"fundamental_group":"weird"}',
        A1 + ',"fundamental_group":{"generators":[[1,1]]}}',
        "SU(x)", "SU(1)", "PSU(1)", "Spin(6)", "SO(4)", "Sp(2)",
        '{"components":[{"series":"a","rank":2}]}')),
    ("dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", "[[0,1]]"),
    ("dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", "[[0,0],[1,0]]"),
    ("twist", "--group", "SU(3)", "--twist", "[[1,2],[3]]"),
)
# The files FILE_ROWS read, by name.  `main` writes them into one temporary
# directory before any row runs, so each path is absolute and the same in
# both checkouts; MISSING is never written.
FILES = {
    "quotient.json": TABLE_QUOTIENTS[1],
    "generators.json": A1 + ',"fundamental_group":{"generators":%s}}' % json.dumps([[1]] * 129),
    "twist.json": "[[2,-1],[-1,2]]",
    "shift.json": "[[0,1],[0,0]]",
    "b.json": '[[0,"1/3"],["-1/3",0]]',
}
MISSING = "missing.json"


def file_rows(directory: Path) -> tuple[tuple[str, ...], ...]:
    """FILE_ROWS: each @FILE input read from FILES in `directory`, then
    /dev/null (malformed JSON) and MISSING (unreadable)."""
    at = {name: f"@{directory / name}" for name in (*FILES, MISSING)}
    return (
        ("group", "--group", at["quotient.json"]),
        ("group", "--group", at["generators.json"]),
        ("cohomology", "--group-list", f"SU(2),{at['quotient.json']},SO(3)"),
        ("twist", "--group", "SU(3)", "--twist", at["twist.json"]),
        ("dualize", "--group", "SU(3)", "--twist", "level:1", "--shift", at["shift.json"]),
        ("extension", "--group", "SU(3)", "--b", at["b.json"]),
        ("group", "--group", "@/dev/null"),
        ("group", "--group", at[MISSING]),
    )


def all_argv(directory: Path) -> list[tuple[str, ...]]:
    """The rows named in the module docstring, in that order, each once;
    FILE_ROWS read their files from `directory`."""
    jobs = digest_jobs() + [job for w in WORKLOADS for s in SEEDS for job in make_jobs(w, s)]
    rows = ([job.argv for job in jobs + list(CLIFFS)]
            + list(RANK_CAP_ROWS + CONTCHECK_ROWS + DOUBLE_DATUM_ROWS + QUOTIENT_ROWS
                   + SPEC_ROWS + CENTER_ROWS + LEVEL_ROWS + HELP_ROWS + TORSION_ROWS
                   + RANK_128_ROWS + LANGLANDS_ROWS + PAIRING_ROWS + EDGE_ROWS
                   + CONTCHECK_TEXT_ROWS + EMPTY_FLAG_ROWS + REFUSED_INPUT_ROWS
                   + EXPECT_ROWS + REFUSAL_ROWS + file_rows(directory)))
    return list(dict.fromkeys(map(tuple, rows)))


_ABSENT = object()  # the value of a key that one side's object lacks


def differing_paths(old, new, path: tuple[str, ...] = ()) -> list[str]:
    """The sorted dotted key paths (`reports.0.h3_class.torsion`) at which two
    parsed JSON values differ.  Objects are compared key by key, and lists
    of one length that hold objects or lists item by item, so a matrix is
    named by its rows and a vector as a whole; any other difference (a key
    on one side only, a list length, a type or a value) is named at the path
    where it appears, `<root>` for the whole document."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(k, old.get(k, _ABSENT), new.get(k, _ABSENT)) for k in old.keys() | new.keys()]
    elif (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
          and any(isinstance(x, (dict, list)) for x in old + new)):
        pairs = list(zip(map(str, range(len(old))), old, new))
    else:
        return [] if type(old) is type(new) and old == new else [".".join(path) or "<root>"]
    return sorted(p for k, a, b in pairs for p in differing_paths(a, b, (*path, k)))


def json_diff(old: bytes, new: bytes) -> list[str] | None:
    """`differing_paths` of two stdouts, or None unless both parse as JSON."""
    try:
        return differing_paths(json.loads(old), json.loads(new))
    except ValueError:
        return None


def text_diff(old: bytes, new: bytes) -> list[str]:
    """The sorted keys of the lines that differ between two text stdouts,
    lines matched as `difflib` matches them: a key is the part of a line
    before ": " (`h3_class.free`), or the whole line if it has none."""
    a, b = (out.decode("utf-8", "replace").splitlines() for out in (old, new))
    opcodes = difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
    changed = [line for tag, i1, i2, j1, j2 in opcodes if tag != "equal"
               for line in a[i1:i2] + b[j1:j2]]
    return sorted({line.split(": ", 1)[0] for line in changed})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        for name, text in FILES.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        return compare(parent, all_argv(Path(tmp)))


def compare(parent: Path, rows) -> int:
    """Run each row in `parent` and in this checkout and print what differs;
    1 if any row does, else 0."""
    differ = 0
    for k, row in enumerate(rows, 1):
        old, new = (spawn(root, ("-c", ENTRY, *row)) for root in (parent, CHANGE))
        what = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
        if old.wall_s is None and new.wall_s is None:
            what = ["timed out on both sides"]
        if what:
            differ += 1
            print(f"differs ({', '.join(what)}): {' '.join(row)}")
            for side, child in (("parent", old), ("change", new)):
                print(f"  {side}: {child.status}, stderr "
                      f"{child.stderr.decode('utf-8', 'replace')!r}")
            paths = json_diff(old.stdout, new.stdout) if old.stdout != new.stdout else None
            if paths is not None:
                print(f"  JSON paths: {', '.join(paths) or 'none, the parsed values are equal'}")
            elif old.stdout != new.stdout:
                keys = text_diff(old.stdout, new.stdout)
                print(f"  text keys: {', '.join(keys) or 'none, the lines are equal'}")
        if k % 100 == 0:
            print(f"same_output: {k}/{len(rows)} argv run", file=sys.stderr)
    print(f"same_output: {len(rows)} argv, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
