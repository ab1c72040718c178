"""Lattice central extensions: commutator maps and trivializability."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual_lie import loopext
from tdual_lie.cli import report_extension, resolve_group
from tdual_lie.errors import RequiresExplicitB
from tdual_lie.loopext import (
    admissibility_check,
    commutator_from_level,
    commutator_from_matrix,
    fibrewise_trivializable,
    lift_commutator,
    mod1,
)
from tdual_lie.rootdata import all_coroots, build, form_pairing, langlands_dual, named_group
from tdual_lie.zlinalg import IntMatrix, solve_columns

from test_flagcoh import root_data
from test_zlinalg import bareiss_det


def fractions_of(b):
    """The values of a commutator map as Fractions."""
    return [[Fraction(*v) for v in row] for row in b.values]


def fraction_value(values, x, y):
    """b(x, y) in [0, 1) for x, y in basis coordinates, summed in Fractions
    from b's `values` on the basis."""
    total = Fraction(0)
    for xi, row in zip(x, values):
        if xi:
            total += xi * sum(v * yj for v, yj in zip(row, y) if yj)
    return total % 1


def admissibility_by_fractions(rd, level, values):
    """The admissibility report with every b(lambda_k, H) from
    `fraction_value`, basis vector by coroot, each coroot solved for in the
    integral and coroot bases: the oracle for the integer route of
    `admissibility_check`."""
    n = rd.rank
    pairing = form_pairing(rd, level, rd.integral.basis)
    det = abs(bareiss_det(rd.cartan))
    gram = rd.integral.basis.transpose() @ solve_columns(rd.cartan.transpose(), pairing.scale(det))
    integrality = [
        f"<lambda_{j}, lambda_{k}> = {Fraction(gram[j, k], det)} is not an integer"
        for j in range(n) for k in range(j, n) if gram[j, k] % det
    ]
    coroots = tuple(all_coroots(rd))
    targets = IntMatrix.from_columns(coroots, rows=n)
    coords = solve_columns(rd.integral.basis, targets)
    forms = solve_columns(rd.cartan, targets).transpose() @ pairing
    half = []
    for k in range(n):
        e_k = [1 if t == k else 0 for t in range(n)]
        for h, coroot in enumerate(coroots):
            got = fraction_value(values, e_k, coords.column(h))
            want = Fraction(forms[h, k] % 2, 2)
            if got != want:
                half.append(f"b(basis_{k}, coroot {coroot}) = {got} but [<.,.>/2] = {want}")
    return {
        "passed": not integrality and not half,
        "integrality_violations": integrality,
        "half_pairing_violations": half,
    }


ADJOINT_BCFG = [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("F", 4), ("G", 2)]
# Quotients whose Hermite integral basis makes form_pairing(B) non-symmetric
# mod 2, so that <lambda_k, H> = (P^T c)_k and (P c)_k differ.
QUOTIENTS = [([("D", 4)], [[1, 0]]), ([("D", 4)], [[1, 1]]), ([("A", 3), ("A", 1)], [[3, 1]]),
             ([("A", 3)], [[2]]), ([("D", 5)], [[2]])]


@st.composite
def loop_data(draw):
    """(rd, level, entries): an adjoint B, C, F or G group, one of
    `QUOTIENTS` or any `root_data()`, then half the time its Langlands dual,
    whose Cartan matrix is the transpose; a level from 1 to 3; entries k/q
    of b, as pairs (k, q), with q in {1, 2, 3, 4, 6, 12} and the pairs not
    always reduced."""
    kind = draw(st.sampled_from(["adjoint", "quotient", "any"]))
    if kind == "adjoint":
        rd = build([draw(st.sampled_from(ADJOINT_BCFG))], "adjoint")
    elif kind == "quotient":
        comps, gens = draw(st.sampled_from(QUOTIENTS))
        rd = build(comps, {"generators": gens})
    else:
        rd = draw(root_data())
    if draw(st.booleans()):
        rd = langlands_dual(rd)
    n = rd.rank
    entries = [[(0, 1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k, q = draw(st.integers(-30, 30)), draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
            entries[i][j], entries[j][i] = (k, q), (-k, q)
    return rd, draw(st.integers(1, 3)), entries


def report_by_fractions(rd, level, entries):
    """The `extension --b` report built over Q, with str(Fraction) for every
    value written: the oracle for the integer pairs of `loopext`."""
    values = [[Fraction(k, q) % 1 for k, q in row] for row in entries]
    nz = next(((i, j, v) for i, row in enumerate(values) for j, v in enumerate(row) if v), None)
    if nz is None:
        explanation = "commutator map vanishes, so the lattice extension splits"
    else:
        explanation = (
            f"commutator map does not vanish: b(basis_{nz[0]}, basis_{nz[1]}) = {nz[2]}; "
            "the lattice extension is nonabelian, so no fibrewise trivialization exists")
    n = rd.rank
    return {
        "group": rd.label,
        "level": level,
        "trivializable": nz is None,
        "commutator_matrix": [[str(v) for v in row] for row in values],
        "witness_pair": [nz[0], nz[1]] if nz else None,
        "witness_value": str(nz[2]) if nz else None,
        "explanation": explanation,
        "lift": [[str(values[i][j] if i <= j else -values[j][i]) for j in range(n)]
                 for i in range(n)],
        "admissibility": admissibility_by_fractions(rd, level, values),
    }


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(loop_data())
def test_extension_report_matches_fraction_route(data):
    """The whole report, every value's text, the violation strings and
    their order included."""
    rd, level, entries = data
    got, want = report_extension(rd, level, entries), report_by_fractions(rd, level, entries)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("name", ["E8", "Spin(16)", "SU(10)", "PSU(6)", "Sp(4)"])
def test_admissibility_solves_at_most_rank_columns(monkeypatch, name):
    """Every coroot's coordinates come from the orbit walk, so no solve
    takes more right-hand sides than the rank."""
    rd, widths = resolve_group(name), []

    def counted(basis, targets):
        widths.append(targets.cols)
        return solve_columns(basis, targets)

    monkeypatch.setattr(loopext, "solve_columns", counted)
    admissibility_check(rd, 1, commutator_from_matrix(rd, [[(0, 1)] * rd.rank] * rd.rank))
    assert widths and max(widths) <= rd.rank


def level_commutator(name, level):
    rd = named_group(name)
    return rd, commutator_from_level(rd, level)


def is_zero(b):
    return all(v == (0, 1) for row in b.values for v in row)


def test_su2_any_level_vanishes():
    for level in (0, 1, 2, 5):
        _, b = level_commutator("SU(2)", level)
        assert is_zero(b)  # rank-1 antisymmetric form has nothing to hold


def test_su3_level_one_half():
    _, b = level_commutator("SU(3)", 1)
    assert b.values[0][1] == (1, 2)
    assert b.values[1][0] == (1, 2)  # -1/2 reduced into [0,1)
    assert not fibrewise_trivializable(b)["trivializable"]


def test_su3_level_two_trivial():
    _, b = level_commutator("SU(3)", 2)
    assert fibrewise_trivializable(b)["trivializable"]


def test_su4_level_two_trivial():
    _, b = level_commutator("SU(4)", 2)
    assert fibrewise_trivializable(b)["trivializable"]


def test_requires_explicit_b():
    b2 = named_group("Spin(5)")
    with pytest.raises(RequiresExplicitB):
        commutator_from_level(b2, 1)
    psu3 = named_group("PSU(3)")
    with pytest.raises(RequiresExplicitB):
        commutator_from_level(psu3, 1)


def test_biadditive():
    rd, b = level_commutator("SU(4)", 1)
    values = fractions_of(b)
    rng = random.Random(3)
    n = rd.rank
    for _ in range(50):
        x = [rng.randint(-4, 4) for _ in range(n)]
        xp = [rng.randint(-4, 4) for _ in range(n)]
        y = [rng.randint(-4, 4) for _ in range(n)]
        s = [a + c for a, c in zip(x, xp)]
        assert fraction_value(values, s, y) == (
            fraction_value(values, x, y) + fraction_value(values, xp, y)) % 1


def test_antisymmetric_on_vectors():
    _, b = level_commutator("SU(3)", 1)
    values = fractions_of(b)
    rng = random.Random(4)
    for _ in range(30):
        x = [rng.randint(-3, 3) for _ in range(2)]
        y = [rng.randint(-3, 3) for _ in range(2)]
        assert (fraction_value(values, x, y) + fraction_value(values, y, x)) % 1 == 0
        assert fraction_value(values, x, x) == 0


def test_lift_examples():
    _, b0 = level_commutator("SU(2)", 3)
    assert all(v == (0, 1) for row in lift_commutator(b0) for v in row)

    rd, b = level_commutator("SU(3)", 1)
    lift = lift_commutator(b)
    assert lift[0][1] == (1, 2)
    assert lift[1][0] == (-1, 2)
    assert tuple(tuple(mod1(*x) for x in row) for row in lift) == b.values

    # 3x3 case with upper entries (1/2, 0, 1/2): the canonical lift keeps
    # exactly those above the diagonal.
    rd4, b4 = level_commutator("SU(4)", 1)
    lift4 = lift_commutator(b4)
    assert (lift4[0][1], lift4[0][2], lift4[1][2]) == ((1, 2), (0, 1), (1, 2))
    assert tuple(tuple(mod1(*x) for x in row) for row in lift4) == b4.values
    for rows in (lift, lift4):  # antisymmetric
        assert tuple(tuple((-p, q) for p, q in col) for col in zip(*rows)) == rows


def test_doubled_level_always_trivial():
    for name in ["SU(2)", "SU(3)", "SU(4)", "SU(5)", "Spin(8)", "E6"]:
        for k in (1, 2, 3):
            _, b = level_commutator(name, 2 * k)
            assert is_zero(b), (name, k)


def test_fibrewise_trivializable_reports():
    assert fibrewise_trivializable(level_commutator("SU(2)", 7)[1])["trivializable"]

    for n in (3, 4, 5, 6):
        rep = fibrewise_trivializable(level_commutator(f"SU({n})", 1)[1])
        assert not rep["trivializable"]
        assert rep["witness_value"] == "1/2"

    assert fibrewise_trivializable(level_commutator("SU(3)", 2)[1])["trivializable"]


def test_trivializable_matches_direct_test_randomized():
    rng = random.Random(17)
    names = ["SU(2)", "SU(3)", "SU(4)", "SU(5)", "Spin(8)", "E6", "E7"]
    for _ in range(20):
        name = rng.choice(names)
        level = rng.randint(0, 4)
        _, b = level_commutator(name, level)
        assert fibrewise_trivializable(b)["trivializable"] == is_zero(b)


def test_admissibility():
    rd = named_group("SU(3)")
    good = commutator_from_level(rd, 1)
    assert admissibility_check(rd, 1, good)["passed"]

    zero = commutator_from_matrix(rd, [[(0, 1), (0, 1)], [(0, 1), (0, 1)]])
    bad = admissibility_check(rd, 1, zero)
    assert not bad["passed"]
    assert bad["half_pairing_violations"]

    assert admissibility_check(rd, 0, zero)["passed"]


def test_explicit_matrix_reduction():
    rd = named_group("SU(3)")
    b = commutator_from_matrix(rd, [[(0, 1), (3, 2)], [(1, 2), (0, 1)]])
    assert b.values == (((0, 1), (1, 2)), ((1, 2), (0, 1)))


PSO8 = '{"components": [{"series": "D", "rank": 4}], "fundamental_group": "adjoint"}'


@pytest.mark.parametrize("spec, integral_levels", [
    ("SO(3)", {2, 4}),
    ("PSU(3)", {3}),
    ("PSU(4)", {4}),
    (PSO8, {2, 4}),
    ("SU(2)", {1, 2, 3, 4}),
    ("SU(4)", {1, 2, 3, 4}),
    ("Spin(5)", {1, 2, 3, 4}),
    ("Spin(8)", {1, 2, 3, 4}),
    ("G2", {1, 2, 3, 4}),
], ids=["SO(3)", "PSU(3)", "PSU(4)", "adjoint D4 JSON", "SU(2)", "SU(4)", "Spin(5)", "Spin(8)",
        "G2"])
def test_form_integral_on_integral_lattice(spec, integral_levels):
    """The level-k form is integral on the integral lattice exactly at the
    listed levels: it is k/2 on the fundamental coweight of SO(3), 2k/3 on
    one of PSU(3), 3k/4 on one of PSU(4) and k/2 on pairs of the outer
    fundamental coweights of PSO(8)."""
    rd = resolve_group(spec)
    zero = commutator_from_matrix(rd, [[(0, 1)] * rd.rank] * rd.rank)
    for level in (1, 2, 3, 4):
        report = admissibility_check(rd, level, zero)
        assert (not report["integrality_violations"]) == (level in integral_levels), (spec, level)
        if report["integrality_violations"]:
            assert not report["passed"]


def test_integrality_violation_examples():
    rd = named_group("SO(3)")
    report = admissibility_check(rd, 3, commutator_from_matrix(rd, [[(0, 1)]]))
    assert report["integrality_violations"] == ["<lambda_0, lambda_0> = 3/2 is not an integer"]
    # Adjoint C3: the level-1 Gram matrix on the fundamental coweights is
    # A^-T diag(eps) = [[2, 2, 1], [2, 4, 2], [1, 2, 3/2]].
    rd = build([("C", 3)], "adjoint")
    zero = commutator_from_matrix(rd, [[(0, 1)] * 3] * 3)
    report = admissibility_check(rd, 1, zero)
    assert report["integrality_violations"] == ["<lambda_2, lambda_2> = 3/2 is not an integer"]
