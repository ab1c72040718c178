"""Lattice central extensions: commutator maps and trivializability."""

import json
import random
import time
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual_lie import loopext, rootdata
from tdual_lie.cli import main, report_extension, resolve_group
from tdual_lie.errors import InvalidCommutator, RequiresExplicitB
from tdual_lie.loopext import (
    admissibility_check,
    commutator_from_level,
    commutator_from_matrix,
    fibrewise_trivializable,
    lift_commutator,
    mod1,
)
from tdual_lie.rootdata import (
    RootDatum,
    build,
    center,
    form_pairing,
    langlands_dual,
    named_group,
)
from tdual_lie.tduality import level_twist
from tdual_lie.zlinalg import IntMatrix, solve_columns

from oracles import (bareiss_det, clear_caches, orbit_by_reflection_matrices, root_data,
                     unimodular)


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
    `fraction_value`, basis vector by simple coroot, each coroot solved for
    in the integral and coroot bases: the oracle for the integer route of
    `admissibility_check`."""
    n = rd.rank
    pairing = form_pairing(rd, (level,) * len(rd.components), rd.integral)
    det = abs(bareiss_det(rd.cartan))
    gram = rd.integral.transpose() @ solve_columns(rd.cartan.transpose(), pairing.scale(det))
    integrality = [
        f"<lambda_{j}, lambda_{k}> = {Fraction(gram[j, k], det)} is not an integer"
        for j in range(n) for k in range(j, n) if gram[j, k] % det
    ]
    coroots = tuple(sorted(rd.cartan.columns()))
    targets = IntMatrix.from_columns(coroots, rows=n)
    coords = solve_columns(rd.integral, targets)
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


def admissibility_on_every_coroot(rd, level, b, keep=lambda coroot: True):
    """The admissibility report over the coroots of the reflection BFS that
    `keep` accepts, in sorted order: the n x |Phi^vee| integer route that
    `admissibility_check` took before it read the simple coroots alone.
    A coroot H = A c has integral coordinates X^T c, with X the character
    basis, and <lambda_k, H> = (P^T c)_k for P the form pairing.  The
    integrality half keeps the A^T route that `admissibility_check` left for
    the solve against X: N <lambda_j, lambda_k> = (B^T Y)[j, k] with
    A^T Y = N P and N = |det A| = `prod(center(rd))`."""
    n = rd.rank
    pairing = form_pairing(rd, (level,) * len(rd.components), rd.integral)
    det = prod(center(rd))
    gram = rd.integral.transpose() @ solve_columns(rd.cartan.transpose(), pairing.scale(det))
    integrality = [
        f"<lambda_{j}, lambda_{k}> = {loopext.ratio(gram[j, k], det)} is not an integer"
        for j in range(n) for k in range(j, n) if gram[j, k] % det
    ]
    coroots = [h for h in orbit_by_reflection_matrices(rd.cartan.columns()) if keep(h)]
    simple_coords = solve_columns(rd.cartan, IntMatrix.from_columns(coroots, rows=n))
    scales = [lcm(*(q for _, q in row)) for row in b.values]
    scaled = IntMatrix([p * (d // q) for p, q in row] for d, row in zip(scales, b.values))
    products = (scaled @ rd.character_basis.transpose()) @ simple_coords
    half = []
    for k, (d, xs, ws) in enumerate(zip(scales, products, pairing.transpose() @ simple_coords)):
        for coroot, x, w in zip(coroots, xs, ws):
            x, w = x % d, w % 2
            if 2 * x != d * w:
                half.append(f"b(basis_{k}, coroot {coroot}) = {loopext.ratio(x, d)} "
                            f"but [<.,.>/2] = {loopext.ratio(w, 2)}")
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


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(loop_data(), st.booleans())
def test_simple_coroots_decide_admissibility(data, from_level):
    """The verdict of the check on every coroot, and exactly its violations
    at the simple coroots, in its order.  b is drawn, or the level formula's
    where that is asserted."""
    rd, level, entries = data
    if from_level and rd.is_simply_connected():
        b = commutator_from_level(rd, level)
    else:
        b = commutator_from_matrix(rd, entries)
    got, every = admissibility_check(rd, level, b), admissibility_on_every_coroot(rd, level, b)
    assert got["passed"] == every["passed"]
    assert got["integrality_violations"] == every["integrality_violations"]
    simple = set(rd.cartan.columns()).__contains__
    assert got == admissibility_on_every_coroot(rd, level, b, keep=simple)


def test_violations_at_most_rank_squared_at_the_cap():
    """Spin(64) with b = 1/2 off the diagonal breaks the rule on 32404
    (basis vector, coroot) pairs; only the simple coroots are listed."""
    rd = named_group("Spin(64)")
    half = [[(int(i != j), 2) for j in range(rd.rank)] for i in range(rd.rank)]
    report = admissibility_check(rd, 1, commutator_from_matrix(rd, half))
    assert not report["passed"]
    assert 0 < len(report["half_pairing_violations"]) <= rd.rank ** 2


@pytest.mark.parametrize("name", ["E8", "Spin(16)", "SU(10)", "PSU(6)", "Sp(4)"])
def test_admissibility_solves_at_most_rank_columns(monkeypatch, name):
    """Only the simple coroots are checked, and their coordinates are read
    off the character basis, so no solve takes more right-hand sides than
    the rank."""
    rd, widths = resolve_group(name), []

    def counted(basis, targets):
        widths.append(targets.cols)
        return solve_columns(basis, targets)

    monkeypatch.setattr(rootdata, "solve_columns", counted)
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
    """Only pi_1 != 0 refuses: Spin(5), which is not simply laced, reads an
    admissible b off the level."""
    b2 = named_group("Spin(5)")
    assert admissibility_check(b2, 1, commutator_from_level(b2, 1))["passed"]
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


def test_negative_level_refused():
    """The level is read off the datum's one Gram matrix, scaled; each entry
    point that takes one level refuses a negative one, while `form_pairing`
    takes per-factor levels of any sign (a cycle's invariant coordinates
    can be negative)."""
    rd = named_group("SU(3)")
    for check in (lambda: commutator_from_level(rd, -1),
                  lambda: admissibility_check(rd, -1, commutator_from_level(rd, 1)),
                  lambda: level_twist(rd, -1)):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            check()


def test_admissibility():
    rd = named_group("SU(3)")
    good = commutator_from_level(rd, 1)
    assert admissibility_check(rd, 1, good)["passed"]

    zero = commutator_from_matrix(rd, [[(0, 1), (0, 1)], [(0, 1), (0, 1)]])
    bad = admissibility_check(rd, 1, zero)
    assert not bad["passed"]
    assert bad["half_pairing_violations"]

    assert admissibility_check(rd, 0, zero)["passed"]


@st.composite
def coroot_bases(draw):
    """(sc, rd): a simply connected datum sc from `build`, of any series, and
    the same group on another basis of its coroot lattice: the trivial
    quotient of `build` (the Hermite basis of A) or A V for a random
    unimodular V."""
    comps, total = [], 0
    while not comps or (total < 8 and draw(st.booleans())):
        ranks = {"A": range(1, 7), "B": range(2, 7), "C": range(3, 7), "D": range(4, 7),
                 "E": (6, 7, 8), "F": (4,), "G": (2,)}
        series = draw(st.sampled_from("ABCDEFG"))
        fits = [r for r in ranks[series] if total + r <= 8]
        if fits:
            comps.append((series, draw(st.sampled_from(fits))))
            total += comps[-1][1]
    sc = build(comps)
    if draw(st.booleans()):
        return sc, build(comps, {"generators": []})
    return sc, RootDatum(sc.components, sc.cartan, sc.cartan @ draw(unimodular(total)), "A V")


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(coroot_bases())
def test_level_commutator_is_admissible_on_every_coroot_basis(pair):
    """b = [k/2 <.,.>] from `commutator_from_level` passes `admissibility_check`
    at k = 1, 2, 3 whatever basis of the coroot lattice the datum holds, and
    is trivializable exactly when the named group's is."""
    sc, rd = pair
    for level in (1, 2, 3):
        b = commutator_from_level(rd, level)
        assert admissibility_check(rd, level, b)["passed"], (rd, level)
        named = fibrewise_trivializable(commutator_from_level(sc, level))
        assert fibrewise_trivializable(b)["trivializable"] == named["trivializable"], (rd, level)


@st.composite
def simply_connected_data(draw):
    """A simply connected member of `root_data()`, or the Langlands dual of
    an adjoint one: a simply connected datum whose Cartan matrix is the
    transpose, so B and C, and the long and short roots of F4 and G2, swap."""
    kind = draw(st.sampled_from(["simply_connected", "adjoint"]))
    rd = draw(root_data(kinds=(kind,)))
    return langlands_dual(rd) if kind == "adjoint" else rd


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(simply_connected_data())
def test_level_commutator_is_admissible_on_every_simply_connected_datum(rd):
    """b = [k/2 <.,.>] passes `admissibility_check`, and the Fraction route
    over every simple coroot, at k = 0..3 on every series, simple lacing or
    not."""
    assert rd.is_simply_connected()
    for level in range(4):
        b = commutator_from_level(rd, level)
        assert admissibility_check(rd, level, b)["passed"], (rd.label, level)
        assert admissibility_by_fractions(rd, level, fractions_of(b))["passed"], (rd.label, level)


RANK_3_PRODUCTS = (
    [("A", 1)], [("A", 2)], [("A", 3)], [("B", 2)], [("G", 2)], [("B", 3)], [("C", 3)],
    [("A", 1), ("A", 1)], [("A", 1), ("A", 2)], [("A", 1), ("B", 2)], [("A", 1), ("G", 2)],
    [("B", 2), ("A", 1)], [("A", 1), ("A", 1), ("A", 1)],
)


@pytest.mark.parametrize("comps", RANK_3_PRODUCTS, ids=lambda c: "x".join(f"{s}{r}" for s, r in c))
def test_level_commutator_is_the_only_admissible_half_valued_b(comps):
    """Every simply connected datum of total rank <= 3, and the Langlands
    dual of its adjoint form: among all 2^(n(n-1)/2) antisymmetric b with
    values in {0, 1/2}, exactly one passes `admissibility_check` at each
    k = 0..3, and it is `commutator_from_level`'s."""
    for rd in (build(comps), langlands_dual(build(comps, "adjoint"))):
        n = rd.rank
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for level in range(4):
            passing = []
            for halves in range(2 ** len(pairs)):
                entries = [[(0, 1)] * n for _ in range(n)]
                for t, (i, j) in enumerate(pairs):
                    entries[i][j] = entries[j][i] = (halves >> t & 1, 2)
                b = commutator_from_matrix(rd, entries)
                if admissibility_check(rd, level, b)["passed"]:
                    passing.append(b.values)
            assert passing == [commutator_from_level(rd, level).values], (rd.label, level)


def test_explicit_matrix_reduction():
    rd = named_group("SU(3)")
    b = commutator_from_matrix(rd, [[(0, 1), (3, 2)], [(1, 2), (0, 1)]])
    assert b.values == (((0, 1), (1, 2)), ((1, 2), (0, 1)))


@pytest.mark.parametrize("q", [0, -2])
def test_explicit_matrix_refuses_a_denominator_below_one(q):
    """p/q needs q > 0: q = 0 is refused by name, not a ZeroDivisionError, and
    a negative q is not reported as a value outside [0, 1)."""
    with pytest.raises(InvalidCommutator, match=rf"^entry \(1, 0\) is 1/{q}: .* > 0$"):
        commutator_from_matrix(named_group("SU(3)"), [[(0, 1), (1, 2)], [(1, q), (0, 1)]])


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


@pytest.mark.parametrize("rd, integrality, half", [
    (named_group("PSU(33)"), 508, 32),
    (build([("A", 1)] * 32, "adjoint"), 32, 32),
], ids=["PSU(33)", "adjoint A1^32"])
def test_admissibility_at_the_rank_cap(rd, integrality, half):
    """The solve against the character basis, scaled by the exponent of
    pi_1, against the A^T route at total rank 32, past the reach of the
    property tests: level 1 with b = 0 on two adjoint groups."""
    b = commutator_from_matrix(rd, [[(0, 1)] * rd.rank] * rd.rank)
    got = admissibility_check(rd, 1, b)
    simple = set(rd.cartan.columns()).__contains__
    assert got == admissibility_on_every_coroot(rd, 1, b, keep=simple)
    assert len(got["integrality_violations"]) == integrality
    assert len(got["half_pairing_violations"]) == half


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
def test_long_denominators_under_two_seconds(capsys, fmt):
    """`extension --b` on SU(17) with 1/q above the diagonal and -1/q below,
    each q a distinct odd 1000-digit integer, runs in process within the
    2.0 s bound of the other timing gates: `admissibility_check` scales each
    row by its own denominators, so no integer outgrows the ones b has.
    Every package cache is emptied first."""
    n, draw = 16, random.Random(17)
    q = {(i, j): draw.randrange(10 ** 999, 10 ** 1000) | 1
         for i in range(n) for j in range(i + 1, n)}
    assert len(set(q.values())) == len(q)
    b = [[f"1/{q[i, j]}" if i < j else f"-1/{q[j, i]}" if i > j else 0 for j in range(n)]
         for i in range(n)]
    clear_caches()
    start = time.monotonic()
    assert main(["extension", "--group", "SU(17)", "--b", json.dumps(b), *fmt]) == 0
    assert time.monotonic() - start < 2.0
    assert "admissibility" in capsys.readouterr().out
