"""Root data: Cartan matrices, lattices, forms, duals, diagram isomorphisms."""

import json
import random
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings

from tdual_lie import flagcoh, rootdata, zlinalg
from tdual_lie.errors import (
    DimensionMismatch,
    InvalidCenterSubgroup,
    InvalidSeries,
    NotBetweenLattices,
    Unavailable,
)
from tdual_lie.rootdata import (
    RootDatum,
    _center_subgroup_lifts,
    _classified,
    build,
    cartan_block,
    center,
    center_generators,
    form_pairing,
    fundamental_group_of,
    langlands_dual,
    named_group,
    require_phi,
    root_count,
)
from tdual_lie.tduality import level_twist
from tdual_lie.zlinalg import (IntMatrix, column_hermite_form, hstack, smith_normal_form,
                              solve_columns)

from oracles import (
    bareiss_det,
    clear_caches,
    find_phi,
    orbit_by_reflection_matrices,
    reflection_matrix,
    root_data,
    standard_lattice,
    subquotient,
    weyl_elements_on_coweights,
)

_path = list(sys.path)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_output  # noqa: E402

sys.path[:] = _path


def weight_lattice(rd) -> IntMatrix:
    """The weights, Z^n in fundamental-weight coordinates."""
    return standard_lattice(rd.rank)


def root_lattice(rd) -> IntMatrix:
    """The roots, spanned by the rows of the Cartan matrix."""
    return rd.cartan.transpose()


def test_su2_lattices():
    su2 = named_group("SU(2)")
    # Integral lattice = coroot lattice = 2 * coweights; characters = weights.
    assert su2.integral == IntMatrix([[2]])
    assert su2.character_basis == IntMatrix([[1]])
    assert su2.is_simply_connected()


def test_so3_lattices():
    so3 = named_group("SO(3)")
    assert so3.integral == IntMatrix([[1]])
    # Characters = root lattice, index 2 in the weight lattice.
    assert so3.character_basis == IntMatrix([[2]])
    assert not so3.is_simply_connected()
    assert fundamental_group_of(so3) == (2,)


def test_b3_c3_transposed():
    b3 = named_group("B3")
    c3 = named_group("C3")
    assert b3.cartan == c3.cartan.transpose()
    assert b3.cartan != c3.cartan


def test_series_validation():
    with pytest.raises(InvalidSeries):
        build([("C", 2)])
    with pytest.raises(InvalidSeries):
        build([("D", 3)])
    with pytest.raises(InvalidSeries):
        named_group("Sp(2)")
    with pytest.raises(InvalidSeries):
        named_group("Spin(6)")


@pytest.mark.parametrize("components, cartan", [
    ((("A", 3),), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),
    ((("A", 2),), [[2, -2], [-1, 2]]),
    ((("A", 1), ("A", 1)), [[2, -1], [-1, 2]]),
    ((("A", 1), ("A", 1)), [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
    ((("B", 3),), cartan_block("C", 3)),
    ((("C", 4),), cartan_block("B", 4)),
    ((("B", 2),), cartan_block("C", 2)),
], ids=["affine A2 as A3", "B2 as A2", "A1 x A1 joined", "3x3 over rank 2", "C3 as B3",
        "B4 as C4", "B2 transposed"])
def test_root_datum_refuses_a_cartan_matrix_off_the_table(components, cartan):
    """A Cartan matrix is the block sum of the classified blocks of its
    components, G2 and F4 blocks possibly transposed: the singular affine
    A2, a B2 matrix labelled A2, an edge between two factors, a matrix of the
    wrong size, a C3 block labelled B3, a B4 block labelled C4 and the
    transposed B2 block (C2's) labelled B2 each raise one InvalidSeries
    line, which names the components."""
    m = IntMatrix(cartan)
    with pytest.raises(InvalidSeries) as exc:
        RootDatum(components, m, IntMatrix.identity(m.rows), "x")
    assert str(exc.value) == "the Cartan matrix is not that of " + " x ".join(
        f"{s}{r}" for s, r in components)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_built_data_and_their_duals_pass_the_cartan_rule(rd):
    """Every datum `build` makes, its Langlands dual (C2 from B2, transposed
    G2 and F4 blocks) and the dual's dual construct again from their fields,
    and the dual's dual has rd's components and lattices."""
    dual = langlands_dual(rd)
    twice = langlands_dual(dual)
    for datum in (rd, dual, twice):
        assert RootDatum(datum.components, datum.cartan, datum.integral, datum.label) == datum
    assert (twice.components, twice.cartan, twice.integral) == (
        rd.components, rd.cartan, rd.integral)


@pytest.mark.parametrize("components", [
    (("A", "1"),), (("A", 1.0),), ((["A"], 1),), (("A", True),), (("A", 1, 0),), [("A", 1)],
], ids=["rank-str", "rank-float", "series-list", "rank-bool", "triple", "components-list"])
def test_root_datum_refuses_factors_that_are_not_a_string_and_an_int(components):
    """Direct construction checks the components' types, with `build`'s
    message, before any rank arithmetic or cache: none is a TypeError, True
    is no rank, and a list of factors, which no cache could hash, is no
    tuple of them."""
    with pytest.raises(InvalidSeries) as exc:
        RootDatum(components, IntMatrix([[2]]), IntMatrix([[2]]), "x")
    assert str(exc.value) == "a simple factor needs a str series and an int rank"


@pytest.mark.parametrize("label", [5, ["x"]], ids=["int", "list"])
def test_root_datum_refuses_a_label_that_is_not_a_string(label):
    """A label that is not a str is refused where the datum is made, not at
    the first cache (a list, unhashable) or at `_dual_label` (an int)."""
    with pytest.raises(InvalidSeries, match="^label must be a string$"):
        build([("A", 1)], label=label)
    with pytest.raises(InvalidSeries, match="^label must be a string$"):
        RootDatum((("A", 1),), IntMatrix([[2]]), IntMatrix([[2]]), label)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_datum_rebuilt_from_its_fields_is_the_same_value(rd):
    """A datum rebuilt from its four fields is equal, hashes equal and has
    the same character basis, the transpose of the solve B X^T = A; the
    Langlands dual's dual is the datum, label included."""
    again = RootDatum(rd.components, rd.cartan, rd.integral, rd.label)
    assert again == rd and hash(again) == hash(rd)
    assert again.character_basis == rd.character_basis == \
        solve_columns(rd.integral, rd.cartan).transpose()
    assert langlands_dual(langlands_dual(rd)) == rd


@pytest.mark.parametrize("comps", [
    [("A", 2.7)], [("A", True)], [("A", "2")], [("A", None)], [(5, 2)], [(["A"], 2)], [(b"A", 2)],
])
def test_build_refuses_factors_that_are_not_a_string_and_an_int(comps):
    """A rank is taken exactly, never truncated (2.7 is not 2) or read off a
    bool, and a series is never stringified."""
    with pytest.raises(InvalidSeries):
        build(comps)


def test_build_upper_cases_the_series():
    assert build([("d", 4)]) == build([("D", 4)])


def test_root_counts():
    """|Phi| from the classification for every simple type up to rank 12,
    against the sizes of the root and coroot orbits of the reflection BFS."""
    types = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    types += [(s, n) for s, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for n in range(lo, 13)]
    for factor in types:
        check_root_count(build([factor]))


def check_root_count(rd):
    """root_count against the BFS orbits of the simple roots (rows of the
    Cartan matrix) and of the simple coroots (its columns)."""
    roots = orbit_by_reflection_matrices([rd.cartan.row(i) for i in range(rd.rank)])
    assert root_count(rd) == len(roots) == len(orbit_by_reflection_matrices(rd.cartan.columns()))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_root_orbits_match_reflection_matrix_bfs(rd):
    """The root count of random products, summed over their factors, and of
    their Langlands duals (transposed Cartan), against the BFS orbits."""
    for datum in (rd, langlands_dual(rd)):
        check_root_count(datum)


@pytest.mark.parametrize("name", ["E8", "F4", "G2"])
def test_root_orbits_match_reflection_matrix_bfs_exceptional(name):
    check_root_count(named_group(name))
    check_root_count(langlands_dual(named_group(name)))


def test_g2_long_short():
    # Root length is constant on Weyl orbits: the long simple root alpha_1
    # and the short alpha_2 each sweep out six roots, together all twelve.
    g2 = named_group("G2")
    assert g2.epsilons == (1, 3)
    reflections = [reflection_matrix(g2.cartan.row(i), i) for i in range(2)]

    def orbit(root):
        seen, frontier = {root}, [root]
        while frontier:
            vs = IntMatrix.from_columns(frontier)
            new = {v for s in reflections for v in (s @ vs).columns()} - seen
            seen |= new
            frontier = list(new)
        return seen

    longs, shorts = orbit(g2.cartan.row(0)), orbit(g2.cartan.row(1))
    assert len(longs) == 6 and len(shorts) == 6
    assert longs.isdisjoint(shorts)
    assert len(longs | shorts) == root_count(g2)


def test_basic_form_examples():
    a1, a2, g2, b2 = map(named_group, ("A1", "A2", "G2", "B2"))
    assert form_pairing(a1, (1,), a1.cartan) == IntMatrix([[2]])
    assert form_pairing(a2, (1,), a2.cartan) == IntMatrix([[2, -1], [-1, 2]])
    assert form_pairing(g2, (0,), g2.cartan) == IntMatrix.zero(2, 2)
    # Non-simply-laced normalization: long-root coroots keep norm 2.
    assert form_pairing(b2, (1,), b2.cartan) == IntMatrix([[2, -2], [-2, 4]])
    # One level per simple factor, no more and no fewer.
    a1a2 = build([("A", 1), ("A", 2)])
    assert form_pairing(a1a2, (3, -1), a1a2.cartan) == IntMatrix(
        [[6, 0, 0], [0, -2, 1], [0, 1, -2]])
    for levels in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError):
            form_pairing(a1a2, levels, a1a2.cartan)


def test_basic_form_weyl_invariant():
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]:
        rd = named_group(name)
        g = form_pairing(rd, (1,) * len(rd.components), rd.cartan)
        for i in range(rd.rank):
            # Reflection on coroot coordinates: s(alpha_j) = alpha_j - a_ij alpha_i.
            n = rd.rank
            t = [[(1 if r == c else 0) for c in range(n)] for r in range(n)]
            for c in range(n):
                t[i][c] -= rd.cartan[i, c]
            tm = IntMatrix(t)
            assert tm.transpose() @ g @ tm == g, (name, i)


def test_epsilons_match_classification():
    # Bourbaki's numbering: B_n and F4 end in short roots, C_n in one long
    # root, alpha_2 of G2 is short (squared-length ratio 3).
    table = {"A3": (1, 1, 1), "B3": (1, 1, 2), "C3": (2, 2, 1), "D4": (1, 1, 1, 1),
             "E6": (1,) * 6, "F4": (1, 1, 2, 2), "G2": (1, 3)}
    for name, eps in table.items():
        assert named_group(name).epsilons == eps, name
        assert named_group(name).is_simply_laced() == (set(eps) == {1}), name


def test_basic_form_symmetric_on_langlands_duals():
    # The dual's Cartan matrix is the transpose, so its long and short roots
    # swap; the form must follow the matrix, not the series letter.
    for comps in ([("G", 2)], [("F", 4)], [("F", 4), ("G", 2)], [("B", 3), ("C", 3)]):
        dual = langlands_dual(build(comps))
        g = form_pairing(dual, (1,) * len(dual.components), dual.cartan)
        assert g == g.transpose(), comps
    assert langlands_dual(named_group("G2")).epsilons == (3, 1)


def test_basic_form_symmetric_positive():
    for name in ["B3", "C3", "F4", "G2", "E6"]:
        rd = named_group(name)
        g = form_pairing(rd, (1,) * len(rd.components), rd.cartan)
        assert g == g.transpose()
        assert bareiss_det(g) > 0


def test_dual_lattice_examples():
    # The character lattice is the dual of the integral lattice.
    su2 = named_group("SU(2)")
    assert su2.character_basis == IntMatrix([[1]])

    so3 = named_group("SO(3)")
    assert so3.character_basis == IntMatrix([[2]])

    su3 = named_group("SU(3)")
    assert column_hermite_form(su3.character_basis) == \
        column_hermite_form(weight_lattice(su3))
    # Index of the root lattice in the weight lattice is det(Cartan) = 3.
    assert abs(bareiss_det(root_lattice(su3))) == 3

    # 4 * coweights misses the coroots 2 * coweights: no integral dual basis.
    with pytest.raises(NotBetweenLattices):
        RootDatum(components=su2.components, cartan=su2.cartan,
                  integral=IntMatrix([[4]]), label="bad")
    # A singular basis misses the coroots too; a basis that is not n x n is
    # refused before any solve.
    with pytest.raises(NotBetweenLattices, match="^integral lattice does not contain the"):
        RootDatum(components=su3.components, cartan=su3.cartan,
                  integral=IntMatrix([[1, 2], [1, 2]]), label="bad")
    for bad in (IntMatrix([[1, 0, 1], [0, 1, 1]]), IntMatrix([[1], [0]]), IntMatrix([[1, 0]])):
        with pytest.raises(DimensionMismatch):
            RootDatum(components=su3.components, cartan=su3.cartan, integral=bad, label="bad")


def test_integral_basis_eliminated_once(monkeypatch):
    """Building a datum and reading its character basis eliminate the
    integral basis once: the containment check is the cached solve for X."""
    calls = []

    def counted(rows, width):
        calls.append(width)
        return echelon(rows, width)

    echelon = zlinalg._echelon
    clear_caches()
    monkeypatch.setattr(zlinalg, "_echelon", counted)
    rd = build([("A", 3)])
    rd.character_basis
    assert len(calls) == 1


def test_char_lattice_endpoints():
    # Simply connected: characters = weights; adjoint: characters = roots.
    for n in (2, 3, 4):
        sc = named_group(f"SU({n})")
        assert column_hermite_form(sc.character_basis) == \
            column_hermite_form(weight_lattice(sc))
        ad = named_group(f"PSU({n})")
        assert column_hermite_form(ad.character_basis) == \
            column_hermite_form(root_lattice(ad))


def test_center_orders():
    assert center(named_group("SU(4)")) == (4,)
    assert center(named_group("E6")) == (3,)
    assert center(named_group("E7")) == (2,)
    assert center(named_group("E8")) == ()
    assert center(named_group("G2")) == ()
    assert center(named_group("F4")) == ()
    assert center(named_group("Spin(8)")) == (2, 2)
    assert center(named_group("Spin(7)")) == (2,)


def check_center_generators(datum):
    """The table's claim for `center_generators`, with no Smith basis
    read: each generator, the fundamental coweight e_k, has order exactly
    d modulo the coroots (d e_k solves against A, q e_k fails for each
    proper divisor q of d), the lifts and the coroots span Z^n, and the
    orders multiply to |Z| = |det A|, so Z is the direct sum of the cyclic
    groups they generate."""
    n, coroots = datum.rank, datum.cartan
    got = center_generators(datum.components)

    def multiple(q, k):
        return IntMatrix.from_columns([[q * int(i == k) for i in range(n)]])

    for d, k in got:
        assert solve_columns(coroots, multiple(d, k)) is not None, datum.label
        assert all(solve_columns(coroots, multiple(q, k)) is None
                   for q in range(1, d) if d % q == 0), datum.label
    lifts = IntMatrix.from_columns([standard_lattice(n).column(k) for _, k in got], rows=n)
    assert column_hermite_form(hstack(coroots, lifts)) == standard_lattice(n), datum.label
    assert prod(d for d, _ in got) == prod(center(datum)) == abs(bareiss_det(coroots)), \
        datum.label


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_center_and_pi1_match_subquotient_oracle(rd):
    """`center`, read off the classification, and `fundamental_group_of`,
    read off X's Smith diagonal, against the subquotients coweights /
    coroots and integral lattice / coroots, on random root data and their
    Langlands duals, and `center_generators` against the table's claim
    (`check_center_generators`)."""
    for datum in (rd, langlands_dual(rd)):
        n, coroots = datum.rank, datum.cartan
        z, pi1 = subquotient(coroots, standard_lattice(n)), subquotient(coroots, datum.integral)
        assert (z.free_rank, pi1.free_rank) == (0, 0), datum.label
        assert center(datum) == z.torsion, datum.label
        assert fundamental_group_of(datum) == pi1.torsion, datum.label
        check_center_generators(datum)


def test_center_generators_of_every_classified_factor():
    """`check_center_generators`, and `center` against the invariant factors
    of the Smith form of A, on every simple factor of rank <= 64 in the
    classification (built as a `RootDatum` directly), and on C2 (the
    Langlands dual of B2)."""
    data = [langlands_dual(build([("B", 2)]))]
    for series in "ABCDEFG":
        for r in range(1, 65):
            if _classified(series, r):
                a = IntMatrix(cartan_block(series, r))
                data.append(RootDatum(((series, r),), a, a, f"{series}{r}"))
    for datum in data:
        check_center_generators(datum)
        smith = smith_normal_form(datum.cartan)[1]
        assert center(datum) == tuple(x for x in smith if x >= 2), datum.label


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_simply_connected_matches_hermite_comparison(rd):
    """`is_simply_connected`, one membership test, against the Hermite forms
    of the integral and coroot lattices, on random root data and their
    Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        same = column_hermite_form(datum.integral) == column_hermite_form(datum.cartan)
        assert datum.is_simply_connected() == same, datum.label


def test_custom_fundamental_group():
    # SO(4)-style quotient of SU(2) x SU(2) by the diagonal center element.
    rd = build([("A", 1), ("A", 1)], {"generators": [[1, 1]]})
    assert fundamental_group_of(rd) == (2,)
    assert not rd.is_simply_connected()
    with pytest.raises(InvalidCenterSubgroup):
        build([("A", 1), ("A", 1)], {"generators": [[1]]})
    # An entry must be an int: 1.7, "1" and True are refused, not truncated
    # or parsed into the quotient by 1; the generators must be a list of lists.
    for bad in ([["x"]], [[1.7]], [["1"]], [[True]], 5):
        with pytest.raises(InvalidCenterSubgroup):
            build([("A", 1)], {"generators": bad})


def test_custom_quotient_takes_no_smith_form(monkeypatch):
    """`build` reads the center's generators off the classification, so a
    custom quotient takes no Smith form."""
    calls, smith = [], rootdata.smith_normal_form
    monkeypatch.setattr(rootdata, "smith_normal_form", lambda m: calls.append(m) or smith(m))
    rd = build([("A", 5), ("D", 4), ("E", 6)], {"generators": [[2, 1, 0, 1], [0, 1, 1, 0]]})
    assert calls == []
    monkeypatch.undo()
    assert fundamental_group_of(rd) == (2, 6)


def test_center_subgroup_lifts_add_each_coordinate_at_its_node():
    """Each lift adds coordinate a of a generator at the node k of its cyclic
    factor, against the sum over every cyclic factor for each of the n
    coordinates: on every custom quotient of the center-generator table and
    on a drawn rank-128 product by eight generators."""
    def reference(components, n, generators):
        cyclic = center_generators(components)
        return IntMatrix.from_columns(
            [[sum(a for a, (_, k) in zip(gen, cyclic) if k == i) for i in range(n)]
             for gen in generators], rows=n)

    specs = [json.loads(g) for g in same_output.TABLE_QUOTIENTS]
    data = [([(c["series"], c["rank"]) for c in g["components"]],
             g["fundamental_group"]["generators"]) for g in specs]
    rng, components = random.Random(128), []
    while sum(r for _, r in components) < 120:
        components.append(rng.choice([("A", 1), ("A", 4), ("B", 3), ("C", 2), ("D", 4),
                                      ("D", 5), ("E", 6), ("E", 7)]))
    components += [("A", 1)] * (128 - sum(r for _, r in components))
    cyclic = center_generators(components)
    data.append((components, [[rng.randrange(-d, 2 * d) for d, _ in cyclic] for _ in range(8)]))
    for comps, generators in data:
        n = sum(r for _, r in comps)
        assert _center_subgroup_lifts(comps, n, generators) == \
            reference(comps, n, generators), comps


def test_langlands_dual_examples():
    su2 = named_group("SU(2)")
    dual = langlands_dual(su2)
    assert dual.label == "SO(3)"
    assert column_hermite_form(dual.integral) == \
        column_hermite_form(standard_lattice(dual.rank))

    su3 = named_group("SU(3)")
    assert langlands_dual(su3).label == "PSU(3)"
    assert fundamental_group_of(langlands_dual(su3)) == (3,)

    g2 = named_group("G2")
    assert langlands_dual(g2).components == (("G", 2),)
    assert langlands_dual(g2).cartan == g2.cartan.transpose()

    b3 = named_group("B3")
    assert langlands_dual(b3).components == (("C", 3),)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_langlands_dual_involutive(rd):
    back = langlands_dual(langlands_dual(rd))
    assert back.cartan == rd.cartan
    assert back.components == rd.components
    assert fundamental_group_of(back) == fundamental_group_of(rd)
    assert column_hermite_form(back.integral) == column_hermite_form(rd.integral)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_dual_character_basis_is_the_integral_basis(rd):
    """B X^T = A transposes to X B^T = A^T, the solve that gives the
    character basis of the Langlands dual (integral basis X, Cartan matrix
    A^T), so that basis is B itself.  This is why `verify_langlands_tdual`
    prints the twist's image lattice as the expected one and builds no dual
    datum."""
    assert langlands_dual(rd).character_basis == rd.integral


def test_find_phi():
    for name in ["SU(2)", "SU(5)", "A4", "D4", "E6", "G2", "F4", "B2"]:
        assert find_phi(named_group(name)) is not None, name
    assert find_phi(named_group("B3")) is None
    assert find_phi(named_group("C4")) is None
    with pytest.raises(Unavailable):
        require_phi(named_group("B3"))


@pytest.mark.parametrize("comps, unmatched", [
    ([("B", 3), ("C", 3), ("B", 4)], "B4"),
    ([("C", 3), ("B", 3), ("C", 3)], "C3"),
    ([("B", 3), ("A", 2), ("C", 4)], "B3, C4"),
    ([("B", 5)], "B5"),
])
def test_require_phi_names_the_unmatched_factors(comps, unmatched):
    """The obstruction lists the factors the matching leaves over, in
    order, not the matched B_n or C_n of a B_n x C_n pair."""
    rd = build(comps)
    assert find_phi(rd) is None
    with pytest.raises(Unavailable) as exc:
        require_phi(rd)
    assert str(exc.value) == (f"{rd.label}: no Dynkin isomorphism onto the Langlands dual "
                              f"(obstructing factors: {unmatched})")


def test_find_phi_transports_cartan():
    for name in ["SU(3)", "G2", "F4", "B2", "D4"]:
        rd = named_group(name)
        p = find_phi(rd)
        al = langlands_dual(rd).cartan
        n = rd.rank
        for i in range(n):
            for j in range(n):
                assert al[p[i], p[j]] == rd.cartan[i, j], name


def test_find_phi_cross_factor():
    # B3 x C3 is isomorphic to its dual C3 x B3 through the factor swap.
    rd = build([("B", 3), ("C", 3)])
    perm = find_phi(rd)
    assert perm is not None
    assert set(perm[:3]) == {3, 4, 5}


def find_phi_by_search(rd):
    """The first Dynkin isomorphism onto the Langlands dual found by a
    backtracking search: source factors in order, dual factors in order,
    each factor's vertex bijections in lexicographic order."""
    dual = langlands_dual(rd)

    def block(mat, lo, hi):
        return [[mat[i, j] for j in range(lo, hi)] for i in range(lo, hi)]

    def block_isos(src, dst, partial=()):
        k = len(partial)
        if k == len(src):
            yield partial
            return
        for cand in range(len(src)):
            if cand not in partial and dst[cand][cand] == src[k][k] and all(
                    dst[p][cand] == src[a][k] and dst[cand][p] == src[k][a]
                    for a, p in enumerate(partial)):
                yield from block_isos(src, dst, partial + (cand,))

    src_blocks, dst_blocks = rd.factor_ranges(), dual.factor_ranges()

    def assign(k, used):
        if k == len(src_blocks):
            return ()
        lo, hi, _, r = src_blocks[k]
        for gi, (glo, ghi, _, gr) in enumerate(dst_blocks):
            if gi in used or gr != r:
                continue
            for p in block_isos(block(rd.cartan, lo, hi), block(dual.cartan, glo, ghi)):
                rest = assign(k + 1, used | {gi})
                if rest is not None:
                    return tuple(glo + i for i in p) + rest
        return None

    return assign(0, frozenset())


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_find_phi_matches_search(rd):
    for datum in (rd, langlands_dual(rd)):
        assert find_phi(datum) == find_phi_by_search(datum)


@pytest.mark.parametrize("comps", [
    [("E", 7)], [("E", 8)], [("D", 4)], [("B", 4), ("C", 4)],
    [("C", 3), ("B", 3), ("G", 2)], [("F", 4), ("G", 2), ("B", 2)], [("A", 3), ("G", 2)],
], ids=["E7", "E8", "D4", "B4xC4", "C3xB3xG2", "F4xG2xB2", "A3xG2"])
def test_find_phi_matches_search_table(comps):
    for rd in (build(comps), langlands_dual(build(comps, "adjoint"))):
        perm = find_phi(rd)
        assert perm is not None and perm == find_phi_by_search(rd)


def test_weyl_enumeration_sizes():
    assert sum(1 for _ in weyl_elements_on_coweights(named_group("A2"))) == 6
    assert sum(1 for _ in weyl_elements_on_coweights(named_group("B2"))) == 8
    assert sum(1 for _ in weyl_elements_on_coweights(named_group("G2"))) == 12


def test_value_semantics():
    """Equal fields give equal objects with equal hashes, of one class only:
    the contract of the one cache keyed on a RootDatum,
    `flagcoh.invariant_coords`."""
    named, built = named_group("SU(3)"), build([("A", 2)], label="SU(3)")
    assert named is not built and named == built and hash(named) == hash(built)
    fields = (named.components, named.cartan, named.integral, named.label)
    assert RootDatum(*fields[:3], "a") != RootDatum(*fields[:3], "b")
    datum = RootDatum(*fields)
    assert datum == named and datum != fields and fields != datum
    with pytest.raises(TypeError):
        RootDatum(*fields, fundamental_group="simply_connected")
    assert (repr(named_group("SU(2)"))
            == "RootDatum(components=(('A', 1),), cartan=IntMatrix([[2]]), "
               "integral=IntMatrix([[2]]), label='SU(2)')")
    u = level_twist(named, 1)
    flagcoh.invariant_coords(named, u)
    hits = flagcoh.invariant_coords.cache_info().hits
    flagcoh.invariant_coords(built, u)
    assert flagcoh.invariant_coords.cache_info().hits == hits + 1


def test_named_vs_json_style_build():
    assert named_group("SU(3)").cartan == build([("A", 2)]).cartan
    assert named_group("Spin(5)").components == (("B", 2),)
    assert named_group("Sp(3)").components == (("C", 3),)
