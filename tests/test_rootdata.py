"""Root data: Cartan matrices, lattices, forms, duals, diagram isomorphisms."""

import pytest
from hypothesis import given, settings

from tdual_lie.errors import InvalidCenterSubgroup, InvalidSeries, NotBetweenLattices, Unavailable
from tdual_lie.flagcoh import h3_group
from tdual_lie.rootdata import (
    MAX_RANK,
    RootDatum,
    all_coroots,
    all_roots,
    basic_form,
    build,
    center,
    find_phi,
    fundamental_group_of,
    langlands_dual,
    named_group,
    require_phi,
)
from tdual_lie.tduality import TwistClass
from tdual_lie.zlinalg import IntMatrix, Lattice

from test_flagcoh import reflection_matrix, root_data
from test_zlinalg import bareiss_det


def weight_lattice(rd) -> Lattice:
    """The weights, Z^n in fundamental-weight coordinates."""
    return Lattice.standard(rd.rank, "weights")


def root_lattice(rd) -> Lattice:
    """The roots, spanned by the rows of the Cartan matrix."""
    return Lattice(rd.rank, rd.cartan.transpose(), "roots")


def test_su2_lattices():
    su2 = named_group("SU(2)")
    # Integral lattice = coroot lattice = 2 * coweights; characters = weights.
    assert su2.integral.basis == IntMatrix([[2]])
    assert su2.char_lattice().basis == IntMatrix([[1]])
    assert su2.is_simply_connected()


def test_so3_lattices():
    so3 = named_group("SO(3)")
    assert so3.integral.basis == IntMatrix([[1]])
    # Characters = root lattice, index 2 in the weight lattice.
    assert so3.char_lattice().basis == IntMatrix([[2]])
    assert not so3.is_simply_connected()
    assert fundamental_group_of(so3).torsion == (2,)


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
    """|Phi| from the classification for every simple type up to the rank cap,
    and as many coroots.  Uncached, so the session keeps none of them."""
    counts = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}
    top = MAX_RANK + 1
    counts.update({("A", n): n * (n + 1) for n in range(1, top)})
    counts.update({(s, n): 2 * n * n for s, lo in (("B", 2), ("C", 3)) for n in range(lo, top)})
    counts.update({("D", n): 2 * n * (n - 1) for n in range(4, top)})
    assert len(counts) == 32 + 31 + 30 + 29 + 5
    for factor, count in counts.items():
        rd = build([factor])
        assert len(all_roots.__wrapped__(rd)) == count == len(all_coroots.__wrapped__(rd)), factor


def orbit_by_reflection_matrices(simple):
    """The orbit of the `simple` roots by BFS over n x n reflection matrices,
    sorted: the oracle for the O(n) reflections of `all_roots` (rows of the
    Cartan matrix) and `all_coroots` (its columns)."""
    reflections = [reflection_matrix(a, i) for i, a in enumerate(simple)]
    seen = set(simple)
    frontier = list(seen)
    while frontier:
        new = {s.apply(v) for v in frontier for s in reflections} - seen
        seen |= new
        frontier = list(new)
    return tuple(sorted(seen))


def check_root_orbits(rd):
    """Both orbits against the matrix BFS, and each coroot's coordinates c
    over the simple coroots against H = A c."""
    n = rd.rank
    assert all_roots(rd) == orbit_by_reflection_matrices([rd.cartan.row(i) for i in range(n)])
    coroots = all_coroots(rd)
    assert tuple(coroots) == orbit_by_reflection_matrices([rd.cartan.column(i) for i in range(n)])
    assert all(rd.cartan.apply(c) == h for h, c in coroots.items())


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_root_orbits_match_reflection_matrix_bfs(rd):
    """On random root data and on their Langlands duals (transposed Cartan)."""
    for datum in (rd, langlands_dual(rd)):
        check_root_orbits(datum)


@pytest.mark.parametrize("name", ["E8", "F4", "G2"])
def test_root_orbits_match_reflection_matrix_bfs_exceptional(name):
    check_root_orbits(named_group(name))
    check_root_orbits(langlands_dual(named_group(name)))


def test_g2_long_short():
    # Root length is constant on Weyl orbits: the long simple root alpha_1
    # and the short alpha_2 each sweep out six roots, together all twelve.
    g2 = named_group("G2")
    assert g2.epsilons() == (1, 3)
    reflections = [reflection_matrix(g2.cartan.row(i), i) for i in range(2)]

    def orbit(root):
        seen, frontier = {root}, [root]
        while frontier:
            new = {s.apply(v) for v in frontier for s in reflections} - seen
            seen |= new
            frontier = list(new)
        return seen

    longs, shorts = orbit(g2.cartan.row(0)), orbit(g2.cartan.row(1))
    assert len(longs) == 6 and len(shorts) == 6
    assert longs.isdisjoint(shorts)
    assert longs | shorts == set(all_roots(g2))


def test_basic_form_examples():
    assert basic_form(named_group("A1"), 1) == IntMatrix([[2]])
    assert basic_form(named_group("A2"), 1) == IntMatrix([[2, -1], [-1, 2]])
    assert basic_form(named_group("G2"), 0) == IntMatrix.zero(2, 2)
    # Non-simply-laced normalization: long-root coroots keep norm 2.
    b2 = basic_form(named_group("B2"), 1)
    assert b2 == IntMatrix([[2, -2], [-2, 4]])


def test_basic_form_weyl_invariant():
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]:
        rd = named_group(name)
        g = basic_form(rd, 1)
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
        assert named_group(name).epsilons() == eps, name
        assert named_group(name).is_simply_laced() == (set(eps) == {1}), name


def test_basic_form_symmetric_on_langlands_duals():
    # The dual's Cartan matrix is the transpose, so its long and short roots
    # swap; the form must follow the matrix, not the series letter.
    for comps in ([("G", 2)], [("F", 4)], [("F", 4), ("G", 2)], [("B", 3), ("C", 3)]):
        dual = langlands_dual(build(comps))
        g = basic_form(dual, 1)
        assert g == g.transpose(), comps
    assert langlands_dual(named_group("G2")).epsilons() == (3, 1)


def test_basic_form_symmetric_positive():
    for name in ["B3", "C3", "F4", "G2", "E6"]:
        g = basic_form(named_group(name), 1)
        assert g == g.transpose()
        assert bareiss_det(g) > 0


def test_dual_lattice_examples():
    # The character lattice is the dual of the integral lattice.
    su2 = named_group("SU(2)")
    assert su2.char_lattice().basis == IntMatrix([[1]])

    so3 = named_group("SO(3)")
    assert so3.char_lattice().basis == IntMatrix([[2]])

    su3 = named_group("SU(3)")
    assert su3.char_lattice().same_lattice(weight_lattice(su3))
    # Index of the root lattice in the weight lattice is det(Cartan) = 3.
    assert abs(bareiss_det(root_lattice(su3).basis)) == 3

    # 4 * coweights misses the coroots 2 * coweights: no integral dual basis.
    with pytest.raises(NotBetweenLattices):
        RootDatum(components=su2.components, cartan=su2.cartan,
                  integral=Lattice(1, IntMatrix([[4]])), label="bad")


def test_char_lattice_endpoints():
    # Simply connected: characters = weights; adjoint: characters = roots.
    for n in (2, 3, 4):
        sc = named_group(f"SU({n})")
        assert sc.char_lattice().same_lattice(weight_lattice(sc))
        ad = named_group(f"PSU({n})")
        assert ad.char_lattice().same_lattice(root_lattice(ad))


def test_center_orders():
    assert center(named_group("SU(4)")).torsion == (4,)
    assert center(named_group("E6")).torsion == (3,)
    assert center(named_group("E7")).torsion == (2,)
    assert center(named_group("E8")).torsion == ()
    assert center(named_group("G2")).torsion == ()
    assert center(named_group("F4")).torsion == ()
    assert center(named_group("Spin(8)")).torsion == (2, 2)
    assert center(named_group("Spin(7)")).torsion == (2,)


def test_custom_fundamental_group():
    # SO(4)-style quotient of SU(2) x SU(2) by the diagonal center element.
    rd = build([("A", 1), ("A", 1)], {"generators": [[1, 1]]})
    assert fundamental_group_of(rd).torsion == (2,)
    assert not rd.is_simply_connected()
    with pytest.raises(InvalidCenterSubgroup):
        build([("A", 1), ("A", 1)], {"generators": [[1]]})
    # An entry must be an int: 1.7, "1" and True are refused, not truncated
    # or parsed into the quotient by 1; the generators must be a list of lists.
    for bad in ([["x"]], [[1.7]], [["1"]], [[True]], 5):
        with pytest.raises(InvalidCenterSubgroup):
            build([("A", 1)], {"generators": bad})


def test_langlands_dual_examples():
    su2 = named_group("SU(2)")
    dual = langlands_dual(su2)
    assert dual.label == "SO(3)"
    assert dual.integral.same_lattice(dual.coweight_lattice())

    su3 = named_group("SU(3)")
    assert langlands_dual(su3).label == "PSU(3)"
    assert fundamental_group_of(langlands_dual(su3)).torsion == (3,)

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
    assert back.fundamental_group == rd.fundamental_group
    assert back.integral.same_lattice(rd.integral)


def test_find_phi():
    for name in ["SU(2)", "SU(5)", "A4", "D4", "E6", "G2", "F4", "B2"]:
        assert find_phi(named_group(name)) is not None, name
    assert find_phi(named_group("B3")) is None
    assert find_phi(named_group("C4")) is None
    with pytest.raises(Unavailable):
        require_phi(named_group("B3"))


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


def weyl_elements_on_coweights(rd):
    """Weyl elements as coweight-coordinate matrices, in BFS word order, the
    identity first: the oracle for the closed-form Langlands transport."""
    gens = [reflection_matrix(rd.cartan.column(i), i) for i in range(rd.rank)]
    ident = IntMatrix.identity(rd.rank)
    seen = {ident}
    frontier = [ident]
    yield ident
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = g @ w
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    yield u
        frontier = nxt


def test_weyl_enumeration_sizes():
    assert sum(1 for _ in weyl_elements_on_coweights(named_group("A2"))) == 6
    assert sum(1 for _ in weyl_elements_on_coweights(named_group("B2"))) == 8
    assert sum(1 for _ in weyl_elements_on_coweights(named_group("G2"))) == 12


def test_value_semantics():
    """Equal fields give equal objects with equal hashes, of one class only:
    the contract of every lru_cache keyed on a RootDatum."""
    named, built = named_group("SU(3)"), build([("A", 2)], label="SU(3)")
    assert named is not built and named == built and hash(named) == hash(built)
    basis = IntMatrix.identity(2)
    assert Lattice(2, basis, "a") != Lattice(2, basis, "b")
    assert Lattice(2, basis) == Lattice(2, basis, label="")
    twist = TwistClass(named, named.cartan)
    assert twist != (named, named.cartan) and (named, named.cartan) != twist
    assert (repr(Lattice(1, IntMatrix([[2]]), "x"))
            == "Lattice(ambient_dim=1, basis=IntMatrix([[2]]), label='x')")
    h3_group(named)
    hits = h3_group.cache_info().hits
    h3_group(built)
    assert h3_group.cache_info().hits == hits + 1


def test_named_vs_json_style_build():
    assert named_group("SU(3)").cartan == build([("A", 2)]).cartan
    assert named_group("Spin(5)").components == (("B", 2),)
    assert named_group("Sp(3)").components == (("C", 3),)
