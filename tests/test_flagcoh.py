"""Cohomology of groups and flag manifolds through the lattice complex."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from tdual_lie.errors import NotACycle
from tdual_lie.flagcoh import (
    build_complex,
    chern_classes,
    class_in_h3,
    cohomology,
    dualizability_report,
    h2_of_K,
    h3_group,
    h4_of_B,
    sym_invariants,
)
from tdual_lie.loopext import admissibility_check, commutator_from_matrix
from tdual_lie.rootdata import (
    all_coroots,
    basic_form,
    build,
    center,
    center_product_generators,
    form_pairing,
    fundamental_group_of,
    langlands_dual,
    named_group,
)
from tdual_lie.tduality import level_twist
from tdual_lie.zlinalg import IntMatrix, kernel_of_matrix

from test_zlinalg import sym2_matrix


def _sympy(m: IntMatrix) -> Matrix:
    return Matrix(m.rows, m.cols, list(m.entries))


def _int_matrix(m: Matrix) -> IntMatrix:
    assert all(x.is_integer for x in m)
    return IntMatrix([[int(x) for x in m.row(i)] for i in range(m.rows)], cols=m.cols)


def level_twist_matrix(rd, level):
    """u(lam) = level * <lam, .> as a weight-coordinate matrix: G A^{-1} B,
    computed over the rationals (sympy), apart from the integer route."""
    g = _sympy(basic_form(rd, level))
    return _int_matrix(g * _sympy(rd.cartan).inv() * _sympy(rd.integral.basis))


def invariants_by_reflection_kernel(rd) -> IntMatrix:
    """Weyl invariants of sym^2(weights) by brute force: the common kernel of
    sym^2(s_i) - id over the simple reflections (they generate W)."""
    dim = rd.rank * (rd.rank + 1) // 2
    stacked = []
    for i in range(rd.rank):
        m = sym2_matrix(rd.reflection_on_weights(i)) - IntMatrix.identity(dim)
        stacked += m.tolist()
    return kernel_of_matrix(IntMatrix(stacked, cols=dim))


def wedge3_differential(cx) -> IntMatrix:
    """Degree-2 differential on wedge^3 of the characters.

    Antiderivation rule: x^y^z maps to r(x)(x)(y^z) - r(y)(x)(x^z)
    + r(z)(x)(x^y) inside weights (x) wedge^2(chars).
    """
    n = cx.rank
    x = cx.char_basis
    wedge2 = list(cx.wedge_pairs)
    w2_index = {p: k for k, p in enumerate(wedge2)}
    triples = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)]
    rows = n * len(wedge2)
    out = [[0] * len(triples) for _ in range(rows)]
    for col, (a, b, c) in enumerate(triples):
        for i in range(n):
            out[i * len(wedge2) + w2_index[(b, c)]][col] += x[i, a]
            out[i * len(wedge2) + w2_index[(a, c)]][col] -= x[i, b]
            out[i * len(wedge2) + w2_index[(a, b)]][col] += x[i, c]
    return IntMatrix(out, cols=len(triples))


@st.composite
def root_data(draw):
    """Products of simple factors of total rank <= 6, B/C/F/G included, with
    a simply connected, adjoint or custom fundamental group.  A quotient's
    first factor is B, C, F or G, so that its integral lattice often pairs
    roots of different lengths (PSp(n) at odd level is not integral there)."""
    factors = {"A": range(1, 7), "B": range(2, 7), "C": range(3, 7), "D": range(4, 7),
               "G": [2], "F": [4]}
    kind = draw(st.sampled_from(["simply_connected", "adjoint", "custom"]))
    comps, total = [], 0
    while not comps or (total < 6 and draw(st.booleans())):
        quotient_lead = kind != "simply_connected" and not comps
        series = draw(st.sampled_from("BCFG" if quotient_lead else sorted(factors)))
        fits = [r for r in factors[series] if total + r <= 6]
        if fits:
            comps.append((series, draw(st.sampled_from(fits))))
            total += comps[-1][1]
    return with_fundamental_group(draw, comps, kind)


def with_fundamental_group(draw, comps, kind):
    """build(comps, kind), drawing one or two center generators when `kind`
    is "custom"."""
    if kind != "custom":
        return build(comps, kind)
    sc = build(comps)
    cyclic = center_product_generators(sc.components, sc.cartan)
    gens = draw(st.lists(st.lists(st.integers(0, 3), min_size=len(cyclic), max_size=len(cyclic)),
                         min_size=1, max_size=2))
    return build(comps, {"generators": gens})


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data(), st.integers(0, 4), st.data())
def test_integer_form_route_matches_rationals(rd, level, data):
    """The integer route of the level twist, the character lattice and the
    admissibility form values against G, A^{-1} and B^{-1} over Q."""
    n = rd.rank
    a, b = _sympy(rd.cartan), _sympy(rd.integral.basis)
    g = _sympy(basic_form(rd, level))
    assert level_twist(rd, level).matrix == level_twist_matrix(rd, level)
    assert rd.char_lattice().basis == _int_matrix(a.T * b.inv().T)
    # <lambda_k, H> = (A^{-1} lambda_k)^T G (A^{-1} H) for every integral basis
    # vector lambda_k and every coroot H, as admissibility_check reads it.
    coroots = all_coroots(rd)
    h = Matrix([list(v) for v in coroots]).T
    want = (a.inv() * b).T * g * a.inv() * h
    got = _int_matrix((a.inv() * h).T) @ form_pairing(rd, level, rd.integral.basis)
    assert got.transpose() == _int_matrix(want)
    # The whole report, against b(lambda_k, H) = [<lambda_k, H>/2] over Q.
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3)]))
            entries[i][j], entries[j][i] = x, -x
    comm = commutator_from_matrix(rd, entries)
    coords = b.inv() * h
    expected = []
    for k in range(n):
        for t, coroot in enumerate(coroots):
            have = comm.value([int(i == k) for i in range(n)], [int(x) for x in coords.col(t)])
            half = Fraction(int(want[k, t]) % 2, 2)
            if have != half:
                expected.append(f"b(basis_{k}, coroot {coroot}) = {have} but [<.,.>/2] = {half}")
    report = admissibility_check(rd, level, comm)
    assert report["half_pairing_violations"] == expected
    # Integrality of the form on the integral lattice: B^T A^-T G A^-1 B.
    gram = b.T * a.inv().T * g * a.inv() * b
    assert report["integrality_violations"] == [
        f"<lambda_{j}, lambda_{k}> = {gram[j, k]} is not an integer"
        for j in range(n) for k in range(j, n) if not gram[j, k].is_integer]


def test_sym_invariants_ranks():
    assert sym_invariants(named_group("A1")).rank == 1
    assert sym_invariants(named_group("A2")).rank == 1
    two_a1 = named_group("SU(2)")
    from tdual_lie.rootdata import build

    prod = build([("A", 1), ("A", 1)])
    assert sym_invariants(prod).rank == 2
    assert two_a1.rank == 1


def test_sym_invariants_a1_generator():
    # The reflection flips the weight, so the square survives.
    inv = sym_invariants(named_group("A1"))
    assert inv.basis == IntMatrix([[1]])


def test_sym_invariants_a2_generator_invariant():
    rd = named_group("A2")
    inv = sym_invariants(rd)
    gen = inv.basis.column(0)
    for i in range(2):
        assert sym2_matrix(rd.reflection_on_weights(i)).apply(gen) == gen


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_sym_invariants_match_reflection_kernel(rd):
    """The closed form (one basic form per factor) against the brute-force
    kernel, on random root data and on their Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        assert sym_invariants(datum).basis == invariants_by_reflection_kernel(datum), datum.label


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_vanishing_pieces_match_kernels(rd):
    """The full-rank certificate against the kernels it replaces: the wedge^3
    differential, d20 and the character basis have zero kernel, on random
    root data and on their Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        cx = build_complex(datum)
        assert cx.injective, datum.label
        if datum.rank >= 3:
            assert kernel_of_matrix(wedge3_differential(cx)).cols == 0, datum.label
        assert kernel_of_matrix(cx.d20).cols == 0, datum.label
        assert kernel_of_matrix(cx.char_basis).cols == 0, datum.label
        assert dualizability_report(datum)["wedge3_kernel_rank"] == 0, datum.label


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_center_order_is_cartan_determinant(rd):
    """|Z| of the simply connected form is |det A|, on random root data and
    on their Langlands duals; pi_1 of a group and of its dual multiply to it."""
    dual = langlands_dual(rd)
    det = abs(rd.cartan.det())
    for datum in (rd, dual):
        assert center(datum).order() == det, datum.label
    assert fundamental_group_of(rd).order() * fundamental_group_of(dual).order() == det


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_h3_rank_counts_factors(rd):
    """H^3 of a simply connected group is free of rank the number of simple
    factors, on random root data and on their Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        if datum.is_simply_connected():
            g = h3_group(datum)
            assert g.free_rank == len(datum.components) and g.torsion == (), datum.label


def invariant_factors(orders) -> list[int]:
    """Invariant factors d1 | d2 | ... of the sum of Z/a over `orders`:
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), applied to every pair in order,
    leaves a divisor chain; the 1s are dropped."""
    a = list(orders)
    for i, j in combinations(range(len(a)), 2):
        g = gcd(a[i], a[j])
        a[i], a[j] = g, a[i] * a[j] // g
    return [d for d in a if d > 1]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_h3_torsion_is_wedge2_pi1(rd):
    """H^3(K) = Z^f + wedge^2 pi_1 and H^2(K) = pi_1, f the number of simple
    factors, on random root data and their Langlands duals.

    The universal cover of K has H_1 = H_2 = 0, so the Cartan-Leray spectral
    sequence of the covering gives H_2(K) = H_2(pi_1; Z), which for a finite
    abelian group is wedge^2 pi_1 (Brown, Cohomology of Groups, V.6); the
    torsion of H^3(K) is Ext(H_2(K), Z).  For pi_1 = Z/d_1 + ... + Z/d_m,
    wedge^2 pi_1 is the sum of Z/gcd(d_i, d_j) over i < j.
    """
    for datum in (rd, langlands_dual(rd)):
        pi1 = fundamental_group_of(datum).torsion
        report = cohomology(datum)
        assert report["H3_K"]["free_rank"] == len(datum.components), datum.label
        wedge2 = [gcd(a, b) for a, b in combinations(pi1, 2)]
        assert report["H3_K"]["invariant_factors"] == invariant_factors(wedge2), datum.label
        assert report["H2_K"]["free_rank"] == 0, datum.label
        assert report["H2_K"]["invariant_factors"] == list(pi1), datum.label


def test_invariant_factors_helper():
    assert invariant_factors([2, 2, 2]) == [2, 2, 2]
    assert invariant_factors([4, 6]) == [2, 12]
    assert invariant_factors([1, 3, 1]) == [3]
    assert invariant_factors([]) == []


def test_complex_ranks():
    a1 = build_complex(named_group("SU(2)"))
    assert a1.c0_rank() == 0 and a1.c1_rank() == 1
    su2, so3 = h4_of_B(named_group("SU(2)")), h4_of_B(named_group("SO(3)"))
    assert (su2.free_rank, su2.torsion) == (so3.free_rank, so3.torsion)

    so3 = build_complex(named_group("SO(3)"))
    assert so3.char_basis == IntMatrix([[2]])  # restriction is times 2

    a2 = build_complex(named_group("SU(3)"))
    assert a2.c0_rank() == 1 and a2.c1_rank() == 4
    # quotient sym^2 / invariants has rank 3 - 1 = 2
    assert a2.sym2_rank() - a2.invariants.rank == 2


def test_complex_is_complex_everywhere():
    names = ["SU(2)", "SO(3)", "PSU(3)", "SU(4)", "SU(5)", "Spin(5)", "Sp(3)",
             "Spin(8)", "G2", "F4"]
    for name in names:
        build_complex(named_group(name))  # asserts d21 o d20 = 0 internally


def test_h3_examples():
    for name in ["SU(2)", "SO(3)", "SU(3)"]:
        g = h3_group(named_group(name))
        assert g.free_rank == 1 and g.torsion == (), name


def test_h3_simply_connected_rank_counts_factors():
    from tdual_lie.rootdata import build

    for comps in [[("A", 1)], [("A", 2)], [("A", 3)], [("A", 4)], [("B", 2)],
                  [("C", 3)], [("D", 4)], [("G", 2)]]:
        g = h3_group(build(comps))
        assert g.free_rank == 1 and g.torsion == (), comps
    two = build([("A", 1), ("A", 2)])
    g = h3_group(two)
    assert g.free_rank == 2 and g.torsion == ()


def test_h2_examples():
    g = h2_of_K(named_group("SU(2)"))
    assert (g.free_rank, g.torsion) == (0, ())
    assert h2_of_K(named_group("SO(3)")).torsion == (2,)
    assert h2_of_K(named_group("PSU(3)")).torsion == (3,)
    g = h2_of_K(named_group("SU(4)"))
    assert (g.free_rank, g.torsion) == (0, ())


def test_h4_base_ranks_with_weyl_oracle():
    def coxeter_length_count(rd, target):
        """Number of Weyl elements of length `target`, by BFS word length."""
        gens = [rd.reflection_on_coweights(i) for i in range(rd.rank)]
        ident = IntMatrix.identity(rd.rank)
        depth = {ident: 0}
        frontier = [ident]
        d = 0
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    u = g @ w
                    if u not in depth:
                        depth[u] = d + 1
                        nxt.append(u)
            frontier = nxt
            d += 1
        return sum(1 for v in depth.values() if v == target)

    a1 = named_group("A1")
    a2 = named_group("A2")
    # Betti number b4 of the flag manifold counts length-2 Weyl elements.
    assert h4_of_B(a1).free_rank == coxeter_length_count(a1, 2) == 0
    assert h4_of_B(a2).free_rank == coxeter_length_count(a2, 2) == 2
    assert h4_of_B(a1).torsion == () and h4_of_B(a2).torsion == ()


def test_h4_base_torsion_free_across_types():
    for name in ["SU(2)", "SO(3)", "SU(3)", "PSU(3)", "SU(4)", "B2", "C3", "G2"]:
        g = h4_of_B(named_group(name))
        assert g.torsion == (), name


def test_chern_classes():
    assert chern_classes(named_group("SU(2)")) == ((1,),)
    assert chern_classes(named_group("SO(3)")) == ((2,),)
    su3 = chern_classes(named_group("SU(3)"))
    assert su3 == ((1, 0), (0, 1))  # characters = weights, identity


def test_is_cycle_su2_all_k():
    cx = build_complex(named_group("SU(2)"))
    for k in range(-3, 4):
        assert cx.is_cycle(IntMatrix([[k]]))


def test_is_cycle_su3():
    rd = named_group("SU(3)")
    cx = build_complex(rd)
    assert cx.is_cycle(level_twist_matrix(rd, 1))
    assert cx.is_cycle(level_twist_matrix(rd, 2))
    # x_1 (x) w_1 alone is not Weyl-invariant after symmetrization.
    assert not cx.is_cycle(IntMatrix([[1, 0], [0, 0]]))


def test_cycle_invariant_under_boundaries():
    rd = named_group("SU(3)")
    cx = build_complex(rd)
    rng = random.Random(8)
    u = level_twist_matrix(rd, 1)
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in range(cx.c0_rank())]
        moved = u + cx.boundary_of(coeffs)
        assert cx.is_cycle(moved)
        assert class_in_h3(rd, moved) == class_in_h3(rd, u)
    bad = IntMatrix([[1, 0], [0, 0]])
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in range(cx.c0_rank())]
        assert not cx.is_cycle(bad + cx.boundary_of(coeffs))


def test_class_in_h3_su2():
    rd = named_group("SU(2)")
    for k in range(-2, 5):
        free, tors = class_in_h3(rd, IntMatrix([[k]]))
        assert tors == ()
        assert [abs(x) for x in free] == [abs(k)]
    zero_free, zero_tors = class_in_h3(rd, IntMatrix([[0]]))
    assert zero_free == (0,) and zero_tors == ()


def test_class_in_h3_requires_cycle():
    rd = named_group("SU(3)")
    with pytest.raises(NotACycle):
        class_in_h3(rd, IntMatrix([[1, 0], [0, 0]]))


def test_quadratic_form_route_agrees():
    """Independent cycle test: u is a cycle iff the quadratic polynomial
    X -> <u(iota X), X> on the coroot lattice lies in the invariant lattice."""
    from tdual_lie.zlinalg import solve_columns

    rng = random.Random(12)
    for name in ["SU(2)", "SU(3)", "SO(3)", "PSU(3)", "Spin(5)"]:
        rd = named_group(name)
        cx = build_complex(rd)
        n = rd.rank
        for _ in range(25):
            u = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            # v = u o iota on the coroot basis, in weight coordinates.
            coroots_in_lam = solve_columns(rd.integral.basis, rd.cartan)
            v = u @ coroots_in_lam
            coeffs = [0] * cx.sym2_rank()
            for idx, (i, j) in enumerate(cx.mono_pairs):
                coeffs[idx] = v[i, j] + v[j, i] if i != j else v[i, i]
            target = IntMatrix.from_columns([tuple(coeffs)])
            if cx.invariants.rank:
                poly_route = solve_columns(cx.invariants.basis, target) is not None
            else:
                poly_route = all(x == 0 for x in target.column(0))
            assert poly_route == cx.is_cycle(u), (name, u)


def test_dualizability_reports():
    rng = random.Random(5)
    for name in ["SU(3)", "SO(3)"]:
        rd = named_group(name)
        cx = build_complex(rd)
        base = level_twist_matrix(rd, 1)
        for trial in range(10):
            k = rng.randint(-3, 3)
            coeffs = [rng.randint(-2, 2) for _ in range(cx.c0_rank())]
            u = base.scale(k) + cx.boundary_of(coeffs)
            assert cx.is_cycle(u)
        assert dualizability_report(rd)["dualizable"]
    su2 = build_complex(named_group("SU(2)"))
    for k in (-2, 0, 1, 5):
        assert su2.is_cycle(IntMatrix([[k]]))
    assert dualizability_report(named_group("SU(2)"))["dualizable"]
    big = dualizability_report(named_group("SU(4)"))
    assert big["dualizable"] and big["wedge3_kernel_rank"] == 0


def test_cohomology_report_shape():
    d = cohomology(named_group("SO(3)"))
    assert d["H2_K"]["invariant_factors"] == [2]
    assert d["H3_K"] == {"free_rank": 1, "invariant_factors": [], "pretty": "Z"}
    assert d["H2_B"]["free_rank"] == 1
    assert not d["H4_B_torsion_discrepancy"]
