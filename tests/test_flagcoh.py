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
    boundary,
    chern_classes,
    class_in_h3,
    cohomology,
    dualizability_report,
    h3_group,
    is_cycle,
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
from tdual_lie.zlinalg import (
    IntMatrix,
    Lattice,
    column_hermite_form,
    hstack,
    kernel_of_matrix,
    pair_basis,
    subquotient,
)

from test_zlinalg import bareiss_det, sym2_matrix


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


def reflection_matrix(root, i) -> IntMatrix:
    """s(x) = x - x_i * root as an n x n matrix: the i-th simple reflection on
    weight coordinates for row i of the Cartan matrix, on coweight
    coordinates for its column i."""
    n = len(root)
    return IntMatrix([[int(r == c) - root[r] * int(c == i) for c in range(n)] for r in range(n)])


def invariants_by_reflection_kernel(rd) -> IntMatrix:
    """Weyl invariants of sym^2(weights) by brute force: the common kernel of
    sym^2(s_i) - id over the simple reflections (they generate W)."""
    dim = rd.rank * (rd.rank + 1) // 2
    stacked = []
    for i in range(rd.rank):
        m = sym2_matrix(reflection_matrix(rd.cartan.row(i), i)) - IntMatrix.identity(dim)
        stacked += m.tolist()
    return kernel_of_matrix(IntMatrix(stacked, cols=dim))


def wedge3_differential(rd) -> IntMatrix:
    """Degree-2 differential on wedge^3 of the characters.

    Antiderivation rule: x^y^z maps to r(x)(x)(y^z) - r(y)(x)(x^z)
    + r(z)(x)(x^y) inside weights (x) wedge^2(chars).
    """
    n = rd.rank
    x = rd.char_lattice().basis
    wedge2 = pair_basis(n, strict=True)
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


# -- the complex in tensor coordinates, the oracle of the matrix form ---------


def tensor_complex(rd) -> tuple[IntMatrix, IntMatrix]:
    """(d20, d21_raw) as dense matrices built from index tables: d20 on
    wedge^2(chars) -> chars (x) weights, d21_raw on chars (x) weights ->
    sym^2(weights), with x_a (x) w_j at a*n + j and the pair_basis orders."""
    n = rd.rank
    x = rd.char_lattice().basis
    wedge = pair_basis(n, strict=True)
    mono = pair_basis(n, strict=False)
    mono_index = {p: k for k, p in enumerate(mono)}
    d20 = [[0] * len(wedge) for _ in range(n * n)]
    for col, (a, b) in enumerate(wedge):
        for j in range(n):
            d20[b * n + j][col] += x[j, a]
            d20[a * n + j][col] -= x[j, b]
    d21 = [[0] * (n * n) for _ in range(len(mono))]
    for a in range(n):
        for j in range(n):
            for i in range(n):
                d21[mono_index[(min(i, j), max(i, j))]][a * n + j] += x[i, a]
    return IntMatrix(d20, cols=len(wedge)), IntMatrix(d21, cols=n * n)


def twist_coords(u: IntMatrix) -> tuple[int, ...]:
    """Tensor coordinates of a twist: x_a (x) w_b carries u[b, a]."""
    n = u.rows
    return tuple(u[b, a] for a in range(n) for b in range(n))


def as_twist(c, n: int) -> IntMatrix:
    """The twist matrix with tensor coordinates c (see twist_coords)."""
    return IntMatrix([[c[a * n + b] for a in range(n)] for b in range(n)], cols=n)


def boundary_of(d20: IntMatrix, n: int, wedge_coeffs) -> IntMatrix:
    """Twist matrix of the boundary of an element of wedge^2(chars)."""
    return as_twist(d20.apply(tuple(wedge_coeffs)), n)


def oracle_is_cycle(rd, d21: IntMatrix, u: IntMatrix) -> bool:
    return sym_invariants(rd).contains(d21.apply(twist_coords(u)))


def oracle_cycles(rd, d21: IntMatrix) -> Lattice:
    """Kernel of d21_raw into sym^2(weights) / invariants."""
    n2 = d21.cols
    ker = kernel_of_matrix(hstack(d21, sym_invariants(rd).basis.scale(-1)))
    proj = IntMatrix([list(ker.row(i)) for i in range(n2)], cols=ker.cols)
    return Lattice(n2, column_hermite_form(proj), label="degree-3 cycles")


def random_shift(rng, n, lo, hi) -> IntMatrix:
    """Strictly upper-triangular matrix, one draw per pair in pair_basis order."""
    return IntMatrix([[rng.randint(lo, hi) if a < b else 0 for b in range(n)] for a in range(n)])


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
    entries = [[(0, 1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p, q = data.draw(st.sampled_from([(0, 1), (1, 2), (1, 3)]))
            entries[i][j], entries[j][i] = (p, q), (-p, q)
    comm = commutator_from_matrix(rd, entries)
    coords = b.inv() * h
    expected = []
    for k in range(n):
        for t, coroot in enumerate(coroots):
            have = sum(Fraction(*v) * int(y) for v, y in zip(comm.values[k], coords.col(t))) % 1
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
        assert sym2_matrix(reflection_matrix(rd.cartan.row(i), i)).apply(gen) == gen


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
        x = datum.char_lattice().basis
        assert x.rank() == datum.rank, datum.label
        if datum.rank >= 3:
            assert kernel_of_matrix(wedge3_differential(datum)).cols == 0, datum.label
        assert kernel_of_matrix(tensor_complex(datum)[0]).cols == 0, datum.label
        assert kernel_of_matrix(x).cols == 0, datum.label
        assert dualizability_report(datum)["wedge3_kernel_rank"] == 0, datum.label


def generates(classes, r: int, torsion) -> bool:
    """True when the (free, torsion) class coordinates generate the group
    Z^r + Z/t_1 + ... + Z/t_m: with the relations t_k e_(r+k) they must
    span Z^(r+m)."""
    m = len(torsion)
    relations = [[t if i == r + k else 0 for i in range(r + m)] for k, t in enumerate(torsion)]
    span = IntMatrix.from_columns([f + t for f, t in classes] + relations, rows=r + m)
    return column_hermite_form(span) == IntMatrix.identity(r + m)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data(), st.integers(0, 4), st.data())
def test_matrix_complex_matches_tensor_oracle(rd, level, data):
    """The n x n matrix form of the complex against the tensor-coordinate
    build, on random root data and on their Langlands duals: the cycle test
    on level twists, on level twists moved by boundaries and on random
    matrices; the boundary map; d21 o d20 = 0; and H^3 (see
    check_h3_against_tensor_oracle)."""
    for datum in (rd, langlands_dual(rd)):
        n = datum.rank
        d20, d21 = tensor_complex(datum)
        assert d21 @ d20 == IntMatrix.zero(d21.rows, d20.cols), datum.label
        ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        u = level_twist(datum, level).matrix
        assert is_cycle(datum, u) and oracle_is_cycle(datum, d21, u), datum.label
        for _ in range(3):
            s = IntMatrix(data.draw(st.lists(ints, min_size=n, max_size=n)))
            coeffs = [s[a, b] - s[b, a] for a, b in pair_basis(n, strict=True)]
            assert boundary(datum, s) == boundary_of(d20, n, coeffs), datum.label
            moved = u + boundary(datum, s)
            assert is_cycle(datum, moved) and oracle_is_cycle(datum, d21, moved), datum.label
            v = IntMatrix(data.draw(st.lists(ints, min_size=n, max_size=n)))
            assert is_cycle(datum, v) == oracle_is_cycle(datum, d21, v), (datum.label, v)
        check_h3_against_tensor_oracle(datum)


def check_h3_against_tensor_oracle(rd):
    """The oracle H^3 is the subquotient of the tensor cycles by the tensor
    boundaries.  It has the invariants of `h3_group`, `class_in_h3` vanishes
    on each oracle boundary generator, and the classes of the oracle cycle
    basis generate `h3_group`.  So `class_in_h3` induces a surjection
    between isomorphic finitely generated abelian groups, which is an
    isomorphism."""
    n = rd.rank
    d20, d21 = tensor_complex(rd)
    g = h3_group(rd)
    cycles = oracle_cycles(rd, d21)
    oracle = subquotient(Lattice(n * n, column_hermite_form(d20)), cycles)
    assert (g.free_rank, g.torsion) == (oracle.free_rank, oracle.torsion), rd.label
    zero = ((0,) * g.free_rank, (0,) * len(g.torsion))
    for c in d20.columns():
        assert class_in_h3(rd, as_twist(c, n)) == zero, rd.label
    classes = [class_in_h3(rd, as_twist(c, n)) for c in cycles.basis.columns()]
    assert generates(classes, g.free_rank, g.torsion), rd.label


@pytest.mark.parametrize("comps, fundamental_group", [
    ([("A", 1), ("A", 3)], "adjoint"),  # pi_1 = Z/2 + Z/4
    ([("A", 2), ("A", 5)], "adjoint"),  # Z/3 + Z/6
    ([("A", 1)] * 3, "adjoint"),
    ([("D", 4)], "adjoint"),
    ([("D", 6)], "adjoint"),
    ([("A", 1), ("A", 1)], {"generators": [[1, 1]]}),
    ([("A", 3), ("A", 1)], {"generators": [[2, 1]]}),
    ([("B", 3), ("C", 3)], "adjoint"),
])
def test_h3_of_quotients_matches_tensor_oracle(comps, fundamental_group):
    """Products whose fundamental groups have several invariant factors,
    some of them distinct, which random draws reach only now and then."""
    check_h3_against_tensor_oracle(build(comps, fundamental_group))


def test_generates_helper():
    assert generates([((1,), ())], 1, ())
    assert not generates([((2,), ())], 1, ())
    assert generates([((2,), (1,)), ((3,), (0,))], 1, (2,))
    assert not generates([((2,), (0,)), ((3,), (1,))], 1, (2,))
    assert not generates([((1,), (0,))], 1, (2,))
    assert generates([((), (1,))], 0, (2,))
    assert not generates([((), (2,))], 0, (4,))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_center_order_is_cartan_determinant(rd):
    """|Z| of the simply connected form is |det A|, on random root data and
    on their Langlands duals; pi_1 of a group and of its dual multiply to it."""
    dual = langlands_dual(rd)
    det = abs(bareiss_det(rd.cartan))
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
    d20, d21 = tensor_complex(named_group("SU(2)"))
    assert d20.cols == 0 and d21.cols == 1
    su2, so3 = cohomology(named_group("SU(2)")), cohomology(named_group("SO(3)"))
    assert su2["H4_B"] == so3["H4_B"]

    # restriction is times 2
    assert named_group("SO(3)").char_lattice().basis == IntMatrix([[2]])

    a2 = named_group("SU(3)")
    d20, d21 = tensor_complex(a2)
    assert d20.cols == 1 and d21.cols == 4
    # quotient sym^2 / invariants has rank 3 - 1 = 2
    assert d21.rows - sym_invariants(a2).rank == 2


def test_complex_is_complex_everywhere():
    names = ["SU(2)", "SO(3)", "PSU(3)", "SU(4)", "SU(5)", "Spin(5)", "Sp(3)",
             "Spin(8)", "G2", "F4"]
    for name in names:
        d20, d21 = tensor_complex(named_group(name))
        assert d21 @ d20 == IntMatrix.zero(d21.rows, d20.cols), name


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
    for name, torsion in [("SU(2)", []), ("SO(3)", [2]), ("PSU(3)", [3]), ("SU(4)", []),
                          ("PSU(4)", [4])]:
        g = cohomology(named_group(name))["H2_K"]
        assert (g["free_rank"], g["invariant_factors"]) == (0, torsion), name


def coxeter_length_count(rd, target):
    """Number of Weyl elements of length `target`, by BFS word length."""
    gens = [reflection_matrix(rd.cartan.column(i), i) for i in range(rd.rank)]
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


def test_h4_base_ranks_with_weyl_oracle():
    """The Betti number b4 of the flag manifold counts the Weyl elements of
    length 2 (Bruhat cells), for each group and its Langlands dual."""
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4"]:
        rd = named_group(name)
        for datum in (rd, langlands_dual(rd)):
            g = cohomology(datum)["H4_B"]
            assert g["free_rank"] == coxeter_length_count(datum, 2), datum.label
            assert g["invariant_factors"] == [], datum.label
    assert coxeter_length_count(named_group("A1"), 2) == 0
    assert coxeter_length_count(named_group("A2"), 2) == 2


def test_h4_base_torsion_free_across_types():
    """sym^2(weights) / invariants has no torsion: `sym_invariants` is
    saturated, which the closed form of H^4 relies on."""
    for name in ["SU(2)", "SO(3)", "SU(3)", "PSU(3)", "SU(4)", "B2", "C3", "G2"]:
        assert cohomology_by_subquotients(named_group(name))["H4_B"][1] == [], name


def cohomology_by_subquotients(rd) -> dict:
    """H^1 and H^2 of the group and H^2 and H^4 of the base as the lattice
    subquotients that `cohomology` reads in closed form: 0/0,
    weights/characters, weights/0 and sym^2(weights)/invariants, each by
    its own Smith form.  Values are (free_rank, invariant_factors)."""
    n, inv = rd.rank, sym_invariants(rd)
    chars = Lattice(n, column_hermite_form(rd.char_lattice().basis))
    zero = Lattice(n, IntMatrix.zero(n, 0))
    groups = {
        "H1_K": subquotient(Lattice(0, IntMatrix.zero(0, 0)), Lattice.standard(0)),
        "H2_K": subquotient(chars, Lattice.standard(n)),
        "H2_B": subquotient(zero, Lattice.standard(n)),
        "H4_B": subquotient(inv, Lattice.standard(inv.ambient_dim)),
    }
    return {key: (g.free_rank, list(g.torsion)) for key, g in groups.items()}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_closed_forms_match_subquotient_route(rd):
    """H1_K, H2_K, H2_B and H4_B of `cohomology` against their subquotients,
    on random root data and on their Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        report = cohomology(datum)
        for key, (free_rank, torsion) in cohomology_by_subquotients(datum).items():
            got = report[key]
            assert (got["free_rank"], got["invariant_factors"]) == (free_rank, torsion), \
                (datum.label, key)
        assert report["H4_B_torsion_discrepancy"] is False, datum.label


def test_chern_classes():
    assert chern_classes(named_group("SU(2)")) == ((1,),)
    assert chern_classes(named_group("SO(3)")) == ((2,),)
    su3 = chern_classes(named_group("SU(3)"))
    assert su3 == ((1, 0), (0, 1))  # characters = weights, identity


def test_is_cycle_su2_all_k():
    su2 = named_group("SU(2)")
    for k in range(-3, 4):
        assert is_cycle(su2, IntMatrix([[k]]))


def test_is_cycle_su3():
    rd = named_group("SU(3)")
    assert is_cycle(rd, level_twist_matrix(rd, 1))
    assert is_cycle(rd, level_twist_matrix(rd, 2))
    # x_1 (x) w_1 alone is not Weyl-invariant after symmetrization.
    assert not is_cycle(rd, IntMatrix([[1, 0], [0, 0]]))


def test_cycle_invariant_under_boundaries():
    rd = named_group("SU(3)")
    rng = random.Random(8)
    u = level_twist_matrix(rd, 1)
    for _ in range(20):
        moved = u + boundary(rd, random_shift(rng, 2, -3, 3))
        assert is_cycle(rd, moved)
        assert class_in_h3(rd, moved) == class_in_h3(rd, u)
    bad = IntMatrix([[1, 0], [0, 0]])
    for _ in range(5):
        assert not is_cycle(rd, bad + boundary(rd, random_shift(rng, 2, -3, 3)))


def test_class_in_h3_su2():
    rd = named_group("SU(2)")
    for k in range(-2, 5):
        free, tors = class_in_h3(rd, IntMatrix([[k]]))
        assert tors == ()
        assert [abs(x) for x in free] == [abs(k)]
    zero_free, zero_tors = class_in_h3(rd, IntMatrix([[0]]))
    assert zero_free == (0,) and zero_tors == ()


@pytest.mark.parametrize("comps, fundamental_group, twist, expected", [
    ([("A", 1), ("A", 1)], {"generators": [[1, 1]]}, None, ((2, 0), ())),  # SO(4); was (2, -2)
    ([("A", 3), ("A", 1)], {"generators": [[2, 1]]}, None, ((2, 1), ())),  # was (3, 2)
    ([("B", 3), ("C", 3)], "adjoint", None, ((1, 2), (0,))),
    ([("D", 4)], "adjoint", None, ((2,), (1,))),
    # A torsion coordinate mod 3 reads y = N_23 = 6, not N_32 = -6.
    ([("A", 2), ("A", 2)], "adjoint", [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
     ((0, 0), (2,))),
])
def test_class_of_quotients(comps, fundamental_group, twist, expected):
    """Classes of non-simply-connected products, at `level:1` when no twist
    is given, in the Smith coordinates of the (c, y) presentation."""
    rd = build(comps, fundamental_group)
    u = level_twist(rd, 1).matrix if twist is None else IntMatrix(twist)
    assert class_in_h3(rd, u) == expected


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
        inv = sym_invariants(rd)
        n = rd.rank
        for _ in range(25):
            u = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            # v = u o iota on the coroot basis, in weight coordinates.
            coroots_in_lam = solve_columns(rd.integral.basis, rd.cartan)
            v = u @ coroots_in_lam
            coeffs = [v[i, j] + v[j, i] if i != j else v[i, i]
                      for i, j in pair_basis(n, strict=False)]
            target = IntMatrix.from_columns([tuple(coeffs)])
            if inv.rank:
                poly_route = solve_columns(inv.basis, target) is not None
            else:
                poly_route = all(x == 0 for x in target.column(0))
            assert poly_route == is_cycle(rd, u), (name, u)


def test_dualizability_reports():
    rng = random.Random(5)
    for name in ["SU(3)", "SO(3)"]:
        rd = named_group(name)
        base = level_twist_matrix(rd, 1)
        for trial in range(10):
            k = rng.randint(-3, 3)
            u = base.scale(k) + boundary(rd, random_shift(rng, rd.rank, -2, 2))
            assert is_cycle(rd, u)
        assert dualizability_report(rd)["dualizable"]
    su2 = named_group("SU(2)")
    for k in (-2, 0, 1, 5):
        assert is_cycle(su2, IntMatrix([[k]]))
    assert dualizability_report(named_group("SU(2)"))["dualizable"]
    big = dualizability_report(named_group("SU(4)"))
    assert big["dualizable"] and big["wedge3_kernel_rank"] == 0


def test_cohomology_report_shape():
    d = cohomology(named_group("SO(3)"))
    assert d["H2_K"]["invariant_factors"] == [2]
    assert d["H3_K"] == {"free_rank": 1, "invariant_factors": [], "pretty": "Z"}
    assert d["H2_B"]["free_rank"] == 1
    assert not d["H4_B_torsion_discrepancy"]
