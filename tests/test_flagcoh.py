"""Cohomology of groups and flag manifolds through the lattice complex."""

import importlib
import inspect
import pkgutil
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

import tdual_lie
from tdual_lie import flagcoh, rootdata, zlinalg
from tdual_lie.cli import report_group, report_twist, resolve_twist
from tdual_lie.errors import TdualError
from tdual_lie.flagcoh import (
    DUALIZABILITY_NOTES,
    boundary,
    chern_classes,
    class_in_h3,
    cohomology,
    h3_group,
    is_cycle,
)
from tdual_lie.loopext import admissibility_check, commutator_from_level, commutator_from_matrix
from tdual_lie.rootdata import (
    build,
    center,
    form_pairing,
    fundamental_group_of,
    langlands_dual,
    named_group,
)
from tdual_lie.tduality import level_twist, verify_langlands_tdual
from tdual_lie.zlinalg import (
    IntMatrix,
    block_diag,
    column_hermite_form,
    hstack,
    smith_normal_form,
    solve_columns,
)

from oracles import (
    bareiss_det,
    clear_caches,
    coords,
    free_lattice,
    invariant_coords,
    invariant_forms,
    kernel_of_matrix,
    mat_vec,
    orbit_by_reflection_matrices,
    pair_basis,
    reflection_matrix,
    root_data,
    standard_lattice,
    subquotient,
    subquotient_coords,
    sym2_matrix,
    sym_invariants,
    tensor_complex,
    to_sympy,
)


def _int_matrix(m: Matrix) -> IntMatrix:
    assert all(x.is_integer for x in m)
    return IntMatrix([[int(x) for x in m.row(i)] for i in range(m.rows)], cols=m.cols)


def level_twist_matrix(rd, level):
    """u(lam) = level * <lam, .> as a weight-coordinate matrix: G A^{-1} B,
    computed over the rationals (sympy), apart from the integer route."""
    g = to_sympy(form_pairing(rd, (level,) * len(rd.components), rd.cartan))
    return _int_matrix(g * to_sympy(rd.cartan).inv() * to_sympy(rd.integral))


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
    x = rd.character_basis
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


def twist_coords(u: IntMatrix) -> tuple[int, ...]:
    """Tensor coordinates of a twist: x_a (x) w_b carries u[b, a]."""
    n = u.rows
    return tuple(u[b, a] for a in range(n) for b in range(n))


def as_twist(c, n: int) -> IntMatrix:
    """The twist matrix with tensor coordinates c (see twist_coords)."""
    return IntMatrix([[c[a * n + b] for a in range(n)] for b in range(n)], cols=n)


def boundary_of(d20: IntMatrix, n: int, wedge_coeffs) -> IntMatrix:
    """Twist matrix of the boundary of an element of wedge^2(chars)."""
    return as_twist(mat_vec(d20, wedge_coeffs), n)


def oracle_is_cycle(rd, d21: IntMatrix, u: IntMatrix) -> bool:
    return coords(sym_invariants(rd), mat_vec(d21, twist_coords(u))) is not None


def oracle_cycles(rd, d21: IntMatrix) -> IntMatrix:
    """Basis of the kernel of d21_raw into sym^2(weights) / invariants."""
    n2 = d21.cols
    ker = kernel_of_matrix(hstack(d21, sym_invariants(rd).scale(-1)))
    return column_hermite_form(IntMatrix([list(ker.row(i)) for i in range(n2)], cols=ker.cols))


def random_shift(rng, n, lo, hi) -> IntMatrix:
    """Strictly upper-triangular matrix, one draw per pair in pair_basis order."""
    return IntMatrix([[rng.randint(lo, hi) if a < b else 0 for b in range(n)] for a in range(n)])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data(), st.integers(0, 4), st.data())
def test_integer_form_route_matches_rationals(rd, level, data):
    """The integer route of the level twist, the character lattice and the
    admissibility form values against G, A^{-1} and B^{-1} over Q."""
    n, n_factors = rd.rank, len(rd.components)
    a, b = to_sympy(rd.cartan), to_sympy(rd.integral)
    g = to_sympy(form_pairing(rd, (level,) * n_factors, rd.cartan))
    assert level_twist(rd, level) == level_twist_matrix(rd, level)
    assert rd.character_basis == _int_matrix(a.T * b.inv().T)
    # <lambda_k, H> = (A^{-1} lambda_k)^T G (A^{-1} H) for every integral basis
    # vector lambda_k and every coroot H, as form_pairing gives it.
    coroots = orbit_by_reflection_matrices(rd.cartan.columns())
    h = Matrix([list(v) for v in coroots]).T
    want = (a.inv() * b).T * g * a.inv() * h
    got = _int_matrix((a.inv() * h).T) @ form_pairing(rd, (level,) * n_factors, rd.integral)
    assert got.transpose() == _int_matrix(want)
    # The whole report, against b(lambda_k, H) = [<lambda_k, H>/2] over Q at
    # the simple coroots, the only ones admissibility_check reads.
    simple = set(rd.cartan.columns())
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
            if coroot not in simple:
                continue
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


def monomial_columns(rd) -> IntMatrix:
    """The `oracles.invariant_forms` blocks expanded to columns over the pair_basis
    monomials: F_ii / 2 on w_i^2 and F_ij on w_i w_j (i < j)."""
    mono = pair_basis(rd.rank, strict=False)
    return IntMatrix.from_columns(
        [[(f[i - lo, j - lo] // (2 if i == j else 1)) if lo <= i and j < hi else 0
          for i, j in mono] for lo, hi, f in invariant_forms(rd)], rows=len(mono))


def test_sym_invariants_ranks():
    assert len(invariant_forms(named_group("A1"))) == 1
    assert len(invariant_forms(named_group("A2"))) == 1
    two_a1 = named_group("SU(2)")
    from tdual_lie.rootdata import build

    prod = build([("A", 1), ("A", 1)])
    assert len(invariant_forms(prod)) == 2
    assert two_a1.rank == 1


def test_sym_invariants_a1_generator():
    # The reflection flips the weight, so the square survives.
    assert monomial_columns(named_group("A1")) == IntMatrix([[1]])


def test_sym_invariants_a2_generator_invariant():
    rd = named_group("A2")
    gen = IntMatrix.from_columns([monomial_columns(rd).column(0)])
    for i in range(2):
        assert sym2_matrix(reflection_matrix(rd.cartan.row(i), i)) @ gen == gen


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_sym_invariants_match_reflection_kernel(rd):
    """The closed form (one basic form per factor), expanded to monomials,
    against the Hermite basis of the lattice route and the brute-force
    kernel, on random root data and on their Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        blocks = monomial_columns(datum)
        assert blocks == sym_invariants(datum), datum.label
        assert blocks == invariants_by_reflection_kernel(datum), datum.label


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_classification_rules_match_their_old_routes(rd):
    """`center`, `is_simply_laced` and `oracles.invariant_forms` (the closed
    form `flagcoh.invariant_coords` compares with), read off the
    classification, against the routes they replaced, on random root data
    and their Langlands duals: the invariant factors >= 2 of the Smith form
    of A, every eps_i = 1, and 2 G_k / g_k, g_k the gcd of the coefficients
    of the level-1 polynomial on factor k (G = diag(eps) A)."""
    for datum in (rd, langlands_dual(rd)):
        assert center(datum) == tuple(x for x in smith_normal_form(datum.cartan)[1] if x >= 2)
        assert datum.is_simply_laced() == all(e == 1 for e in datum.epsilons), datum.label
        g = form_pairing(datum, (1,) * len(datum.components), datum.cartan)
        for lo, hi, f in invariant_forms(datum):
            span = range(lo, hi)
            gk = gcd(*(g[i, j] if i == j else 2 * g[i, j] for i in span for j in span))
            assert f.tolist() == [[2 * g[i, j] // gk for j in span] for i in span], datum.label


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data(), st.integers(0, 4), st.data())
def test_invariant_coords_match_lattice_route(rd, level, data):
    """`flagcoh.invariant_coords`, read off the factor blocks of S = M + M^T,
    against the coordinates in the monomial Hermite basis (or None), on
    level twists, level twists moved by boundaries and random matrices, on
    random root data and on their Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        n = datum.rank
        ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        u = level_twist(datum, level)
        twists = [u]
        for _ in range(3):
            s = IntMatrix(data.draw(st.lists(ints, min_size=n, max_size=n)))
            twists += [u + boundary(datum, s), IntMatrix(data.draw(st.lists(ints, min_size=n,
                                                                            max_size=n)))]
        for v in twists:
            assert flagcoh.invariant_coords(datum, v)[1] == invariant_coords(datum, v), (datum.label, v)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(root_data(), st.data())
def test_form_pairing_at_per_factor_levels(rd, data):
    """`form_pairing` at per-factor levels k in [-3, 3]^f, mixed signs and
    zeros included, on random root data and their Langlands duals: on the
    integral basis it is a cycle whose `flagcoh.invariant_coords` are c = 2k, as
    the monomial route (`oracles.invariant_coords`) reads them, and on the
    simple coroots it is the block sum of the k_f F_f of
    `oracles.invariant_forms`.  Each drawn k is also tried with the sign of
    every other entry flipped, so most multi-factor draws mix signs."""
    for datum in (rd, langlands_dual(rd)):
        f = len(datum.components)
        drawn = data.draw(st.lists(st.integers(-3, 3), min_size=f, max_size=f))
        for k in (tuple(drawn), tuple(x if i % 2 else -x for i, x in enumerate(drawn))):
            u = form_pairing(datum, k, datum.integral)
            assert is_cycle(datum, u), (datum.label, k)
            c = flagcoh.invariant_coords(datum, u)[1]
            assert c == tuple(2 * x for x in k) == invariant_coords(datum, u), (datum.label, k)
            blocks = block_diag([fk.scale(x) for x, (_, _, fk) in zip(k, invariant_forms(datum))])
            assert form_pairing(datum, k, datum.cartan) == blocks, (datum.label, k)


def test_twist_cache_stays_at_its_bound():
    """Distinct twists through `is_cycle` leave the per-twist cache at its
    bound, not one n x n entry per twist ever seen."""
    rd = named_group("SU(9)")
    clear_caches()
    for k in range(200):
        is_cycle(rd, level_twist(rd, k))
    info = flagcoh.invariant_coords.cache_info()
    assert info.misses == 200
    assert info.currsize == info.maxsize == 1


def _package_caches():
    """(qualified name, function) of every `lru_cache` in the package."""
    for info in pkgutil.iter_modules(tdual_lie.__path__):
        module = importlib.import_module(f"tdual_lie.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                yield f"{info.name}.{name}", obj


def test_the_package_has_one_lru_cache():
    """The one `lru_cache` in the package is `invariant_coords`: no table is
    kept for the life of the process, and what a datum determines is kept on
    the datum."""
    assert [name for name, _ in _package_caches()] == ["flagcoh.invariant_coords"]


def test_every_cache_with_arguments_is_bounded():
    """No cache keyed on its arguments grows with the number of distinct
    arguments a run passes: the one such cache is `invariant_coords`, keyed
    per twist, and what a datum determines is kept on the datum."""
    caches = {name: fn for name, fn in _package_caches() if inspect.signature(fn).parameters}
    assert list(caches) == ["flagcoh.invariant_coords"]
    assert [name for name, fn in caches.items() if fn.cache_info().maxsize is None] == []


def test_per_datum_caches_stay_at_their_bound():
    """Distinct rank-32 data through `cohomology`, `class_in_h3` of a level
    twist, `verify_langlands_tdual` and `admissibility_check` leave the one
    cache keyed on its arguments, `invariant_coords`, at its one entry, not
    one per datum ever seen, and it holds no datum but the last: what each
    datum computed goes with it."""
    clear_caches()
    zero, seen = [[(0, 1)] * 32] * 32, []
    for i in range(3):
        rd = build([("A", 16), ("D", 16)], "adjoint", label=f"g{i}")
        cohomology(rd)
        class_in_h3(rd, level_twist(rd, 1))
        verify_langlands_tdual(rd)
        admissibility_check(rd, 1, commutator_from_matrix(rd, zero))
        seen.append(weakref.ref(rd))
    info = flagcoh.invariant_coords.cache_info()
    assert info.currsize == info.maxsize == 1, info
    del rd
    assert [ref() is not None for ref in seen] == [False, False, True]


@pytest.mark.parametrize("factors, fundamental_group", [
    ([("A", 3)], "simply_connected"),
    ([("A", 3)], "adjoint"),
    ([("D", 4)], "adjoint"),
    ([("A", 3), ("A", 1)], {"generators": [[2, 1]]}),
], ids=["SU(4)", "PSU(4)", "adjoint D4", "A3xA1/<(2,1)>"])
def test_each_datum_takes_one_smith_form_and_one_gram_solve(monkeypatch, factors,
                                                            fundamental_group):
    """Whichever of `fundamental_group_of`, `h3_group`, `class_in_h3`,
    `commutator_from_level` and `admissibility_check` reads them first, a
    datum takes one Smith form of X and, besides the solve for X, one Gram
    solve, and keeps them.  An equal datum built apart takes its own and
    gets equal ones."""
    smiths, solves = [], []
    smith, solve = rootdata.smith_normal_form, rootdata.solve_columns
    monkeypatch.setattr(rootdata, "smith_normal_form", lambda m: smiths.append(m) or smith(m))
    monkeypatch.setattr(rootdata, "solve_columns",
                        lambda basis, targets: solves.append(basis) or solve(basis, targets))

    def level(rd):
        if rd.is_simply_connected():
            commutator_from_level(rd, 1)

    readers = [fundamental_group_of, h3_group, lambda rd: class_in_h3(rd, level_twist(rd, 1)),
               level, lambda rd: admissibility_check(rd, 1, commutator_from_matrix(
                   rd, [[(0, 1)] * rd.rank] * rd.rank))]
    data = []
    for order in (readers, readers[::-1]):
        rd = build(factors, fundamental_group)
        for read in order + order:
            read(rd)
        data.append(rd)
    first, second = data
    assert first == second
    assert smiths == [first.character_basis, second.character_basis]
    assert solves == [first.integral, first.character_basis] * 2
    assert first.character_smith is not second.character_smith
    assert first.character_smith == second.character_smith
    assert first.lattice_gram is not second.lattice_gram
    assert first.lattice_gram == second.lattice_gram


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_vanishing_pieces_match_kernels(rd):
    """The full-rank certificate against the kernels it replaces: the wedge^3
    differential, d20 and the character basis have zero kernel, on random
    root data and on their Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        x = datum.character_basis
        assert column_hermite_form(x).cols == datum.rank, datum.label
        if datum.rank >= 3:
            assert kernel_of_matrix(wedge3_differential(datum)).cols == 0, datum.label
        assert kernel_of_matrix(tensor_complex(datum)[0]).cols == 0, datum.label
        assert kernel_of_matrix(x).cols == 0, datum.label
        rep = report_twist(datum, level_twist(datum, 1))
        assert rep["dualizable"] is True, datum.label
        assert rep["dualizability_notes"][1].startswith("wedge^3 differential has kernel rank 0")


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
        u = level_twist(datum, level)
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
    basis, their free parts c read in the basis of `oracles.free_lattice`,
    generate `h3_group`.  So `class_in_h3` induces a surjection between
    isomorphic finitely generated abelian groups, which is an
    isomorphism."""
    n = rd.rank
    d20, d21 = tensor_complex(rd)
    (free_rank, torsion), free = h3_group(rd), free_lattice(rd)
    cycles = oracle_cycles(rd, d21)
    oracle = subquotient(column_hermite_form(d20), cycles)
    assert (free_rank, torsion) == (oracle.free_rank, oracle.torsion), rd.label
    zero = ((0,) * free_rank, (0,) * len(torsion))
    for c in d20.columns():
        assert class_in_h3(rd, as_twist(c, n)) == zero, rd.label
    classes = [class_in_h3(rd, as_twist(c, n)) for c in cycles.columns()]
    classes = [(coords(free, c), t) for c, t in classes]
    assert generates(classes, free_rank, torsion), rd.label


@pytest.mark.parametrize("comps, fundamental_group", [
    ([("A", 1), ("A", 3)], "adjoint"),  # pi_1 = Z/2 + Z/4
    ([("A", 2), ("A", 5)], "adjoint"),  # Z/3 + Z/6
    ([("A", 1)] * 3, "adjoint"),
    ([("D", 4)], "adjoint"),
    ([("D", 6)], "adjoint"),
    ([("A", 1), ("A", 1)], {"generators": [[1, 1]]}),
    ([("A", 3), ("A", 1)], {"generators": [[2, 1]]}),
    ([("B", 3), ("C", 3)], "adjoint"),
    ([("A", 2), ("A", 2)], "adjoint"),  # Z/3 + Z/3
])
def test_h3_of_quotients_matches_tensor_oracle(comps, fundamental_group):
    """Products whose fundamental groups have several invariant factors,
    some of them distinct or above 2, which random draws reach only now and
    then: against the tensor oracle and the (y, c) subquotient."""
    rd = build(comps, fundamental_group)
    rng = random.Random(len(comps) * 100 + rd.rank)
    check_h3_against_tensor_oracle(rd)
    check_h3_against_subquotient(rd, lambda k: [rng.randint(-3, 3) for _ in range(k)])


# -- H^3 as cycles modulo boundaries in (y, c), the reference of the closed form


def torsion_pairs(d):
    """The pairs i < j, in `pair_basis` order, whose Smith invariants d_i,
    d_j share a factor: the pairs that carry a torsion coordinate of H^3."""
    return tuple((i, j) for i, j in pair_basis(len(d), strict=True) if gcd(d[i], d[j]) > 1)


def h3_by_subquotient(rd):
    """(H^3, its coordinates): H^3 as a subquotient in the coordinates
    (y, c), y_ij = N_ij for the pairs i < j with gcd(d_i, d_j) > 1, N = U X
    u^T U^T, U X V = diag(d), and c the invariant coordinates of a twist u.
    Cycles are the (0, c) with T(c)_ii = 0 mod d_i, T(c) = U S_c U^T from
    the dense sum over all monomials, and the d_j e_ij; boundaries are the
    d_i d_j e_ij.  A second Smith form, on |P| + f coordinates, splits the
    quotient; with c last, its free coordinates are c's in the Hermite basis
    of the lattice of those c."""
    n = rd.rank
    U, d = smith_normal_form(rd.character_basis)
    pairs = torsion_pairs(d)
    inv, mono = sym_invariants(rd), pair_basis(n, strict=False)
    f, p, torsion = inv.cols, len(pairs), [i for i in range(n) if d[i] > 1]
    rows = [[sum(v * U[i, a] * U[i, b] for v, (a, b) in zip(poly, mono))
             for poly in inv.columns()] + [d[i] if i == t else 0 for t in torsion]
            for i in torsion]
    ker = kernel_of_matrix(IntMatrix(rows, cols=f + len(torsion)))
    eye = IntMatrix.identity(p + f).tolist()[:p]
    cycles = [(0,) * p + c[:f] for c in ker.columns()]
    cycles += [[d[j] * x for x in e] for e, (_, j) in zip(eye, pairs)]
    boundaries = [[d[i] * d[j] * x for x in e] for e, (i, j) in zip(eye, pairs)]
    g = subquotient(IntMatrix.from_columns(boundaries, rows=p + f),
                    column_hermite_form(IntMatrix.from_columns(cycles)))

    def class_of(u):
        nm = U @ rd.character_basis @ u.transpose() @ U.transpose()
        return subquotient_coords(g, tuple(nm[i, j] for i, j in pairs) + invariant_coords(rd, u))

    return g, class_of


def check_h3_against_subquotient(rd, draw_ints):
    """`h3_group` and `class_in_h3` against the (y, c) subquotient: the same
    invariants, and the same coordinates on random cycles, each a
    combination of the tensor-oracle cycle basis plus a boundary, the free
    part c read in the basis of `oracles.free_lattice`.  `draw_ints(k)`
    gives k integers in [-3, 3]."""
    n = rd.rank
    g, class_of = h3_by_subquotient(rd)
    free = free_lattice(rd)
    assert tuple(h3_group(rd)) == (g.free_rank, g.torsion), rd.label
    basis = oracle_cycles(rd, tensor_complex(rd)[1])
    for _ in range(3):
        s = draw_ints(n * n)
        u = (as_twist(mat_vec(basis, draw_ints(basis.cols)), n)
             + boundary(rd, IntMatrix([s[k:k + n] for k in range(0, n * n, n)])))
        c, torsion = class_in_h3(rd, u)
        assert (coords(free, c), torsion) == class_of(u), (rd.label, u)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data(), st.data())
def test_h3_closed_form_matches_subquotient_route(rd, data):
    """The closed form against the (y, c) subquotient on random root data,
    their Langlands duals and the adjoint quotient of each datum's square,
    which has torsion pairs whenever the center is nontrivial (see
    check_h3_against_subquotient and test_class_in_h3_torsion_reads_n_in_full)."""
    def draw_ints(k):
        return data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))

    for datum in (rd, langlands_dual(rd), build(rd.components * 2, "adjoint")):
        check_h3_against_subquotient(datum, draw_ints)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data(), st.integers(0, 3), st.data())
def test_class_in_h3_torsion_reads_n_in_full(rd, level, data):
    """The torsion coordinates of `class_in_h3`, formed on P's rows of N
    alone, against N = U X u^T U^T formed in full, for u a level twist
    moved by a random boundary: on random root data, quotients included,
    their Langlands duals, and the adjoint quotient of each datum's square,
    whose pi_1, the center squared, has two invariant factors for each one
    of the center, so that P has rows whenever the center is nontrivial."""
    for datum in (rd, langlands_dual(rd), build(rd.components * 2, "adjoint")):
        n = datum.rank
        s = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=n, max_size=n))
        u = level_twist(datum, level) + boundary(datum, IntMatrix(s))
        U, d = datum.character_smith
        pairs = torsion_pairs(d)
        nm = U @ datum.character_basis @ u.transpose() @ U.transpose()
        expected = tuple(nm[i, j] // d[j] % d[i] for i, j in pairs)
        assert class_in_h3(datum, u)[1] == expected, (datum.label, u)


def test_class_in_h3_forms_n_on_the_torsion_rows_only(monkeypatch):
    """Past the Smith form, `class_in_h3` multiplies one n x n pair, M =
    X u^T, and then, with T the k + 1 torsion rows of U (d_i > 1) and k the
    rows of N = U M U^T that the pairs read, T[:-1] M (k x n by n x n) and
    T (T[:-1] M)^T (k + 1 x n by n x k): none on simply connected SU(4),
    k = 3 on adjoint A1^4 (d = 2, 2, 2, 2) and k = 1 on adjoint D4 (d = 1,
    1, 2, 2), whose two torsion rows are the last of four.  Forming N in
    full, or multiplying by all of U, would take more n x n products."""
    shapes, matmul = [], IntMatrix.__matmul__

    def counted(a, b):
        shapes.append((a.rows, a.cols, b.rows, b.cols))
        return matmul(a, b)

    for rd, rows in ((named_group("SU(4)"), 0), (build([("A", 1)] * 4, "adjoint"), 3),
                     (build([("D", 4)], "adjoint"), 1)):
        u, n = level_twist(rd, 1), rd.rank
        clear_caches()
        rd.character_smith
        shapes.clear()
        monkeypatch.setattr(IntMatrix, "__matmul__", counted)
        _, torsion = class_in_h3(rd, u)
        monkeypatch.undo()
        products = [(rows, n, n, n), (rows + 1, n, n, rows)] if rows else []
        assert shapes == [(n, n, n, n)] + products, rd.label
        pairs = torsion_pairs(rd.character_smith[1])
        assert len(torsion) == len(pairs) == rows * (rows + 1) // 2


def test_one_smith_form_per_group(monkeypatch):
    """`cohomology` and `class_in_h3` on adjoint A1^4, whose six pairs of
    Smith invariants all carry a Z/2, share one Smith form: the one of the
    character basis, with none taken inside `zlinalg` on their behalf.
    `group` takes one, of the character basis X and not of the Cartan matrix
    A (on adjoint B3, where they differ), and `cohomology` and `class_in_h3`
    then take none."""
    calls = []

    def counted(m):
        calls.append(m)
        return smith_normal_form(m)

    def fresh():
        calls.clear()
        clear_caches()

    monkeypatch.setattr(rootdata, "smith_normal_form", counted)
    monkeypatch.setattr(zlinalg, "smith_normal_form", counted)
    rd = build([("A", 1)] * 4, "adjoint")
    u = level_twist(rd, 1)
    fresh()
    cohomology(rd)
    class_in_h3(rd, u)
    assert calls == [rd.character_basis]

    rd = build([("B", 3)], "adjoint")
    u = level_twist(rd, 2)
    assert rd.cartan != rd.character_basis
    fresh()
    report_group(rd)
    assert calls == [rd.character_basis]
    cohomology(rd)
    class_in_h3(rd, u)
    assert len(calls) == 1


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
        assert prod(center(datum)) == det, datum.label
    assert prod(fundamental_group_of(rd)) * prod(fundamental_group_of(dual)) == det


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_h3_rank_counts_factors(rd):
    """H^3 of a simply connected group is free of rank the number of simple
    factors, on random root data and on their Langlands duals."""
    for datum in (rd, langlands_dual(rd)):
        if datum.is_simply_connected():
            free_rank, torsion = h3_group(datum)
            assert free_rank == len(datum.components) and torsion == (), datum.label


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(root_data())
def test_h3_group_matches_its_smith_frame(rd):
    """`h3_group`, read off pi_1, against the route it replaced, on random
    root data and their Langlands duals: P, the pairs i < j with gcd(d_i,
    d_j) > 1 on the Smith diagonal d, are the pairs i < j with d_i > 1;
    the free rank of `h3_group` is the column count of K
    (`oracles.free_lattice`), the number of simple factors, its
    torsion is d_i over P, and K, the kernel cut to the invariant
    coordinates, is its own Hermite basis."""
    for datum in (rd, langlands_dual(rd)):
        (_, d), free = datum.character_smith, free_lattice(datum)
        pairs = torsion_pairs(d)
        assert pairs == tuple((i, j) for i in range(datum.rank) if d[i] > 1
                              for j in range(i + 1, datum.rank)), datum.label
        assert h3_group(datum) == (free.cols, tuple(d[i] for i, _ in pairs)), datum.label
        assert free.cols == len(datum.components), datum.label
        assert column_hermite_form(free) == free, datum.label


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data(), st.integers(0, 3), st.data())
def test_printed_free_part_is_the_invariant_coordinates(rd, level, data):
    """The printed `h3_class` of `level:K` moved by a random boundary, on
    random root data and their Langlands duals: its free part is
    `flagcoh.invariant_coords`' c, which is (2K, ..., 2K) and lies in
    `oracles.free_lattice`; and a second cycle prints as its free part the
    c of `flagcoh.invariant_coords` and of the monomial route, and prints the same
    class as the first exactly when the two differ by a boundary of the
    tensor-complex oracle.  The second cycle adds to the first a
    combination of the oracle's cycle basis, drawn once from the kernel of
    the class map on that basis and once freely."""
    for datum in (rd, langlands_dual(rd)):
        n, f = datum.rank, len(datum.components)

        def ints(k):
            return data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))

        def printed(u):
            h3_class = report_twist(datum, u)["h3_class"]
            return tuple(h3_class["free"]), tuple(h3_class["torsion"])

        s = IntMatrix([ints(n) for _ in range(n)])
        u = resolve_twist(datum, f"level:{level}") + boundary(datum, s)
        free, torsion = printed(u)
        assert free == flagcoh.invariant_coords(datum, u)[1] == (2 * level,) * f, datum.label
        assert coords(free_lattice(datum), free) is not None, datum.label

        d20, d21 = tensor_complex(datum)
        boundaries, cycles = column_hermite_form(d20), oracle_cycles(datum, d21)
        classes = [class_in_h3(datum, as_twist(c, n)) for c in cycles.columns()]
        d = datum.character_smith[1]
        mods = [d[i] for i, _ in torsion_pairs(d)]
        rows = ([[c[k] for c, _ in classes] + [0] * len(mods) for k in range(f)]
                + [[t[p] for _, t in classes] + [m if q == p else 0 for q, m in enumerate(mods)]
                   for p in range(len(mods))])
        ker = kernel_of_matrix(IntMatrix(rows, cols=cycles.cols + len(mods)))
        zero_class = [x[:cycles.cols] for x in ker.columns()]
        moves = [mat_vec(IntMatrix.from_columns(zero_class, rows=cycles.cols), ints(len(zero_class))),
                 ints(cycles.cols)]
        for x in moves:
            v = u + as_twist(mat_vec(cycles, x), n)
            assert printed(v)[0] == flagcoh.invariant_coords(datum, v)[1] == invariant_coords(datum, v)
            assert (printed(v) == (free, torsion)) == (
                coords(boundaries, twist_coords(v - u)) is not None), (datum.label, x)


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
        pi1 = fundamental_group_of(datum)
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
    assert named_group("SO(3)").character_basis == IntMatrix([[2]])

    a2 = named_group("SU(3)")
    d20, d21 = tensor_complex(a2)
    assert d20.cols == 1 and d21.cols == 4
    # quotient sym^2 / invariants has rank 3 - 1 = 2
    assert d21.rows - len(invariant_forms(a2)) == 2


def test_complex_is_complex_everywhere():
    names = ["SU(2)", "SO(3)", "PSU(3)", "SU(4)", "SU(5)", "Spin(5)", "Sp(3)",
             "Spin(8)", "G2", "F4"]
    for name in names:
        d20, d21 = tensor_complex(named_group(name))
        assert d21 @ d20 == IntMatrix.zero(d21.rows, d20.cols), name


def test_h3_examples():
    for name in ["SU(2)", "SO(3)", "SU(3)"]:
        free_rank, torsion = h3_group(named_group(name))
        assert free_rank == 1 and torsion == (), name


def test_h3_simply_connected_rank_counts_factors():
    from tdual_lie.rootdata import build

    for comps in [[("A", 1)], [("A", 2)], [("A", 3)], [("A", 4)], [("B", 2)],
                  [("C", 3)], [("D", 4)], [("G", 2)]]:
        free_rank, torsion = h3_group(build(comps))
        assert free_rank == 1 and torsion == (), comps
    two = build([("A", 1), ("A", 2)])
    free_rank, torsion = h3_group(two)
    assert free_rank == 2 and torsion == ()


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
    """sym^2(weights) / invariants has no torsion: the invariants of
    `oracles.invariant_forms` are saturated, which the closed form of H^4 relies on."""
    for name in ["SU(2)", "SO(3)", "SU(3)", "PSU(3)", "SU(4)", "B2", "C3", "G2"]:
        assert cohomology_by_subquotients(named_group(name))["H4_B"][1] == [], name


def cohomology_by_subquotients(rd) -> dict:
    """H^1 and H^2 of the group and H^2 and H^4 of the base as the lattice
    subquotients that `cohomology` reads in closed form: 0/0,
    weights/characters, weights/0 and sym^2(weights)/invariants, each by
    its own Smith form.  Values are (free_rank, invariant_factors)."""
    n, inv = rd.rank, sym_invariants(rd)
    chars = column_hermite_form(rd.character_basis)
    zero = IntMatrix.zero(n, 0)
    groups = {
        "H1_K": subquotient(IntMatrix.zero(0, 0), standard_lattice(0)),
        "H2_K": subquotient(chars, standard_lattice(n)),
        "H2_B": subquotient(zero, standard_lattice(n)),
        "H4_B": subquotient(inv, standard_lattice(inv.rows)),
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
    ([("A", 1), ("A", 1)], {"generators": [[1, 1]]}, None, ((2, 2), ())),  # SO(4)
    ([("A", 3), ("A", 1)], {"generators": [[2, 1]]}, None, ((2, 2), ())),
    ([("B", 3), ("C", 3)], "adjoint", None, ((2, 2), (0,))),
    ([("D", 4)], "adjoint", None, ((2,), (1,))),
    # A torsion coordinate mod 3 reads y = N_23 = -6, not N_32 = 6.
    ([("A", 2), ("A", 2)], "adjoint", [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
     ((0, 0), (1,))),
])
def test_class_of_quotients(comps, fundamental_group, twist, expected):
    """Classes of non-simply-connected products, at `level:1` when no twist
    is given, in the coordinates of `class_in_h3`: c = (2, ..., 2) at
    `level:1`."""
    rd = build(comps, fundamental_group)
    u = level_twist(rd, 1) if twist is None else IntMatrix(twist)
    assert class_in_h3(rd, u) == expected


def test_class_in_h3_requires_cycle():
    rd = named_group("SU(3)")
    with pytest.raises(TdualError, match=r"^twist is not a cycle for SU\(3\)$"):
        class_in_h3(rd, IntMatrix([[1, 0], [0, 0]]))


def test_quadratic_form_route_agrees():
    """Independent cycle test: u is a cycle iff the quadratic polynomial
    X -> <u(iota X), X> on the coroot lattice lies in the invariant lattice."""
    rng = random.Random(12)
    for name in ["SU(2)", "SU(3)", "SO(3)", "PSU(3)", "Spin(5)"]:
        rd = named_group(name)
        inv = sym_invariants(rd)
        n = rd.rank
        for _ in range(25):
            u = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            # v = u o iota on the coroot basis, in weight coordinates.
            coroots_in_lam = solve_columns(rd.integral, rd.cartan)
            v = u @ coroots_in_lam
            coeffs = [v[i, j] + v[j, i] if i != j else v[i, i]
                      for i, j in pair_basis(n, strict=False)]
            target = IntMatrix.from_columns([tuple(coeffs)])
            if inv.cols:
                poly_route = solve_columns(inv, target) is not None
            else:
                poly_route = all(x == 0 for x in target.column(0))
            assert poly_route == is_cycle(rd, u), (name, u)


def test_dualizability_reports():
    """Every twist report, cycle or not, says dualizable with the same notes."""
    rng = random.Random(5)
    for name in ["SU(3)", "SO(3)"]:
        rd = named_group(name)
        base = level_twist_matrix(rd, 1)
        for trial in range(10):
            k = rng.randint(-3, 3)
            u = base.scale(k) + boundary(rd, random_shift(rng, rd.rank, -2, 2))
            assert is_cycle(rd, u)
            rep = report_twist(rd, u)
            assert rep["dualizable"] is True
            assert rep["dualizability_notes"] == list(DUALIZABILITY_NOTES)
    su2 = named_group("SU(2)")
    for k in (-2, 0, 1, 5):
        assert is_cycle(su2, IntMatrix([[k]]))
    su4 = named_group("SU(4)")
    rep = report_twist(su4, IntMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert rep["twist_is_cycle"] is False and rep["dualizable"] is True
    assert rep["dualizability_notes"] == list(DUALIZABILITY_NOTES)
    assert "wedge^3 differential has kernel rank 0" in rep["dualizability_notes"][1]


def test_cohomology_report_shape():
    d = cohomology(named_group("SO(3)"))
    assert d["H2_K"]["invariant_factors"] == [2]
    assert d["H3_K"] == {"free_rank": 1, "invariant_factors": [], "pretty": "Z"}
    assert d["H2_B"]["free_rank"] == 1
    assert not d["H4_B_torsion_discrepancy"]
