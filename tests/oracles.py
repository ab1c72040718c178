"""Reference routes and shared strategies for the test modules.

Each oracle recomputes by a second, independent route something `src/`
reads in closed form, and its docstring opens by naming that route; the
few helpers (`to_sympy`, `mat_vec`, `coords`, `diagonal`, `standard_lattice`,
`clear_caches`, `find_phi`, `_block`) say what they build or do.  Lattices
are their basis matrices (columns independent over Q), as in the package.
The module is not collected: it defines no tests, and no test module
imports another.
"""

import importlib
import pkgutil
from fractions import Fraction
from itertools import product
from math import gcd, prod

from hypothesis import strategies as st
from sympy import Matrix

import tdual_lie
from tdual_lie.errors import Unavailable
from tdual_lie.rootdata import (
    _DUAL_SERIES,
    build,
    center_generators,
    form_pairing,
    require_phi,
)
from tdual_lie.tduality import shift_matrix
from tdual_lie.zlinalg import (
    IntMatrix,
    _echelon,
    column_hermite_form,
    smith_normal_form,
    solve_columns,
)


def to_sympy(m: IntMatrix) -> Matrix:
    """m as a sympy Matrix, for the rational routes that check the integer ones."""
    return Matrix(m.rows, m.cols, [x for row in m for x in row])


def diagonal(d, rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix with d on its diagonal and zeros elsewhere: the
    diag(d) of a Smith form (U, d) of a rows x cols matrix."""
    return IntMatrix([[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)],
                     cols=cols)


def mat_vec(m: IntMatrix, vec) -> tuple[int, ...]:
    """m times the vector vec: `@` on vec as a one-column matrix."""
    return (m @ IntMatrix.from_columns([tuple(vec)])).column(0)


def coords(basis: IntMatrix, vec) -> tuple[int, ...] | None:
    """Basis coordinates of an ambient vector, or None if it lies outside the
    lattice: one column of `zlinalg.solve_columns`."""
    sol = solve_columns(basis, IntMatrix.from_columns([tuple(vec)], rows=basis.rows))
    return None if sol is None else sol.column(0)


def kernel_of_matrix(m: IntMatrix) -> IntMatrix:
    """Checks the ranks and lattices that `src/` reads in closed form (the
    vanishing kernels behind `flagcoh.DUALIZABILITY_NOTES`, the invariants,
    the free part of H^3): the saturated kernel {x : m x = 0}, in canonical
    form.  The columns of m are put in echelon form (`zlinalg._echelon`)
    with the column transform riding along; the transform columns whose
    image ends up zero span the kernel, saturated because the transform is
    unimodular."""
    n, k = m.rows, m.cols
    rows = [list(col) + [int(i == j) for i in range(k)] for j, col in enumerate(m.columns())]
    pivots = _echelon(rows, n)
    return column_hermite_form(IntMatrix.from_columns([row[n:] for row in rows[len(pivots):]], k))


def clear_caches() -> None:
    """Empty every `lru_cache` of every package module, so that a test that
    counts or times work pays for all of it, whatever ran before."""
    for info in pkgutil.iter_modules(tdual_lie.__path__):
        module = importlib.import_module(f"tdual_lie.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


# -- determinants and orders ----------------------------------------------------


def bareiss_det(m: IntMatrix) -> int:
    """Checks the orders `src/` reads off Smith diagonals or the
    classification (|Z| is `prod(rootdata.center(rd))`, merged from the
    orders of `center_generators`): the determinant by fraction-free
    (Bareiss) elimination."""
    assert m.rows == m.cols, "determinant of a non-square matrix"
    n = m.rows
    if n == 0:
        return 1
    a = m.tolist()
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def count_cosets_brute_force(rel: IntMatrix) -> int:
    """Checks the order of a cokernel read off `zlinalg.smith_normal_form`:
    the number of lattice points in the half-open fundamental cell of rel.

    Independent of the normal-form machinery: enumerate integer points in a
    bounding box and keep those whose exact rational preimage lies in
    [0, 1)^n.
    """
    n = rel.rows
    cols = rel.columns()
    corners = [tuple(sum(e * col[i] for e, col in zip(eps, cols)) for i in range(n))
               for eps in product((0, 1), repeat=n)]
    lo = [min(c[i] for c in corners) for i in range(n)]
    hi = [max(c[i] for c in corners) for i in range(n)]
    det = bareiss_det(rel)
    assert det != 0
    # Solve rel * x = v exactly via cofactor inversion.
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rel[r, c] for c in range(n) if c != i] for r in range(n) if r != j]
            sign = -1 if (i + j) % 2 else 1
            minor_det = bareiss_det(IntMatrix(minor)) if n > 1 else 1
            inv[i][j] = Fraction(sign * minor_det, det)
    count = 0
    for v in product(*[range(lo[i], hi[i] + 1) for i in range(n)]):
        x = [sum(inv[i][j] * v[j] for j in range(n)) for i in range(n)]
        if all(0 <= xi < 1 for xi in x):
            count += 1
    return count


# -- the subquotient oracle -----------------------------------------------------
#
# A finitely generated abelian group as outer/inner lattices, split by a
# Smith form of the relations in outer-basis coordinates.  The package reads
# its finite groups off Smith diagonals of square matrices instead; this
# general presentation is the second route the tests compare them with.


class NotSublattice(Exception):
    """The claimed inner lattice is not contained in the outer one."""


def standard_lattice(n: int) -> IntMatrix:
    """The weights or coweights of the package's coordinates: Z^n with the
    unit vectors as basis."""
    return IntMatrix.identity(n)


def reduce_mod(basis: IntMatrix, vec) -> tuple[int, ...]:
    """Checks the generators of `rootdata.center_generators` (through
    `FgAbGroup.torsion_generators`): the canonical representative
    of vec modulo the lattice, reduced against the Hermite basis from the
    top pivot down, with coordinates in [0, pivot) at every pivot position."""
    out = list(vec)
    for col in column_hermite_form(basis).columns():
        c = next(i for i, x in enumerate(col) if x)
        q = out[c] // col[c]
        out = [x - q * y for x, y in zip(out, col)]
    return tuple(out)


class FgAbGroup:
    """outer/inner as invariant factors d1 | d2 | ... (each >= 2) and a free
    rank, keeping the presentation: both bases, the Smith row transform U
    of the relations in outer-basis coordinates, and its diagonal."""

    def __init__(self, free_rank, torsion, _outer, _inner, _row_transform, _diag):
        self.free_rank, self.torsion, self._outer = free_rank, torsion, _outer
        self._inner, self._row_transform, self._diag = _inner, _row_transform, _diag

    def order(self) -> int:
        """Group order (0 for infinite)."""
        return 0 if self.free_rank else prod(self.torsion)

    def torsion_generators(self) -> list[tuple[int, ...]]:
        """Ambient lifts of the torsion generators, aligned with `torsion`:
        the outer-basis vector x with U x = e_j (column j of U^-1), reduced
        to its fixed representative modulo the inner lattice."""
        n = len(self._diag)
        units = IntMatrix.from_columns(
            [[int(i == j) for i in range(n)] for j in range(n) if self._diag[j] >= 2], rows=n)
        xs = solve_columns(self._row_transform, units)
        return [reduce_mod(self._inner, x) for x in (self._outer @ xs).columns()]


def subquotient(inner: IntMatrix, outer: IntMatrix) -> FgAbGroup:
    """Checks `rootdata.center`, `rootdata.fundamental_group_of`,
    `flagcoh.h3_group` and `flagcoh.cohomology`: the invariant-factor
    decomposition of outer/inner, for basis matrices of two lattices;
    raises NotSublattice unless inner is contained in outer."""
    if inner.rows != outer.rows:
        raise NotSublattice("ambient dimensions differ")
    rel = solve_columns(outer, inner)
    if rel is None:
        raise NotSublattice("inner lattice is not contained in the outer one")
    u, d = smith_normal_form(rel)
    diag = d + (0,) * (outer.cols - len(d))
    return FgAbGroup(free_rank=diag.count(0), torsion=tuple(x for x in diag if x >= 2),
                     _outer=outer, _inner=inner, _row_transform=u, _diag=diag)


def subquotient_coords(g: FgAbGroup, vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Checks `flagcoh.class_in_h3`: the (free, torsion) coordinates of the
    class of an ambient vector in the subquotient g, its outer-basis
    coordinates through g's Smith row transform, free where the Smith
    diagonal is 0 and reduced mod each diagonal entry >= 2 elsewhere."""
    cc = mat_vec(g._row_transform, coords(g._outer, vec))
    rank = sum(1 for d in g._diag if d)
    return tuple(cc[rank:]), tuple(x % d for x, d in zip(cc, g._diag) if d >= 2)


# -- degree-2 lattices in monomial coordinates ------------------------------------


def pair_basis(n: int, strict: bool) -> list[tuple[int, int]]:
    """Fixes the coordinates of the tensor oracle of `flagcoh`: the index
    pairs (i, j) with i<j (strict, wedge^2) or i<=j (sym^2), in
    lexicographic order."""
    if strict:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(i, n)]


def square_power(f: IntMatrix, strict: bool) -> IntMatrix:
    """Checks `invariant_forms` (through the reflection kernel):
    wedge^2 f (strict) or sym^2 f on the pair_basis monomials e_a e_b.

    The coefficient of e_a e_b (a < b) in f(e_i) f(e_j) is
    f[a,i]f[b,j] -/+ f[b,i]f[a,j]; of e_a^2 (sym^2 only) it is f[a,i]f[a,j].
    """
    sign = -1 if strict else 1
    dom, cod = pair_basis(f.cols, strict), pair_basis(f.rows, strict)
    return IntMatrix([[f[a, i] * f[a, j] if a == b else f[a, i] * f[b, j] + sign * f[b, i] * f[a, j]
                       for i, j in dom] for a, b in cod], cols=len(dom))


def sym2_matrix(f: IntMatrix) -> IntMatrix:
    """Checks `invariant_forms` (through the reflection kernel):
    sym^2 f on the pair_basis monomials."""
    return square_power(f, strict=False)


def sym_invariants(rd) -> IntMatrix:
    """Checks `invariant_forms`: the Weyl-invariant sublattice of
    sym^2 of the weights as a Hermite basis over all n(n+1)/2 monomials.

    The level-1 form with Gram matrix G is the polynomial sum_i G_ii w_i^2 +
    sum_{i<j} 2 G_ij w_i w_j, one per simple factor on its block; each is
    divided by the gcd of its entries and the lot put in Hermite form.
    """
    g = form_pairing(rd, (1,) * len(rd.components), rd.cartan)
    mono = pair_basis(rd.rank, strict=False)
    gens = []
    for lo, hi, _, _ in rd.factor_ranges():
        v = [(1 if i == j else 2) * g[i, j] if lo <= i and j < hi else 0 for i, j in mono]
        d = gcd(*v)
        gens.append([x // d for x in v])
    return column_hermite_form(IntMatrix.from_columns(gens))


def invariant_forms(rd) -> tuple[tuple[int, int, IntMatrix], ...]:
    """Checks the cycle test of `flagcoh.invariant_coords`, which compares S
    with `form_pairing(rd, c, A)` in one piece: the Weyl invariants of sym^2
    of the weight lattice as one block per simple factor, (lo, hi, F_k) with
    rows and columns lo..hi-1.

    Over Q each simple factor has exactly one invariant of degree 2, its
    basic form (Bourbaki, Lie Groups ch. VI).  The weight coordinates w_i
    read coroot coordinates, so the level-1 form with Gram matrix G is the
    polynomial sum_i G_ii w_i^2 + sum_{i<j} 2 G_ij w_i w_j, supported on its
    factor's block G_k.  Supports are disjoint, so the invariants are
    spanned, saturated, by these polynomials each divided by g_k, the gcd of
    its coefficients.  That gcd is 2 on every classified factor and on its
    Langlands dual: a long simple coroot has G_ii = 2, every G_ii = 2 eps_i
    is even, and so is every 2 G_ij.  So F_k = 2 G_k / g_k, the symmetric
    matrix of the k-th invariant (the polynomial is w^T F_k w / 2), is G_k.
    """
    g = form_pairing(rd, (1,) * len(rd.components), rd.cartan)
    return tuple((lo, hi, IntMatrix([[g[i, j] for j in range(lo, hi)] for i in range(lo, hi)]))
                 for lo, hi, _, _ in rd.factor_ranges())


def invariant_coords(rd, u: IntMatrix) -> tuple[int, ...] | None:
    """Checks `flagcoh.invariant_coords`: the `sym_invariants` coordinates
    of the quadratic polynomial of M = X u^T (M_ii on w_i^2, M_ij + M_ji on
    w_i w_j), by a solve over the monomials, or None when there are none."""
    m = rd.character_basis @ u.transpose()
    poly = [m[i, i] if i == j else m[i, j] + m[j, i] for i, j in pair_basis(rd.rank, strict=False)]
    return coords(sym_invariants(rd), poly)


def free_lattice(rd) -> IntMatrix:
    """Checks the free part of `flagcoh.class_in_h3`, which prints the
    invariant coordinates c of a cycle: the Hermite basis of the lattice K
    of the c that cycles reach, through one kernel with a slack column per
    nontrivial Smith invariant.  K does not depend on which Smith basis U
    (`RootDatum.character_smith`, U X V = diag(d)) is taken.

    With N = U X u^T U^T, a cycle has N + N^T = 2T(c), 2T(c) = U S_c U^T
    and S_c the block sum of the c_k F_k of `invariant_forms`, and u is
    integral exactly when row i of N is divisible by d_i.  The diagonal
    N_ii = T(c)_ii then asks T(c)_ii = 0 mod d_i; every other entry can be
    met (see `flagcoh.h3_group`), so K is the set of c with T(c)_ii = 0
    mod d_i.  T(c)_ii = sum_k c_k (U_i|k F_k U_i|k^T) / 2 is the invariant
    polynomial's value on row i of U, U_i|k that row cut to block k, which
    gives one kernel row (with a slack column) per d_i > 1; c fixes the
    slack, so the kernel's Hermite basis cut to c is K's."""
    U, d = rd.character_smith
    forms, torsion = invariant_forms(rd), [i for i in range(rd.rank) if d[i] > 1]
    f = len(forms)

    def value(i, lo, hi, fk):
        w = IntMatrix([U.row(i)[lo:hi]])
        return (w @ fk @ w.transpose())[0, 0] // 2

    rows = [[value(i, *form) for form in forms] + [d[i] if i == t else 0 for t in torsion]
            for i in torsion]
    ker = kernel_of_matrix(IntMatrix(rows, cols=f + len(torsion)))
    return IntMatrix.from_columns([c[:f] for c in ker.columns()], rows=f)


def bfield_shift(chat: tuple[tuple[int, ...], ...], shift: IntMatrix,
                 c: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Checks `tduality.reduction_torsor_shift`, whose moved twist has the
    moved dual Chern classes as its columns: the dual Chern classes after
    moving the reduction by the shift datum, chat_k' = chat_k + sum_i (B^T
    - B)_ki c_i, the module formula with the vectors as rows.  Chern data
    of other sizes, or with ragged vectors, raise TdualError."""
    b = shift_matrix(shift)
    return tuple(IntMatrix(chat) + (b.transpose() - b) @ IntMatrix(c))


# -- reflections and Weyl groups ------------------------------------------------


def reflection_matrix(root, i) -> IntMatrix:
    """Checks the closed-form Weyl words of `tduality.langlands_twist`
    and the reflection rule behind `rootdata.root_count`: s(x) = x - x_i *
    root as an n x n matrix, the i-th simple reflection on weight
    coordinates for row i of the Cartan matrix, on coweight coordinates for
    its column i."""
    n = len(root)
    return IntMatrix([[int(r == c) - root[r] * int(c == i) for c in range(n)] for r in range(n)])


def orbit_by_reflection_matrices(simple):
    """Checks `rootdata.root_count` and the simple-coroot reading of
    `loopext.admissibility_check`: the orbit of the `simple` roots by BFS
    over n x n reflection matrices, sorted: the roots for the rows of the
    Cartan matrix (weight coordinates), the coroots for its columns
    (coweight coordinates)."""
    reflections = [reflection_matrix(a, i) for i, a in enumerate(simple)]
    seen = set(simple)
    frontier = list(seen)
    while frontier:
        vs = IntMatrix.from_columns(frontier)
        new = {v for s in reflections for v in (s @ vs).columns()} - seen
        seen |= new
        frontier = list(new)
    return tuple(sorted(seen))


def weyl_elements_on_coweights(rd):
    """Checks the closed-form Langlands transport of `tduality`: Weyl
    elements as coweight-coordinate matrices, in BFS word order, the
    identity first."""
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


def find_phi(rd):
    """The Dynkin permutation `rootdata.require_phi` returns, or None where
    it raises Unavailable."""
    try:
        return require_phi(rd)
    except Unavailable:
        return None


def _block(mat: IntMatrix, lo: int, hi: int) -> list[list[int]]:
    """Rows and columns lo..hi-1 of `mat`."""
    return [[mat[i, j] for j in range(lo, hi)] for i in range(lo, hi)]


def block_matching_phi(rd) -> tuple[int, ...]:
    """Checks `rootdata.require_phi`, which reads the Dynkin isomorphism off
    the series: the permutation found by comparing Cartan blocks instead, or
    Unavailable with `require_phi`'s message and evidence.

    The dual's Cartan blocks are the datum's own transposed, over the same
    ranges.  Each source factor takes the first unused dual block that is
    its own (identity) or its own reversed (G2, F4 and B2: the transposed
    block; these diagrams have no automorphism), and a factor is left over
    when no unused dual block is either.
    """
    dual_cartan = rd.cartan.transpose()
    unused = [(lo, hi, _block(dual_cartan, lo, hi)) for lo, hi, _, _ in rd.factor_ranges()]
    perm, unmatched = [], []
    for lo, hi, series, r in rd.factor_ranges():
        src = _block(rd.cartan, lo, hi)
        reversed_src = [row[::-1] for row in src[::-1]]
        for k, (glo, ghi, dst) in enumerate(unused):
            if dst == src:
                perm += range(glo, ghi)
            elif dst == reversed_src:
                perm += range(ghi - 1, glo - 1, -1)
            else:
                continue
            del unused[k]
            break
        else:
            unmatched.append(f"{series}{r}")
    if unmatched:
        raise Unavailable(
            f"{rd.label}: no Dynkin isomorphism onto the Langlands dual "
            f"(obstructing factors: {', '.join(unmatched)})",
            evidence={"components": [list(c) for c in rd.components],
                      "dual": [[_DUAL_SERIES.get(s, s), r] for s, r in rd.components]},
        )
    return tuple(perm)


# -- the complex in tensor coordinates ------------------------------------------


def tensor_complex(rd) -> tuple[IntMatrix, IntMatrix]:
    """Checks `flagcoh.is_cycle`, `flagcoh.boundary`, `flagcoh.h3_group` and
    `flagcoh.class_in_h3`: (d20, d21_raw) as dense matrices built from index
    tables, d20 on wedge^2(chars) -> chars (x) weights, d21_raw on chars (x)
    weights -> sym^2(weights), with x_a (x) w_j at a*n + j and the
    pair_basis orders."""
    n = rd.rank
    x = rd.character_basis
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


# -- shared strategies ----------------------------------------------------------


@st.composite
def root_data(draw, kinds=("simply_connected", "adjoint", "custom")):
    """Products of simple factors of total rank <= 6, B/C/F/G included, with
    a fundamental group of one of `kinds`: simply connected, adjoint or
    custom.  A quotient's first factor is B, C, F or G, so that its integral
    lattice often pairs roots of different lengths (PSp(n) at odd level is
    not integral there)."""
    factors = {"A": range(1, 7), "B": range(2, 7), "C": range(3, 7), "D": range(4, 7),
               "G": [2], "F": [4]}
    kind = draw(st.sampled_from(kinds))
    comps, total = [], 0
    while not comps or (total < 6 and draw(st.booleans())):
        quotient_lead = kind != "simply_connected" and not comps
        series = draw(st.sampled_from("BCFG" if quotient_lead else sorted(factors)))
        fits = [r for r in factors[series] if total + r <= 6]
        if fits:
            comps.append((series, draw(st.sampled_from(fits))))
            total += comps[-1][1]
    return with_fundamental_group(draw, comps, kind)


@st.composite
def unimodular(draw, k):
    """A k x k unimodular matrix, for bases of one lattice: the identity after column sign changes and
    additions of a multiple of one column to another."""
    w = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 3 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        q = draw(st.integers(-3, 3))
        for row in w:
            row[i] = -row[i] if i == j else row[i] + q * row[j]
    return IntMatrix(w)


def with_fundamental_group(draw, comps, kind):
    """build(comps, kind), drawing one or two center generators when `kind`
    is "custom"."""
    if kind != "custom":
        return build(comps, kind)
    cyclic = center_generators(tuple(comps))
    gens = draw(st.lists(st.lists(st.integers(0, 3), min_size=len(cyclic), max_size=len(cyclic)),
                         min_size=1, max_size=2))
    return build(comps, {"generators": gens})
