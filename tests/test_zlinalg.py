"""Integer linear algebra substrate: normal forms and lattices, and the
subquotient oracle that other test modules hold the package's closed forms
against."""

import random
from itertools import product
from math import prod

import pytest

from tdual_lie.zlinalg import (
    IntMatrix,
    Lattice,
    column_hermite_form,
    kernel_of_matrix,
    pair_basis,
    smith_normal_form,
    solve_columns,
)


def bareiss_det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    The package reads orders and indices off normal forms (|Z| is
    `prod(center(rd))`), so this is the independent route the tests hold
    them against.
    """
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


# -- the subquotient oracle ---------------------------------------------------
#
# A finitely generated abelian group as outer/inner lattices, split by a
# Smith form of the relations in outer-basis coordinates.  The package reads
# its finite groups off Smith diagonals of square matrices instead; this
# general presentation is the second route the tests compare them with.


class NotSublattice(Exception):
    """The claimed inner lattice is not contained in the outer one."""


def standard_lattice(n: int, label: str = "") -> Lattice:
    """Z^n with the unit vectors as basis."""
    return Lattice(n, IntMatrix.identity(n), label)


def reduce_mod(lattice: Lattice, vec) -> tuple[int, ...]:
    """Canonical representative of vec modulo the lattice: reduced against
    the Hermite basis from the top pivot down, it has coordinates in [0,
    pivot) at every pivot position."""
    out = list(vec)
    for col in column_hermite_form(lattice.basis).columns():
        c = next(i for i, x in enumerate(col) if x)
        q = out[c] // col[c]
        out = [x - q * y for x, y in zip(out, col)]
    return tuple(out)


class FgAbGroup:
    """outer/inner as invariant factors d1 | d2 | ... (each >= 2) and a free
    rank, keeping the presentation: both lattices, the Smith row transform U
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
        return [reduce_mod(self._inner, self._outer.basis.apply(x)) for x in xs.columns()]


def subquotient(inner: Lattice, outer: Lattice) -> FgAbGroup:
    """Invariant-factor decomposition of outer/inner; raises NotSublattice
    unless inner is contained in outer."""
    if inner.ambient_dim != outer.ambient_dim:
        raise NotSublattice("ambient dimensions differ")
    rel = solve_columns(outer.basis, inner.basis)
    if rel is None:
        raise NotSublattice("inner lattice is not contained in the outer one")
    u, d = smith_normal_form(rel)
    diag = tuple(d[i, i] if i < d.cols else 0 for i in range(outer.rank))
    return FgAbGroup(free_rank=diag.count(0), torsion=tuple(x for x in diag if x >= 2),
                     _outer=outer, _inner=inner, _row_transform=u, _diag=diag)


def random_matrix(rng, rows, cols, bound=10):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def square_power(f: IntMatrix, strict: bool) -> IntMatrix:
    """wedge^2 f (strict) or sym^2 f on the pair_basis monomials e_a e_b.

    The coefficient of e_a e_b (a < b) in f(e_i) f(e_j) is
    f[a,i]f[b,j] -/+ f[b,i]f[a,j]; of e_a^2 (sym^2 only) it is f[a,i]f[a,j].
    """
    sign = -1 if strict else 1
    dom, cod = pair_basis(f.cols, strict), pair_basis(f.rows, strict)
    return IntMatrix([[f[a, i] * f[a, j] if a == b else f[a, i] * f[b, j] + sign * f[b, i] * f[a, j]
                       for i, j in dom] for a, b in cod], cols=len(dom))


def sym2_matrix(f: IntMatrix) -> IntMatrix:
    return square_power(f, strict=False)


def tensor_matrix(f: IntMatrix, g: IntMatrix) -> IntMatrix:
    """f (x) g on e_i (x) e_j, pairs in lexicographic order (Kronecker product)."""
    return IntMatrix([[f[a, i] * g[b, j] for i in range(f.cols) for j in range(g.cols)]
                      for a in range(f.rows) for b in range(g.rows)], cols=f.cols * g.cols)


def check_snf(m):
    u, d = smith_normal_form(m)
    # U m and D span the same column lattice exactly when D = U m V for
    # some unimodular V.
    assert abs(bareiss_det(u)) == 1
    assert column_hermite_form(u @ m) == column_hermite_form(d)
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x != 0]
    assert diag[: len(nz)] == nz, "zero entries must come last"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return d


def test_snf_identity():
    u, d = smith_normal_form(IntMatrix.identity(2))
    assert d == IntMatrix.identity(2)
    assert u == IntMatrix.identity(2)


def test_snf_frozen_2x2():
    # d1 = gcd of entries = 2 and d1*d2 = |det| = 8, so D = diag(2, 4).
    d = check_snf(IntMatrix([[2, 4], [6, 8]]))
    assert [d[0, 0], d[1, 1]] == [2, 4]


def test_snf_zero():
    d = check_snf(IntMatrix([[0, 0], [0, 0]]))
    assert d == IntMatrix.zero(2, 2)


def test_snf_random():
    rng = random.Random(20260809)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        check_snf(random_matrix(rng, rows, cols))


def test_hermite_canonical_under_column_ops():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        m = random_matrix(rng, n, k, bound=6)
        # Post-composing with a unimodular matrix does not change the span.
        t = IntMatrix.identity(k)
        for _ in range(6):
            i, j = rng.randrange(k), rng.randrange(k)
            if i == j:
                continue
            rowlist = t.tolist()
            q = rng.randint(-3, 3)
            for r in range(k):
                rowlist[r][i] += q * rowlist[r][j]
            t = IntMatrix(rowlist)
        assert column_hermite_form(m) == column_hermite_form(m @ t)


def brute_force_in_span(columns, target, bound=10):
    """Search coefficients in [-bound, bound] writing target in the span."""
    dim = len(target)
    for coeffs in product(range(-bound, bound + 1), repeat=len(columns)):
        v = tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim))
        if v == tuple(target):
            return True
    return False


def test_column_hermite_form_examples():
    assert column_hermite_form(IntMatrix.zero(2, 2)).cols == 0

    assert column_hermite_form(IntMatrix([[2]])) == IntMatrix([[2]])

    im = column_hermite_form(IntMatrix([[1, 1], [0, 2]]))
    # Oracle: mutual containment of the generating sets, with coefficients
    # found by brute-force search, plus equal covolume.  Together these prove
    # the two spans are the same lattice.
    original = [(1, 0), (1, 2)]
    for col in im.columns():
        assert brute_force_in_span(original, col)
    for col in original:
        assert brute_force_in_span(im.columns(), col)
    assert abs(bareiss_det(im)) == abs(bareiss_det(IntMatrix.from_columns(original)))


def test_kernel_examples():
    assert kernel_of_matrix(IntMatrix.identity(3)).cols == 0

    assert kernel_of_matrix(IntMatrix([[2, -2]])) == IntMatrix([[1], [1]])

    zero = Lattice(3, kernel_of_matrix(IntMatrix.zero(3, 3)))
    assert column_hermite_form(zero.basis) == column_hermite_form(standard_lattice(3).basis)


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 8)
        assert column_hermite_form(m).cols + kernel_of_matrix(m).cols == cols


def test_subquotient_examples():
    two_z = Lattice(1, IntMatrix([[2]]))
    z = standard_lattice(1)
    g = subquotient(two_z, z)
    assert (g.free_rank, g.torsion) == (0, (2,))

    g = subquotient(Lattice(2, IntMatrix.zero(2, 0)), standard_lattice(2))
    assert (g.free_rank, g.torsion) == (2, ())

    inner = Lattice(2, IntMatrix([[2, 0], [0, 3]]))
    g = subquotient(inner, standard_lattice(2))
    assert (g.free_rank, g.torsion) == (0, (6,))
    assert g.order() == 6

    with pytest.raises(NotSublattice):
        subquotient(standard_lattice(2), Lattice(2, IntMatrix([[2, 0], [0, 2]])))


def count_cosets_brute_force(rel: IntMatrix) -> int:
    """Number of lattice points in the half-open fundamental cell of rel.

    Independent of the normal-form machinery: enumerate integer points in a
    bounding box and keep those whose exact rational preimage lies in
    [0, 1)^n.
    """
    from fractions import Fraction

    n = rel.rows
    cols = rel.columns()
    corners = []
    for eps in product((0, 1), repeat=n):
        corners.append(tuple(sum(e * col[i] for e, col in zip(eps, cols)) for i in range(n)))
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
            sub = IntMatrix(minor) if minor else IntMatrix([])
            inv[i][j] = Fraction(sign * (bareiss_det(sub) if n > 1 else 1), det)
    count = 0
    for v in product(*[range(lo[i], hi[i] + 1) for i in range(n)]):
        x = [sum(inv[i][j] * v[j] for j in range(n)) for i in range(n)]
        if all(0 <= xi < 1 for xi in x):
            count += 1
    return count


def test_subquotient_order_vs_coset_enumeration():
    rng = random.Random(23)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        rel = random_matrix(rng, n, n, 4)
        det = abs(bareiss_det(rel))
        if det == 0 or det > 50:
            continue
        inner = Lattice(n, rel)
        g = subquotient(inner, standard_lattice(n))
        assert g.order() == det == count_cosets_brute_force(rel)
        done += 1


def test_functor_examples():
    assert square_power(IntMatrix.identity(2), strict=True) == IntMatrix.identity(1)
    assert sym2_matrix(IntMatrix.identity(2)) == IntMatrix.identity(3)

    flip = IntMatrix([[1, 0], [0, -1]])
    assert sym2_matrix(flip) == IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    # wedge^2 of a 2x2 matrix is its determinant.
    m = IntMatrix([[2, 3], [5, 7]])
    assert square_power(m, strict=True) == IntMatrix([[bareiss_det(m)]])


def test_functors_preserve_composition():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        f = random_matrix(rng, c, b, 4)
        g = random_matrix(rng, b, a, 4)
        fg = f @ g
        assert square_power(fg, strict=True) == square_power(f, strict=True) @ square_power(g, strict=True)
        assert sym2_matrix(fg) == sym2_matrix(f) @ sym2_matrix(g)
        assert tensor_matrix(fg, fg) == tensor_matrix(f, f) @ tensor_matrix(g, g)


def test_solve_columns_roundtrip():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        basis = random_matrix(rng, n, k, 5)
        x = random_matrix(rng, k, 2, 5)
        y = basis @ x
        sol = solve_columns(basis, y)
        assert sol is not None
        assert basis @ sol == y


def test_reduce_mod_canonical():
    lat = Lattice(2, IntMatrix([[2, 0], [1, 3]]))
    r1 = reduce_mod(lat, (5, 7))
    r2 = reduce_mod(lat, (5 + 2, 7 + 1))
    assert r1 == r2
    assert lat.coords(tuple(a - b for a, b in zip((5, 7), r1))) is not None
