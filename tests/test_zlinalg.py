"""Integer linear algebra substrate: normal forms, kernels and solves, and
the checks of the subquotient oracle (`oracles.subquotient`) that other test
modules hold the package's closed forms against."""

import random
from itertools import product

import pytest

from tdual_lie.zlinalg import (
    IntMatrix,
    _echelon,
    column_hermite_form,
    smith_normal_form,
    solve_columns,
)

from oracles import (
    NotSublattice,
    bareiss_det,
    coords,
    count_cosets_brute_force,
    diagonal,
    kernel_of_matrix,
    reduce_mod,
    square_power,
    standard_lattice,
    subquotient,
    sym2_matrix,
)


def random_matrix(rng, rows, cols, bound=10):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def tensor_matrix(f: IntMatrix, g: IntMatrix) -> IntMatrix:
    """f (x) g on e_i (x) e_j, pairs in lexicographic order (Kronecker product)."""
    return IntMatrix([[f[a, i] * g[b, j] for i in range(f.cols) for j in range(g.cols)]
                      for a in range(f.rows) for b in range(g.rows)], cols=f.cols * g.cols)


def check_snf(m):
    u, d = smith_normal_form(m)
    assert len(d) == min(m.rows, m.cols)
    # U m and diag(d) span the same column lattice exactly when
    # diag(d) = U m V for some unimodular V.
    assert abs(bareiss_det(u)) == 1
    assert column_hermite_form(u @ m) == column_hermite_form(diagonal(d, m.rows, m.cols))
    assert all(x >= 0 for x in d)
    nz = [x for x in d if x != 0]
    assert list(d[: len(nz)]) == nz, "zero entries must come last"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return d


def test_snf_identity():
    u, d = smith_normal_form(IntMatrix.identity(2))
    assert d == (1, 1)
    assert u == IntMatrix.identity(2)


def test_snf_frozen_2x2():
    # d1 = gcd of entries = 2 and d1*d2 = |det| = 8, so D = diag(2, 4).
    assert check_snf(IntMatrix([[2, 4], [6, 8]])) == (2, 4)


def test_snf_zero():
    assert check_snf(IntMatrix([[0, 0], [0, 0]])) == (0, 0)


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


def test_echelon_leaves_the_entries_above_a_pivot_to_column_hermite_form():
    """`_echelon` stops at positive pivots: the 7 above the second pivot
    stays, and column_hermite_form alone reduces it into [0, 3)."""
    rows = [[2, 7], [0, -3]]
    assert _echelon(rows, 2) == [0, 1]
    assert rows == [[2, 7], [0, 3]]
    assert column_hermite_form(IntMatrix.from_columns([(2, 7), (0, -3)])) == \
        IntMatrix.from_columns([(2, 1), (0, 3)])


def test_kernel_examples():
    assert kernel_of_matrix(IntMatrix.identity(3)).cols == 0

    assert kernel_of_matrix(IntMatrix([[2, -2]])) == IntMatrix([[1], [1]])

    zero = kernel_of_matrix(IntMatrix.zero(3, 3))
    assert column_hermite_form(zero) == column_hermite_form(standard_lattice(3))


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, 8)
        assert column_hermite_form(m).cols + kernel_of_matrix(m).cols == cols


def test_subquotient_examples():
    two_z = IntMatrix([[2]])
    z = standard_lattice(1)
    g = subquotient(two_z, z)
    assert (g.free_rank, g.torsion) == (0, (2,))

    g = subquotient(IntMatrix.zero(2, 0), standard_lattice(2))
    assert (g.free_rank, g.torsion) == (2, ())

    inner = IntMatrix([[2, 0], [0, 3]])
    g = subquotient(inner, standard_lattice(2))
    assert (g.free_rank, g.torsion) == (0, (6,))
    assert g.order() == 6

    with pytest.raises(NotSublattice):
        subquotient(standard_lattice(2), IntMatrix([[2, 0], [0, 2]]))


def test_subquotient_order_vs_coset_enumeration():
    rng = random.Random(23)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        rel = random_matrix(rng, n, n, 4)
        det = abs(bareiss_det(rel))
        if det == 0 or det > 50:
            continue
        g = subquotient(rel, standard_lattice(n))
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
    lat = IntMatrix([[2, 0], [1, 3]])
    r1 = reduce_mod(lat, (5, 7))
    r2 = reduce_mod(lat, (5 + 2, 7 + 1))
    assert r1 == r2
    assert coords(lat, tuple(a - b for a, b in zip((5, 7), r1))) is not None
