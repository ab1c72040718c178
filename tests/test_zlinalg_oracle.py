"""The elimination core against sympy's normal forms on random matrices.

Matrices are at most 8x8 with entries up to 50 in absolute value; half of
them are products through a narrower middle dimension so that rank-deficient
cases, nonzero kernels and torsion come up often.  The product is checked
on its own shapes, empty ones included, with entries past 64 bits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from tdual_lie.zlinalg import IntMatrix, column_hermite_form, smith_normal_form, solve_columns

from oracles import (bareiss_det, coords, diagonal, kernel_of_matrix, reduce_mod, subquotient,
                     subquotient_coords, to_sympy, unimodular)

ORACLE = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def _entries(rows, cols, bound):
    return st.lists(st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrices(draw, max_dim=8):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        return IntMatrix(draw(_entries(rows, cols, 50)))
    mid = draw(st.integers(1, max(rows, cols)))
    a = IntMatrix(draw(_entries(rows, mid, 3)))
    b = IntMatrix(draw(_entries(mid, cols, 3)))
    return a @ b


@st.composite
def independent_columns(draw, max_dim=6):
    """A matrix whose columns are independent over Q."""
    m = draw(matrices(max_dim))
    return IntMatrix.from_columns(_independent_subset(m.columns()), rows=m.rows)


def _independent_subset(columns):
    kept = []
    for col in columns:
        if Matrix([list(c) for c in kept + [col]]).rank() == len(kept) + 1:
            kept.append(col)
    return kept


def _nonzero_invariant_factors(m: IntMatrix) -> list[int]:
    if m.rows == 0 or m.cols == 0:
        return []
    return [abs(int(d)) for d in invariant_factors(to_sympy(m), domain=ZZ) if d != 0]


@ORACLE
@given(matrices())
def test_rank_matches_sympy(m):
    """The rank, read as the column count of the Hermite form."""
    assert column_hermite_form(m).cols == to_sympy(m).rank()


@ORACLE
@given(matrices(), st.data())
def test_column_hermite_form_is_the_canonical_basis_of_its_span(m, data):
    """One positive pivot per column, in increasing rows, with the entries
    left of each pivot in [0, pivot); the same lattice as m, each side
    solving against the other; and the same form after a unimodular change
    of m's columns."""
    h = column_hermite_form(m)
    pivots = [next(i for i, x in enumerate(col) if x) for col in h.columns()]
    assert pivots == sorted(set(pivots))
    for j, p in enumerate(pivots):
        assert h[p, j] > 0
        assert all(0 <= h[p, i] < h[p, j] for i in range(j))
    assert solve_columns(h, m) is not None and solve_columns(m, h) is not None
    assert column_hermite_form(m @ data.draw(unimodular(m.cols))) == h


@ORACLE
@given(matrices())
def test_smith_normal_form_matches_sympy(m):
    """The nonzero Smith diagonal is sympy's invariant factors, zeros fill it
    to min(R, C), and U is unimodular with U m spanning the columns of
    diag(d): rank-deficient and rectangular input included, where the
    alternating elimination has to stop with zero rows or columns left."""
    u, d = smith_normal_form(m)
    factors = tuple(_nonzero_invariant_factors(m))
    assert d == factors + (0,) * (min(m.rows, m.cols) - len(factors))
    assert abs(bareiss_det(u)) == 1
    assert column_hermite_form(u @ m) == column_hermite_form(diagonal(d, m.rows, m.cols))


@ORACLE
@given(matrices())
def test_kernel_is_annihilated_and_saturated(m):
    k = kernel_of_matrix(m)
    assert k.rows == m.cols
    assert k.cols == m.cols - to_sympy(m).rank()
    assert m @ k == IntMatrix.zero(m.rows, k.cols)
    # Z^n / span(K) is torsion-free exactly when every invariant factor is 1.
    assert all(d == 1 for d in _nonzero_invariant_factors(k))


@ORACLE
@given(matrices(), st.data())
def test_solve_columns_membership(basis, data):
    coeffs = IntMatrix(data.draw(_entries(basis.cols, 2, 5)))
    inside = basis @ coeffs
    sol = solve_columns(basis, inside)
    assert sol is not None and basis @ sol == inside

    target = IntMatrix(data.draw(_entries(basis.rows, 1, 50)))
    sol = solve_columns(basis, target)
    # target lies in the span iff appending it changes neither the rank nor
    # the product of the nonzero invariant factors (the lattice's index).
    joined = IntMatrix(list(a + b) for a, b in zip(basis, target))
    same_rank = column_hermite_form(basis).cols == column_hermite_form(joined).cols
    same_index = _product(_nonzero_invariant_factors(basis)) == _product(
        _nonzero_invariant_factors(joined))
    assert (sol is not None) == (same_rank and same_index)
    if sol is not None:
        assert basis @ sol == target


@st.composite
def sparse_matrices(draw, rows, cols):
    """A rows x cols matrix whose entries are zero but for a drawn share,
    from none to all of them, the others up to 2^70 in absolute value."""
    share = draw(st.integers(0, 4))
    entry = st.integers(-2**70, 2**70)
    return IntMatrix([[draw(entry) if draw(st.integers(1, 4)) <= share else 0
                       for _ in range(cols)] for _ in range(rows)], cols=cols)


@ORACLE
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_product_matches_sympy(rows, mid, cols, data):
    """`@`, which adds up the rows its left factor's nonzeros pick, against
    sympy's dense product: empty shapes, all-zero to dense factors, and
    entries past 64 bits."""
    a = data.draw(sparse_matrices(rows, mid))
    b = data.draw(sparse_matrices(mid, cols))
    prod = a @ b
    assert (prod.rows, prod.cols) == (rows, cols)
    assert to_sympy(prod) == to_sympy(a) * to_sympy(b)


def _product(xs):
    out = 1
    for x in xs:
        out *= x
    return out


@ORACLE
@given(independent_columns(), st.data())
def test_subquotient_invariant_factors(outer_basis, data):
    k = outer_basis.cols
    rel = IntMatrix(data.draw(_entries(k, data.draw(st.integers(0, k)), 6), label="rel"))
    rel = IntMatrix.from_columns(_independent_subset(rel.columns()), rows=k)
    outer, inner = outer_basis, outer_basis @ rel
    g = subquotient(inner, outer)
    factors = _nonzero_invariant_factors(rel)
    assert g.torsion == tuple(d for d in factors if d >= 2)
    assert g.free_rank == k - len(factors)
    # Each torsion lift lies in outer, is its own representative modulo
    # inner, and has the j-th unit vector as its coordinates.
    for j, lift in enumerate(g.torsion_generators()):
        assert coords(outer, lift) is not None
        assert reduce_mod(inner, lift) == lift
        unit = tuple(int(i == j) for i in range(len(g.torsion)))
        assert subquotient_coords(g, lift) == ((0,) * g.free_rank, unit)


def test_rank_is_exact_where_a_large_prime_divides():
    """Matrices whose rank drops mod the prime 2^61 - 1 keep their rank over
    Q: the Hermite form's column count is exact elimination, with no
    modular shortcut."""
    prime = (1 << 61) - 1
    p = IntMatrix([[prime]])
    assert column_hermite_form(p).cols == 1
    assert kernel_of_matrix(p).cols == 0
    # Rank 2 over Z, rank 1 mod p: det = p.
    m = IntMatrix([[1, 1], [1, 1 + prime]])
    assert column_hermite_form(m).cols == 2
    assert kernel_of_matrix(m).cols == 0
