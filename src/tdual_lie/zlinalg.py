"""Exact integer linear algebra over Z.

Everything here is plain Python integers, so intermediate entries may grow
without bound (Smith normal form blows up fixed-width arithmetic quickly).
The module provides:

  * IntMatrix       -- immutable arbitrary-precision integer matrices,
  * smith_normal_form (U and D) / column_hermite_form -- normal forms,
  * Lattice         -- free Z-modules with chosen bases,
  * kernel_of_matrix / subquotient -- the pieces every cohomology group
    in the package is assembled from,
  * pair_basis      -- the lexicographic index pairs (i<j for wedge^2, i<=j
    for sym^2) that fix the bases of the degree-2 lattices,
  * Record          -- the value-class base of the package's plain classes.

One elimination core computes a transform only where a caller reads it:

  * `_echelon`, row-style Hermite elimination on the columns of a matrix,
    lets trailing entries ride along to record a column transform T.
    column_hermite_form tracks none; kernel_of_matrix tracks T and keeps
    the columns of T whose image ends up zero, which span the saturated
    kernel; solve_columns keeps H = B T together with T.
  * Rank, and so the independence check of every Lattice, is elimination
    mod the prime 2^61 - 1, which keeps entries bounded: full rank mod p
    certifies full rank over Z, a lower rank falls back to exact
    elimination.
  * smith_normal_form tracks U alone, with U m V = D for a V it never
    builds; subquotient keeps U for coords and solves U x = e_j for a
    torsion generator's lift only when torsion_generators asks.
  * A Lattice caches its Hermite basis, pivots and transform on first use
    for coords, contains, reduce_mod, same_lattice and subquotient.

Canonical forms: sublattices are compared through the column-style Hermite
form (unique), and subquotients report invariant factors d1 | d2 | ... with
torsion generator lifts reduced to a fixed representative modulo the inner
lattice.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain
from math import prod
from operator import attrgetter, mul

from .errors import DimensionMismatch, NotCompatible, NotSublattice

_PRIME = (1 << 61) - 1  # modulus of the rank certificate


class Record:
    """Field-wise, class-exact `==` and `hash` and a short repr over the
    attributes named in `_fields`.  Instances are values: nothing assigns to
    these attributes after `__init__`, though nothing stops it.  `_key`, the
    getter of those attributes, is built once per subclass."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields if f[0] != "_")
        return f"{type(self).__name__}({shown})"


class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision.

    Entries must be `int` (a bool or a float is refused, not truncated).
    """

    __slots__ = ("_rows", "_shape")

    def __init__(self, rows: Iterable[Iterable[int]], cols: int | None = None):
        data = tuple(map(tuple, rows))
        if not set(map(type, chain.from_iterable(data))) <= {int}:
            raise TypeError("matrix entries must be integers")
        width = len(data[0]) if data else (cols or 0)
        if any(len(r) != width for r in data):
            raise DimensionMismatch("ragged rows in matrix")
        self._rows, self._shape = data, (len(data), width)

    @classmethod
    def _of(cls, rows: Iterable[Sequence[int]], cols: int) -> "IntMatrix":
        """Wrap rows of ints this module computed, without checking them."""
        m = object.__new__(cls)
        m._rows = tuple(map(tuple, rows))
        m._shape = (len(m._rows), cols)
        return m

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(_identity_lists(n), n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(((0,) * cols for _ in range(rows)), cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        if any(len(c) != len(cols[0]) for c in cols):
            raise DimensionMismatch("columns of different lengths")
        return cls(zip(*cols), cols=len(cols)) if cols else cls(((),) * (rows or 0), cols=0)

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def entries(self) -> tuple[int, ...]:
        """Row-major flattening."""
        return tuple(chain.from_iterable(self._rows))

    def row(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._rows)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self._rows)) if self._rows else [()] * self.cols

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def __getitem__(self, key) -> int:
        i, j = key
        return self._rows[i][j]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._shape == other._shape and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._shape, self._rows))

    def __repr__(self) -> str:
        return f"IntMatrix({self.tolist()!r})"

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self._shape} by {other._shape}")
        bt = other.columns()
        return IntMatrix._of(
            ([sum(map(mul, row, col)) for col in bt] for row in self._rows), other.cols
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self._shape != other._shape:
            raise DimensionMismatch("shape mismatch in addition")
        return IntMatrix._of(
            ([a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)),
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix._of(([k * x for x in r] for r in self._rows), self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.columns(), self.rows)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(sum(map(mul, row, vec)) for row in self._rows)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self._rows]
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

    def rank(self) -> int:
        """Rank over Q: elimination mod a large prime, exact elimination
        only when that falls short of full rank."""
        vectors = self._rows if self.rows <= self.cols else self.columns()
        r = _rank_mod_p(vectors)
        if r < min(self._shape):
            r = len(_echelon([list(v) for v in vectors], len(vectors[0])))
        return r


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise DimensionMismatch("row mismatch in hstack")
    return IntMatrix._of((ra + rb for ra, rb in zip(a, b)), a.cols + b.cols)


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    cols = sum(b.cols for b in blocks)
    out = []
    c0 = 0
    for b in blocks:
        out += [(0,) * c0 + r + (0,) * (cols - c0 - b.cols) for r in b]
        c0 += b.cols
    return IntMatrix._of(out, cols)


def _identity_lists(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _from_columns(columns: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    return IntMatrix._of(zip(*columns), len(columns)) if columns else IntMatrix.zero(rows, 0)


# ---------------------------------------------------------------------------
# The elimination core
# ---------------------------------------------------------------------------


def _rank_mod_p(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of the vectors over Z/p.  Never above the rank over Q, and equal
    to it unless p divides every nonzero maximal minor."""
    a = [[x % _PRIME for x in v] for v in vectors]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        tail = a[rank][c:]
        inv = pow(tail[0], -1, _PRIME)
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            if f:
                f = f * inv % _PRIME
                a[i][c:] = [(x - f * y) % _PRIME for x, y in zip(a[i][c:], tail)]
        rank += 1
    return rank


def _echelon(rows: list[list[int]], width: int) -> list[int]:
    """Row-style Hermite elimination, in place, on the first `width` entries.

    Row operations are unimodular, so entries past `width` ride along as
    their record.  Returns the pivot columns: rows[:r] (r pivots) are the
    unique Hermite form of the span (positive pivots, entries above a pivot
    in [0, pivot)), and rows[r:] vanish on the first `width` entries.  Rows
    from the pivot down are zero left of column c, so operations touch the
    slice from c on.
    """
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == nrows:
            break
        # Shrink column c below row r to a single nonzero entry by gcd steps.
        while True:
            live = [i for i in range(r, nrows) if rows[i][c]]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            tail = rows[r][c:]
            done = True
            for i in live:
                if i == i0:
                    continue
                row = rows[i0 if i == r else i]
                q = row[c] // tail[0]
                row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
                done = done and not row[c]
            if done:
                break
        pivot = rows[r]
        if not pivot[c]:
            continue
        if pivot[c] < 0:
            pivot[c:] = [-x for x in pivot[c:]]
        tail = pivot[c:]
        for row in rows[:r]:
            q = row[c] // tail[0]
            if q:
                row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
        pivots.append(c)
    return pivots


def _hermite_data(basis: IntMatrix):
    """(rows, pivots, n, k) for the columns of an n x k matrix B: rows[j] is
    the j-th echelon column h_j followed by t_j with B t_j = h_j; the rows
    past the pivots have h_j = 0."""
    n, k = basis.rows, basis.cols
    rows = [list(col) + row for col, row in zip(basis.columns(), _identity_lists(k))]
    return rows, _echelon(rows, n), n, k


def _solve(data, targets: Iterable[Sequence[int]]) -> list[list[int]] | None:
    """Integer solutions x of B x = y for each target y, from the data of
    `_hermite_data(B)`, or None if some target is outside the span."""
    rows, pivots, n, k = data
    out = []
    for y in targets:
        if len(y) != n:
            raise DimensionMismatch("ambient dimensions differ")
        y = list(y)
        x = [0] * k
        for row, c in zip(rows, pivots):
            q, rem = divmod(y[c], row[c])
            if rem:
                return None
            if q:
                y[c:] = [a - q * b for a, b in zip(y[c:], row[c:n])]
                x = [a + q * b for a, b in zip(x, row[n:])]
        if any(y):
            return None
        out.append(x)
    return out


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(U, D) with U*m*V = D for some unimodular V, U unimodular and D
    diagonal with nonnegative entries d1 | d2 | ..., zeros last.

    Only U is tracked, as the trailing entries of the rows of [m | U];
    column operations touch the m part alone.
    """
    R, C = m.rows, m.cols
    a = [list(r) + e for r, e in zip(m, _identity_lists(R))]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    for t in range(min(R, C)):
        # The first pivot of least absolute value in the trailing block.
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, R) for j in range(t, C) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            col_swap(t, pj)
        while True:
            # Clear column t, then row t, restarting on a smaller pivot.
            dirty = False
            for i in range(R):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            for j in range(C):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # Enforce d_t | (everything that remains).
            fix = next((i for i in range(t + 1, R)
                        if any(a[i][j] % a[t][t] for j in range(t + 1, C))), None)
            if fix is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[fix])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

    return IntMatrix._of((r[C:] for r in a), R), IntMatrix._of((r[:C] for r in a), C)


def column_hermite_form(m: IntMatrix) -> IntMatrix:
    """Canonical column form of the lattice spanned by the columns of m.

    Zero columns are dropped, so the result's columns are a basis.  The form
    is the transpose of the (unique) row Hermite normal form of m^T: pivots
    positive, one pivot per echelon row, and entries left of a pivot reduced
    into [0, pivot).  Equal column spans give equal output, which is what
    makes lattice equality plain data equality.
    """
    h = [list(col) for col in m.columns()]
    return _from_columns(h[:len(_echelon(h, m.rows))], m.rows)


def solve_columns(basis: IntMatrix, targets: IntMatrix) -> IntMatrix | None:
    """Solve basis @ X = targets over the integers, or return None.

    Used for sublattice membership: the columns of `targets` lie in the
    Z-span of the columns of `basis` exactly when a solution exists.
    """
    if basis.rows != targets.rows:
        raise DimensionMismatch("ambient dimensions differ")
    sol = _solve(_hermite_data(basis), targets.columns())
    return None if sol is None else _from_columns(sol, basis.cols)


def contains_columns(basis: IntMatrix, targets: IntMatrix) -> bool:
    return solve_columns(basis, targets) is not None


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------


class Lattice(Record):
    """Free Z-module with a chosen basis inside Z^ambient_dim.

    The basis matrix has the basis vectors as columns; they must be linearly
    independent over Q.  Its Hermite form and solve data are cached.
    """

    _fields = ("ambient_dim", "basis", "label")

    def __init__(self, ambient_dim: int, basis: IntMatrix, label: str = ""):
        self.ambient_dim, self.basis, self.label = ambient_dim, basis, label
        if self.basis.rows != self.ambient_dim:
            raise DimensionMismatch("basis rows must equal ambient dimension")
        if self.basis.cols and self.basis.rank() != self.basis.cols:
            raise DimensionMismatch(f"basis columns of {self.label or 'lattice'} are dependent")

    @cached_property
    def _hermite(self):
        return _hermite_data(self.basis)

    @property
    def rank(self) -> int:
        return self.basis.cols

    @classmethod
    def standard(cls, n: int, label: str = "") -> "Lattice":
        return cls(n, IntMatrix.identity(n), label)

    @classmethod
    def zero(cls, ambient_dim: int, label: str = "") -> "Lattice":
        return cls(ambient_dim, IntMatrix.zero(ambient_dim, 0), label)

    def same_lattice(self, other: "Lattice") -> bool:
        if self.ambient_dim != other.ambient_dim or self.rank != other.rank:
            return False
        n = self.ambient_dim
        return all(a[:n] == b[:n] for a, b in zip(self._hermite[0], other._hermite[0]))

    def contains(self, vec: Sequence[int]) -> bool:
        return _solve(self._hermite, [vec]) is not None

    def coords(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """Basis coordinates of an ambient vector, or None if outside."""
        sol = _solve(self._hermite, [vec])
        return None if sol is None else tuple(sol[0])

    def reduce_mod(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of vec modulo this lattice.

        Reduction against the Hermite basis from the top pivot down; the
        result is the unique representative with coordinates in [0, pivot)
        at every pivot position.
        """
        rows, pivots, n, _ = self._hermite
        out = list(vec)
        for row, c in zip(rows, pivots):
            q = out[c] // row[c]
            if q:
                out[c:] = [x - q * y for x, y in zip(out[c:], row[c:n])]
        return tuple(out)


def kernel_of_matrix(m: IntMatrix) -> IntMatrix:
    """Columns spanning {x : m x = 0}; saturated, in canonical form.

    The columns of m are put in echelon form with the column transform
    riding along; the transform columns whose image ends up zero span the
    kernel, saturated because the transform is unimodular.
    """
    rows, pivots, n, k = _hermite_data(m)
    return column_hermite_form(_from_columns([row[n:] for row in rows[len(pivots):]], k))


class FgAbGroup(Record):
    """Finitely generated abelian group presented as outer/inner lattices.

    Stored as invariant factors d1 | d2 | ... (each >= 2) plus a free rank.
    The presentation (both lattices, the Smith row transform U of the
    relations in outer-basis coordinates, and its diagonal) is kept on the
    object, in the fields prefixed with an underscore, for coords and
    torsion_generators.
    """

    _fields = ("free_rank", "torsion", "_outer", "_inner", "_row_transform", "_diag")

    def __init__(self, free_rank: int, torsion: tuple[int, ...], _outer: Lattice,
                 _inner: Lattice, _row_transform: IntMatrix, _diag: tuple[int, ...]):
        self.free_rank, self.torsion, self._outer = free_rank, torsion, _outer
        self._inner, self._row_transform, self._diag = _inner, _row_transform, _diag

    @property
    def invariant_factors(self) -> list[int]:
        """Invariant factor list, torsion then 0s for the free part."""
        return list(self.torsion) + [0] * self.free_rank

    def order(self) -> int:
        """Group order (0 for infinite)."""
        return 0 if self.free_rank else prod(self.torsion)

    def torsion_generators(self) -> list[tuple[int, ...]]:
        """Ambient lifts of the torsion generators, aligned with `torsion`.

        The j-th Smith generator is the outer-basis vector x with U x = e_j
        (column j of U^-1), reduced to its fixed representative modulo the
        inner lattice.
        """
        n = len(self._diag)
        units = ([int(i == j) for i in range(n)] for j in range(n) if self._diag[j] >= 2)
        xs = _solve(_hermite_data(self._row_transform), units)
        return [self._inner.reduce_mod(self._outer.basis.apply(x)) for x in xs]

    def coords(self, vec: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(free, torsion) coordinates of an ambient vector's class.

        Torsion coordinates are reduced into [0, d).  Raises NotCompatible
        if the vector is not in the outer lattice.
        """
        c = self._outer.coords(vec)
        if c is None:
            raise NotCompatible("element lies outside the outer lattice")
        cc = self._row_transform.apply(c)
        rank = sum(1 for d in self._diag if d != 0)
        free = tuple(cc[i] for i in range(rank, self._outer.rank))
        tors = tuple(cc[i] % self._diag[i] for i in range(rank) if self._diag[i] >= 2)
        return free, tors

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def subquotient(inner: Lattice, outer: Lattice) -> FgAbGroup:
    """Invariant-factor decomposition of outer/inner.

    Raises NotSublattice unless inner is contained in outer.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise NotSublattice("ambient dimensions differ")
    rel = _solve(outer._hermite, inner.basis.columns())
    if rel is None:
        raise NotSublattice("inner lattice is not contained in the outer one")
    u, d = smith_normal_form(_from_columns(rel, outer.rank))
    diag = tuple(d[i, i] if i < d.cols else 0 for i in range(outer.rank))
    return FgAbGroup(free_rank=diag.count(0), torsion=tuple(x for x in diag if x >= 2),
                     _outer=outer, _inner=inner, _row_transform=u, _diag=diag)


# ---------------------------------------------------------------------------
# Degree-2 bases
# ---------------------------------------------------------------------------


def pair_basis(n: int, strict: bool) -> list[tuple[int, int]]:
    """Index pairs (i, j) with i<j (strict) or i<=j, in lexicographic order."""
    if strict:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i in range(n) for j in range(i, n)]
