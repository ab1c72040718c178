"""Exact integer linear algebra over Z.

Everything here is plain Python integers, so intermediate entries may grow
without bound (Smith normal form blows up fixed-width arithmetic quickly).
The module provides:

  * IntMatrix       -- immutable arbitrary-precision integer matrices, with
    one product `@`, whose work follows its left factor's nonzeros,
  * smith_normal_form (U and the diagonal d) / column_hermite_form --
    normal forms,
  * solve_columns -- integer solves (sublattice membership).

A lattice is the IntMatrix whose columns are a basis of it.

One elimination core does only the work its callers read:

  * `_echelon`, row-style echelon elimination on the columns (or rows) of
    a matrix, lets trailing entries ride along to record a transform, and
    leaves the entries above each pivot as they fall.  column_hermite_form,
    their one reader, reduces them afterwards and tracks no transform;
    solve_columns keeps the echelon columns H = B T together with T.
  * smith_normal_form alternates `_echelon` on the rows of m, U riding
    along, and on its columns, tracking no V, until m is diagonal.  d is
    unique; U is one Smith basis of many, so coordinates read through it
    (the torsion of an H^3 class) are relative to it, and any Smith U
    gives an isomorphic coordinate system.

Canonical forms: sublattices are compared through the column-style Hermite
form (unique).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

from .errors import TdualError


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
            raise TdualError("ragged rows in matrix")
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
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int = 0) -> "IntMatrix":
        """The matrix with these columns; `rows` sizes it when there are none."""
        if any(len(c) != len(columns[0]) for c in columns):
            raise TdualError("columns of different lengths")
        return cls(zip(*columns), cols=len(columns)) if columns else cls.zero(rows, 0)

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

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
        """Row i of the product is the sum of the rows of `other` picked by
        the nonzero entries of row i of self, each times its entry: the work
        follows self's nonzeros, so the sparser factor goes on the left."""
        if self.cols != other.rows:
            raise TdualError(f"cannot multiply {self._shape} by {other._shape}")
        out = []
        for row in self._rows:
            acc = [0] * other.cols
            for a, picked in zip(row, other._rows):
                if a:
                    acc = [x + a * y for x, y in zip(acc, picked)]
            out.append(acc)
        return IntMatrix._of(out, other.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self._shape != other._shape:
            raise TdualError("shape mismatch in addition")
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


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise TdualError("row mismatch in hstack")
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


# ---------------------------------------------------------------------------
# The elimination core
# ---------------------------------------------------------------------------


def _echelon(rows: list[list[int]], width: int) -> list[int]:
    """Row-style echelon elimination, in place, on the first `width` entries.

    Row operations are unimodular, so entries past `width` ride along as
    their record.  Returns the pivot columns: rows[:r] (r pivots) are an
    echelon basis of the span with positive pivots, the entries above a
    pivot left as they fall, and rows[r:] vanish on the first `width`
    entries.  Rows from the pivot down are zero left of column c, so
    operations touch the slice from c on.
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
        pivots.append(c)
    return pivots


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(x, y) = s x + t y, for x, y > 0."""
    s, s1, t, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y, s, s1, t, t1 = y, x - q * y, s1, s - q * s1, t1, t - q * t1
    return x, s, t


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """(U, d) with U*m*V = diag(d) for some unimodular V: U is unimodular
    and d, of length min(R, C) for an R x C matrix m, holds nonnegative
    entries d1 | d2 | ..., zeros last.  d is unique; U is one Smith basis
    of many, and any other gives an isomorphic coordinate system.

    `_echelon` runs on the rows of [m | U], U riding along, then on the
    columns of m alone, which tracks no V, until m is diagonal: the rows
    past the rank stay zero, so the column pivots sit on the diagonal.  A
    round ends with the leading pivot alone in its row and column, or with
    it replaced by a proper divisor, so the rounds stop.  Each pair (x, y)
    of the diagonal with x not dividing y then becomes (gcd, lcm) by one
    unimodular row step on U, the column steps that finish it again left
    to V.
    """
    R, C = m.rows, m.cols
    a = [list(r) + e for r, e in zip(m, _identity_lists(R))]
    while True:
        _echelon(a, C)
        cols = [list(c) for c in zip(*(r[:C] for r in a))]
        d = [c[j] for j, c in zip(_echelon(cols, R), cols)]
        if not any(any(c[j + 1:]) for j, c in enumerate(cols)):
            break
        for r, new in zip(a, zip(*cols)):
            r[:C] = new
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x, y = d[i], d[j]
            if y % x:
                g, s, t = _xgcd(x, y)
                ui, uj = a[i][C:], a[j][C:]
                a[i][C:] = [s * p + t * q for p, q in zip(ui, uj)]
                a[j][C:] = [(x // g) * q - (y // g) * p for p, q in zip(ui, uj)]
                d[i], d[j] = g, x // g * y
    return IntMatrix._of((r[C:] for r in a), R), tuple(d) + (0,) * (min(R, C) - len(d))


def column_hermite_form(m: IntMatrix) -> IntMatrix:
    """Canonical column form of the lattice spanned by the columns of m.

    Zero columns are dropped, so the result's columns are a basis.  The form
    is the transpose of the (unique) row Hermite normal form of m^T: pivots
    positive, one pivot per echelon row, and entries left of a pivot reduced
    into [0, pivot).  Equal column spans give equal output, which is what
    makes lattice equality plain data equality.  The entries above each
    pivot of `_echelon`'s rows are reduced here, in increasing pivot order;
    rows from a pivot down never read the rows above it, so this is the
    form a reduction inside the elimination would give.
    """
    h = [list(col) for col in m.columns()]
    pivots = _echelon(h, m.rows)
    for r, c in enumerate(pivots):
        tail = h[r][c:]
        for row in h[:r]:
            if q := row[c] // tail[0]:
                row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
    return IntMatrix.from_columns(h[:len(pivots)], m.rows)


def solve_columns(basis: IntMatrix, targets: IntMatrix) -> IntMatrix | None:
    """Solve basis @ X = targets over the integers, or return None.

    Used for sublattice membership: the columns of `targets` lie in the
    Z-span of the columns of `basis` exactly when a solution exists.  The
    columns of the n x k matrix `basis` are put in echelon form, each
    followed by t_j with basis @ t_j = h_j riding along; each target is
    reduced down the echelon columns h_j, and the t_j of the columns used
    add up to its solution.
    """
    if basis.rows != targets.rows:
        raise TdualError("ambient dimensions differ")
    n, k = basis.rows, basis.cols
    rows = [list(col) + e for col, e in zip(basis.columns(), _identity_lists(k))]
    pivots = _echelon(rows, n)
    out = []
    for y in map(list, targets.columns()):
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
    return IntMatrix.from_columns(out, k)
