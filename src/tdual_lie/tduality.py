"""T-dual bundle data: dual Chern classes, torsor shifts, Langlands duals.

A twist representative is a homomorphism u from the integral lattice to the
weight lattice (an integer matrix in the fixed preferred/dual bases).  Its
image sublattice determines the T-dual torus bundle; two representatives of
the same degree-3 class differ by a boundary, and moving a representative
by the boundary of sum_{i<j} B_ij x_i ^ x_j shifts the dual Chern classes
by the exact integer formula

    chat_k' - chat_k = sum_{i<k} B_ik c_i - sum_{k<j} B_kj c_j.

Dual bundles are compared as canonical sublattices of the weight lattice
(generator choices are not unique); Chern-class tuples use the convention
chat_k = u(lambda_k) for the fixed integral-lattice basis.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DimensionMismatch, NotACycle
from .flagcoh import boundary, class_in_h3, is_cycle
from .rootdata import RootDatum, form_pairing, langlands_dual, require_phi
from .zlinalg import IntMatrix, Record, column_hermite_form

TWIST_BASIS_CONVENTION = (
    "chat_k = u(lambda_k) in weight coordinates; lambda_k = preferred basis "
    "of the integral lattice (simple coroots when simply connected)"
)


class TwistClass(Record):
    """Hom-lattice twist representative u: integral lattice -> weights."""

    _fields = ("rd", "matrix")

    def __init__(self, rd: RootDatum, matrix: IntMatrix):
        self.rd, self.matrix = rd, matrix
        n = self.rd.rank
        if self.matrix.rows != n or self.matrix.cols != n:
            raise DimensionMismatch("twist matrix must be rank x rank")

    def is_cycle(self) -> bool:
        return is_cycle(self.rd, self.matrix)

    def h3_class(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return class_in_h3(self.rd, self.matrix)


def level_twist(rd: RootDatum, level: int) -> TwistClass:
    """Twist induced by the invariant form: u = level * <., .> restricted to
    the integral lattice.  Always a cycle (the form is Weyl-invariant)."""
    return TwistClass(rd, form_pairing(rd, level, rd.integral.basis))


def dual_chern(twist: TwistClass) -> dict:
    """Chern data of the T-dual bundle attached to a cycle representative:
    the canonical image sublattice and the basis-convention Chern tuple."""
    if not twist.is_cycle():
        raise NotACycle(f"twist is not a cycle for {twist.rd.label}")
    u = twist.matrix
    return {
        "dual_chern_lattice": column_hermite_form(u).tolist(),
        "dual_chern_classes": [list(u.column(k)) for k in range(u.cols)],
        "basis_convention": TWIST_BASIS_CONVENTION,
    }


class ShiftMatrix(Record):
    """Strictly upper-triangular integer matrix of torsor-shift coefficients."""

    _fields = ("entries",)

    def __init__(self, entries: IntMatrix):
        self.entries = m = entries
        if m.rows != m.cols:
            raise DimensionMismatch("shift matrix must be square")
        for i in range(m.rows):
            for j in range(m.cols):
                if j <= i and m[i, j] != 0:
                    raise DimensionMismatch("shift entries live strictly above the diagonal")

    @classmethod
    def from_rows(cls, rows) -> "ShiftMatrix":
        return cls(IntMatrix(rows))

    @classmethod
    def zero(cls, n: int) -> "ShiftMatrix":
        return cls(IntMatrix.zero(n, n))

    def __add__(self, other: "ShiftMatrix") -> "ShiftMatrix":
        return ShiftMatrix(self.entries + other.entries)

    def __neg__(self) -> "ShiftMatrix":
        return ShiftMatrix(self.entries.scale(-1))


def bfield_shift(chat: tuple[tuple[int, ...], ...], shift: ShiftMatrix,
                 c: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Dual Chern classes after moving the reduction by the shift datum."""
    n = len(chat)
    if len(c) != n or shift.entries.rows != n:
        raise DimensionMismatch("shift and Chern data sizes disagree")
    dim = len(chat[0]) if n else 0
    if any(len(v) != dim for v in c):
        raise DimensionMismatch("Chern class vectors live in different spaces")
    b = shift.entries
    out = []
    for k in range(n):
        acc = list(chat[k])
        for i in range(k):
            for t in range(dim):
                acc[t] += b[i, k] * c[i][t]
        for j in range(k + 1, n):
            for t in range(dim):
                acc[t] -= b[k, j] * c[j][t]
        out.append(tuple(acc))
    return tuple(out)


def reduction_torsor_shift(twist: TwistClass, shift: ShiftMatrix) -> TwistClass:
    """Act on a reduction by a shift datum: u moves by the boundary of
    sum B_ij x_i ^ x_j, the degree-3 class stays put, and the dual Chern
    data moves by `bfield_shift`."""
    if not twist.is_cycle():
        raise NotACycle(f"twist is not a cycle for {twist.rd.label}")
    return TwistClass(twist.rd, twist.matrix + boundary(twist.rd, shift.entries))


# ---------------------------------------------------------------------------
# Langlands duality
# ---------------------------------------------------------------------------


# The Weyl word of each self-dual factor that Dynkin reversal matches to
# itself, on its own simple reflections, leftmost letter applied last.
_SELF_DUAL_WORDS = {("B", 2): (0,), ("C", 2): (0,), ("G", 2): (0,), ("F", 4): (0, 1, 2, 0, 1, 0)}


@lru_cache(maxsize=None)
def _langlands_transport(rd: RootDatum) -> IntMatrix:
    """Pullback P.w from dual-side weight coordinates to weight coordinates
    whose induced twist is a cycle.  P is the Dynkin isomorphism
    `require_phi`; w is block-diagonal over the simple factors, in coweight
    coordinates: the identity on a simply laced factor; on B2, C2, G2 and F4
    the word in `_SELF_DUAL_WORDS` (s_0 is the factor's first simple root,
    long on data from `build`, short on a Langlands dual: chosen by
    position, not length); on a B_n or C_n with n >= 3, which `find_phi`
    always pairs with another factor, -1 when it is the lower of the pair.

    The twist P.w.B is the map P.w from coweights to weights whatever the
    basis B, so the cycle test asks that the symmetric part of
    beta(v, v') = <P.w v, v'> be a sum of the factors' basic forms.  This
    splits over the orbits of the factor permutation, which have length 1
    or 2 (the greedy matching pairs the k-th B_n with the k-th C_n).  On a
    simply laced factor beta is the basic form.  On a pair beta vanishes on
    each member, and with w = 1 its two cross blocks are transposes of each
    other (as the matched Cartan blocks are), so beta is symmetric and not
    invariant; w0 = -1 on one member flips the sign of one cross block, so
    beta is antisymmetric and its symmetric part zero.  The words are the
    first passing elements of a BFS over the lone factor's Weyl group.  That
    w is also the first passing element of the product BFS in word-length
    order, which `langlands` prints as the twist, is not proved here: the
    property test against that BFS carries it.
    """
    perm = require_phi(rd)
    w = IntMatrix.identity(rd.rank).tolist()
    flip = set()
    for lo, hi, series, r in rd.factor_ranges():
        for i in _SELF_DUAL_WORDS.get((series, r), ()):
            a = rd.cartan.column(lo + i)  # w s_i = w - (w a_i) e_i^T changes one column
            for row in w:
                row[lo + i] -= sum(x * y for x, y in zip(row, a))
        if series in "BC" and r > 2 and perm[lo] > lo:
            flip.update(range(lo, hi))
    transport = IntMatrix([[-x for x in w[p]] if p in flip else w[p] for p in perm],
                          cols=rd.rank)
    if not is_cycle(rd, transport @ rd.integral.basis):
        raise AssertionError(f"the Langlands transport rule gives no cycle for {rd.label}")
    return transport


def langlands_twist(rd: RootDatum) -> TwistClass:
    """The twist whose T-dual is the Langlands dual group: compose the
    inclusion of the integral lattice into the dual-side weight lattice with
    the Weyl-adjusted diagram-isomorphism pullback."""
    return TwistClass(rd, _langlands_transport(rd) @ rd.integral.basis)


def verify_langlands_tdual(rd: RootDatum) -> dict:
    """Two-sided check that the Langlands twist T-dualizes onto the dual
    group: the image lattice of the twist must coincide with the transported
    character lattice of the dual torus, both in canonical form.

    A mismatch is a defect indicator, not a user error; it is reported with
    both lattices.
    """
    twist = langlands_twist(rd)  # raises Unavailable without an isomorphism
    mine = column_hermite_form(twist.matrix)
    dual_rd = langlands_dual(rd)
    expected = column_hermite_form(_langlands_transport(rd) @ dual_rd.char_lattice().basis)
    return {
        "group": rd.label,
        "dual_group": dual_rd.label,
        "available": True,
        "match": mine == expected,
        "twist": twist.matrix.tolist(),
        "dual_chern_lattice": mine.tolist(),
        "expected_lattice": expected.tolist(),
    }
