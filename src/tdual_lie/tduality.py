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

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch, NotACycle, Unavailable
from .flagcoh import build_complex, class_in_h3
from .rootdata import (
    RootDatum,
    form_pairing,
    langlands_dual,
    require_phi,
    weyl_elements_on_coweights,
)
from .zlinalg import (
    FgAbGroup,
    IntMatrix,
    Lattice,
    column_hermite_form,
    image_basis,
    subquotient,
)

TWIST_BASIS_CONVENTION = (
    "chat_k = u(lambda_k) in weight coordinates; lambda_k = preferred basis "
    "of the integral lattice (simple coroots when simply connected)"
)


@dataclass(frozen=True)
class TwistClass:
    """Hom-lattice twist representative u: integral lattice -> weights."""

    rd: RootDatum
    matrix: IntMatrix

    def __post_init__(self):
        n = self.rd.rank
        if self.matrix.rows != n or self.matrix.cols != n:
            raise DimensionMismatch("twist matrix must be rank x rank")

    def is_cycle(self) -> bool:
        return build_complex(self.rd).is_cycle(self.matrix)

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


@dataclass(frozen=True)
class ShiftMatrix:
    """Strictly upper-triangular integer matrix of torsor-shift coefficients."""

    entries: IntMatrix

    def __post_init__(self):
        m = self.entries
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
    cx = build_complex(twist.rd)
    coeffs = [shift.entries[i, j] for (i, j) in cx.wedge_pairs]
    return TwistClass(twist.rd, twist.matrix + cx.boundary_of(coeffs))


def reduction_torsor_group(rd: RootDatum) -> FgAbGroup:
    """The group acting simply transitively on reductions with a fixed
    class: boundaries inside the hom lattice (free, of wedge-square rank)."""
    cx = build_complex(rd)
    return subquotient(Lattice.zero(cx.c1_rank()), image_basis(cx.d20))


# ---------------------------------------------------------------------------
# Langlands duality
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _langlands_transport(rd: RootDatum) -> IntMatrix:
    """Pullback matrix from dual-side weight coordinates to weight
    coordinates whose induced twist is a cycle.

    The diagram isomorphism fixes the matrix up to composition with a Weyl
    element; for non-simply-laced self-dual factors the identity composition
    symmetrizes to a non-invariant form, so we take the first Weyl element
    (in word-length order) whose composite passes the cycle test.  The dual
    Chern lattice does not depend on this choice (the integral lattice is
    Weyl-stable), the cycle property does.
    """
    perm = require_phi(rd)
    pullback = IntMatrix([[int(p == j) for j in range(rd.rank)] for p in perm], cols=rd.rank)
    cx = build_complex(rd)
    for w in weyl_elements_on_coweights(rd):
        transport = pullback @ w
        if cx.is_cycle(transport @ rd.integral.basis):
            return transport
    raise Unavailable(
        f"no Weyl refinement of the diagram isomorphism yields a cycle for {rd.label}",
        evidence={"permutation": perm},
    )


def langlands_twist(rd: RootDatum) -> TwistClass:
    """The twist whose T-dual is the Langlands dual group: compose the
    inclusion of the integral lattice into the dual-side weight lattice with
    the (Weyl-refined) diagram-isomorphism pullback."""
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
