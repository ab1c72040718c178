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
chat_k = u(lambda_k) for the fixed integral-lattice basis.  The Langlands
twist's T-dual is a group when its image lattice holds the roots, which the
Langlands report checks on that one lattice, building no dual datum.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .flagcoh import boundary, is_cycle, require_cycle
from .rootdata import _SELF_DUAL_WORDS, RootDatum, _dual_label, form_pairing, require_phi
from .zlinalg import IntMatrix, column_hermite_form, solve_columns

TWIST_BASIS_CONVENTION = (
    "chat_k = u(lambda_k) in weight coordinates; lambda_k = preferred basis "
    "of the integral lattice (simple coroots when simply connected)"
)


def level_twist(rd: RootDatum, level: int) -> IntMatrix:
    """Twist induced by the invariant form: u = level * <., .> restricted to
    the integral lattice.  Always a cycle (the form is Weyl-invariant)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    return form_pairing(rd, (level,) * len(rd.components), rd.integral)


def dual_chern(rd: RootDatum, u: IntMatrix) -> dict:
    """Chern data of the T-dual bundle attached to a cycle representative:
    the canonical image sublattice and the basis-convention Chern tuple."""
    require_cycle(rd, u)
    return {
        "dual_chern_lattice": column_hermite_form(u).tolist(),
        "dual_chern_classes": [list(col) for col in u.columns()],
        "basis_convention": TWIST_BASIS_CONVENTION,
    }


def shift_matrix(m: IntMatrix) -> IntMatrix:
    """m, checked to be a square, strictly upper-triangular matrix of
    torsor-shift coefficients."""
    if m.rows != m.cols:
        raise DimensionMismatch("shift matrix must be square")
    if any(m[i, j] for i in range(m.rows) for j in range(i + 1)):
        raise DimensionMismatch("shift entries live strictly above the diagonal")
    return m


def reduction_torsor_shift(rd: RootDatum, u: IntMatrix, shift: IntMatrix) -> IntMatrix:
    """Act on a reduction by a shift datum: u moves by the boundary of
    sum B_ij x_i ^ x_j, the degree-3 class stays put, and the dual Chern
    data, the columns of u, move by chat_k' - chat_k = sum_{i<k} B_ik c_i -
    sum_{k<j} B_kj c_j."""
    require_cycle(rd, u)
    return u + boundary(rd, shift_matrix(shift))


# ---------------------------------------------------------------------------
# Langlands duality
# ---------------------------------------------------------------------------


def langlands_twist(rd: RootDatum) -> IntMatrix:
    """The twist P.w.B whose T-dual is the Langlands dual group: the
    inclusion B of the integral lattice into the dual-side weight lattice,
    followed by the pullback P.w from dual-side weight coordinates to weight
    coordinates, checked to be a cycle.  P is the Dynkin isomorphism
    `require_phi`; w is block-diagonal over the simple factors, in coweight
    coordinates: the identity on a simply laced factor; on B2, C2, G2 and F4
    the word in `_SELF_DUAL_WORDS` (s_0 is the factor's first simple root,
    long on data from `build`, short on a Langlands dual: chosen by
    position, not length); -1 on the lower member of each B_n/C_n pair that
    `require_phi` makes (n >= 3), the factors P sends past their own range
    (P[lo] = hi - 1 on a reversed factor, lo on an unmoved one).  Neither
    is formed: each letter, last first, is s_i.B = B - a_i (x) (row i of B)
    on its factor's rows, and P then reorders the rows.

    The twist is the map P.w from coweights to weights whatever the basis B,
    so the cycle test asks that the symmetric part of beta(v, v') =
    <P.w v, v'> be a sum of the factors' basic forms.  This splits over the
    orbits of the factor permutation, which have length 1 or 2 (the k-th
    B_n with the k-th C_n).  On a simply laced factor beta is the basic
    form.  On a pair beta vanishes on each member, and with w = 1 its two
    cross blocks are transposes of each other (as the paired Cartan blocks
    are), so beta is symmetric and not invariant; w0 = -1 on one member
    flips the sign of one cross block, so beta is antisymmetric and its
    symmetric part zero.  The words are the first passing elements of a BFS
    over the lone factor's Weyl group.  That w is also the first passing
    element of the product BFS in word-length order, which `langlands`
    prints as the twist, is not proved here: the property test against that
    BFS carries it.  A twist that fails the cycle test is a defect of this
    rule, not of the input, and raises AssertionError.
    """
    perm = require_phi(rd)
    rows, flip = rd.integral.tolist(), set()
    for lo, hi, series, r in rd.factor_ranges():
        for i in reversed(_SELF_DUAL_WORDS.get((series, r), ())):
            a, top = rd.cartan.column(lo + i), rows[lo + i]
            for k in range(lo, hi):
                if a[k]:
                    rows[k] = [x - a[k] * y for x, y in zip(rows[k], top)]
        if perm[lo] >= hi:
            flip.update(range(lo, hi))
    twist = IntMatrix([[-x for x in rows[p]] if p in flip else rows[p] for p in perm],
                      cols=rd.rank)
    if not is_cycle(rd, twist):
        raise AssertionError(f"the Langlands transport rule gives no cycle for {rd.label}")
    return twist


def verify_langlands_tdual(rd: RootDatum) -> dict:
    """The Langlands report: the twist, its image lattice L in canonical
    form, and whether the T-dual is a group.

    `match` asks that L contain the root lattice (the simple roots are the
    rows of A): then the T-dual is a compact group over the same flag
    manifold, whose character lattice is L (Daenzer-van Erp).  This reads
    the transport P.w, since L = P.w.im B.  The dual datum is not built:
    its character basis is B itself (B X^T = A transposes to the dual's
    solve X B^T = A^T), so its transported character lattice is L again,
    and `expected_lattice` prints L; `dual_group` is the label
    `langlands_dual` gives.  A false `match` is a defect indicator, not a
    user error.
    """
    twist = langlands_twist(rd)  # raises Unavailable without an isomorphism
    mine = column_hermite_form(twist)
    return {
        "group": rd.label,
        "dual_group": _dual_label(rd),
        "available": True,
        "match": solve_columns(mine, rd.cartan.transpose()) is not None,
        "twist": twist.tolist(),
        "dual_chern_lattice": mine.tolist(),
        "expected_lattice": mine.tolist(),
    }
