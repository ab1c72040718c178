"""Low-degree integral cohomology of K and of the flag manifold B = K/T.

For a principal torus bundle over a simply connected base with torsion-free
cohomology, the degree-3 cohomology of the total space is the middle
cohomology of a three-term lattice complex

    wedge^2(chars)  -->  chars (x) weights  -->  sym^2(weights) / invariants

with differentials d(x ^ y) = y (x) r(x) - x (x) r(y) and
d(x (x) w) = r(x) * w, where r is restriction of characters along the
inclusion of the coroot lattice into the integral lattice (in our
coordinates r is literally "read the character in weight coordinates").

The complex also yields the Chern classes of K -> B and the cycle test
deciding which hom-lattice elements represent degree-3 classes.  The other
groups `cohomology` reports need no complex: H^1 of the group vanishes and
H^2 is coker X, read off the Smith form of X; the base has free cohomology
in even degrees, H^2 the weights and H^4 sym^2(weights) / invariants.

A middle-term element is a twist: an n x n matrix u from integral-lattice
to weight coordinates.  With X the character basis (columns in weight
coordinates, kept on the datum as `RootDatum.character_basis`), the
cycle test and the boundary map are matrix algebra on u and X.  A
quadratic polynomial in the weights is held as its symmetric matrix S (the
polynomial w^T S w / 2); the invariant with coordinates c, c_k times
factor k's primitive basic form, is S = `form_pairing(rd, c, A)`, so the
cycle test reads one coordinate per factor off S and nothing is indexed by
the n(n+1)/2 monomials.  A class prints as those coordinates c (a level-K
twist has c_k = 2K on every factor), and one torsion coordinate
per pair i < j with d_i > 1, read off the one Smith form U X V = diag(d)
(see `h3_group`), so nothing is indexed by the n^2 tensor coordinates
and no second normal form is taken.

Basis conventions are fixed once: the character lattice carries the basis
dual to the integral lattice's preferred basis, and invariant coordinates
follow the simple factors in order.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .errors import TdualError
from .rootdata import RootDatum, form_pairing, fundamental_group_of
from .zlinalg import IntMatrix


@lru_cache(maxsize=1)
def invariant_coords(rd: RootDatum, u: IntMatrix) -> tuple[IntMatrix, tuple[int, ...] | None]:
    """M = X u^T for the twist u (integral-lattice coordinates to weight
    coordinates), and the invariant coordinates c of its quadratic
    polynomial (M_ii on w_i^2, M_ij + M_ji on w_i w_j), None when that
    polynomial is not Weyl-invariant.  Cached per twist; public, as it is
    the cache a per-layer trace reads flagcoh's hit ratio off.

    Over Q each simple factor has one invariant of degree 2, its basic form
    (Bourbaki, Lie Groups ch. VI).  Weight coordinates read coroot
    coordinates, so with G the level-1 `form_pairing` on A it is the
    polynomial sum_i G_ii w_i^2 + sum_{i<j} 2 G_ij w_i w_j on its factor's
    block.  Supports are disjoint, so the invariants are spanned, saturated,
    by these polynomials each divided by the gcd of its coefficients, which
    is 2 on every factor, Langlands duals included: a long simple coroot has
    G_ii = 2, and every G_ii = 2 eps_i and 2 G_ij is even.  So u is a cycle
    exactly when S = M + M^T is S_c = `form_pairing(rd, c, A)`: c_k is read
    off S[lo, lo] = 2 eps_lo c_k, lo the first index of factor k, and one
    comparison checks the rest."""
    n = rd.rank
    if u.rows != n or u.cols != n:
        raise TdualError(f"twist matrix must be {n}x{n} for {rd.label}")
    m = rd.character_basis @ u.transpose()
    s, eps = m + m.transpose(), rd.epsilons
    c = tuple(s[lo, lo] // (2 * eps[lo]) for lo, _, _, _ in rd.factor_ranges())
    return m, c if s == form_pairing(rd, c, rd.cartan) else None


def is_cycle(rd: RootDatum, u: IntMatrix) -> bool:
    """True when the twist u is a cycle: the second differential sends it to
    the quadratic polynomial of M = X u^T, which must be Weyl-invariant."""
    return invariant_coords(rd, u)[1] is not None


def require_cycle(rd: RootDatum, u: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """`invariant_coords` of u, raising TdualError when u is not a cycle."""
    m, c = invariant_coords(rd, u)
    if c is None:
        raise TdualError(f"twist is not a cycle for {rd.label}")
    return m, c


def boundary(rd: RootDatum, s: IntMatrix) -> IntMatrix:
    """Twist matrix of the boundary of sum_{a<b} s_ab x_a ^ x_b.

    d(x_a ^ x_b) = x_b (x) r(x_a) - x_a (x) r(x_b) is X(E_ab - E_ba), so the
    sum is X(S - S^T); only the antisymmetric part of s counts.
    """
    return rd.character_basis @ (s - s.transpose())


# ---------------------------------------------------------------------------
# Cohomology groups
# ---------------------------------------------------------------------------


def h3_group(rd: RootDatum) -> tuple[int, tuple[int, ...]]:
    """(f, torsion): H^3 of the group, f the number of simple factors and the
    torsion wedge^2 pi_1 as a divisor chain, each p_a of pi_1 repeated once
    for every later factor.

    Let U X V = diag(d) be the Smith form of the character basis
    (`rd.character_smith`); pi_1 is the suffix d_lo..d_n-1 of d with d_i > 1.
    d does not depend on which Smith basis U is taken; the torsion
    coordinates N_ij are relative to U, and any Smith U gives an isomorphic
    coordinate system.  Put N = U M U^T for M = X u^T.  The twist u =
    (X^-1 M)^T is integral exactly when row i of N is divisible by d_i, and
    a cycle exactly when N + N^T = U S_c U^T for some c, S_c =
    `form_pairing(rd, c, A)` the symmetric matrix of the invariant
    polynomial with invariant coordinates c (see `invariant_coords`).  S_c
    has an even diagonal, so U S_c U^T = 2T(c) with T(c)_ii an integer.  So
    c and N_ij (i < j) fix N, subject to T(c)_ii = 0 mod d_i, N_ij = 0 mod
    d_i and 2T(c)_ij = N_ij mod d_j.  Row j of U, read as a coroot, pairs
    with every character into d_j Z (U X = D V^-1), so it is d_j times a
    coweight; and S_c A^-1 = diag(c_a eps_a) is integral, so S_c pairs
    coroots with coweights into Z.  So 2T(c)_ij = 0 mod d_j, and as d_i |
    d_j the pair congruences are N_ij = 0 mod d_j.  The boundaries are the
    N = D A D, A integral and antisymmetric: N_ij in d_i d_j Z, and c = 0.
    So the cycles modulo the boundaries split as the free lattice of the c
    with T(c)_ii = 0 mod d_i, of finite index in Z^f, plus d_j Z / d_i d_j Z
    over the pairs lo <= i < j, which is Z/d_i; pairs with d_i = 1 carry no
    class.
    """
    pi1 = fundamental_group_of(rd)
    return len(rd.components), tuple(p for a, p in enumerate(pi1) for _ in pi1[a + 1:])


def chern_classes(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Chern classes of K -> B: c_k is the restriction of the k-th character
    basis vector, in weight coordinates through the transgression
    isomorphism."""
    return tuple(rd.character_basis.columns())


def class_in_h3(rd: RootDatum, u: IntMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(free, torsion) coordinates of [u] in H^3 (see `h3_group`): the
    invariant coordinates c of u, and N_ij / d_j mod d_i over the pairs
    lo <= i < j, lo = n - len(pi_1), N = U X u^T U^T relative to the Smith
    basis U.  With T rows lo..n-1 of U, those entries are the columns of
    T (T[:-1] M)^T, so only U's torsion rows are multiplied."""
    m, c = require_cycle(rd, u)
    pi1, U = fundamental_group_of(rd), rd.character_smith[0]
    if len(pi1) <= 1:
        return c, ()
    rows = U.tolist()[rd.rank - len(pi1):]
    nt = IntMatrix(rows, cols=U.cols) @ (IntMatrix(rows[:-1], cols=U.cols) @ m).transpose()
    return c, tuple(nt[b, a] // pi1[b] % p
                    for a, p in enumerate(pi1) for b in range(a + 1, len(pi1)))


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------


# Every degree-3 class on K, for every datum alike, sits in the second
# filtration step, so a T-dual always exists; the notes name the two pieces.
#
# The (1,2) piece vanishes because the flag base has no odd cohomology.  The
# (0,3) piece is the kernel of the wedge^3 differential (r (x) id) o Delta_3,
# and d20 is, up to sign, (id (x) r) o Delta_2, where Delta_k: wedge^k ->
# V (x) wedge^(k-1) is the comultiplication x_1^...^x_k -> sum_i (-1)^(i-1)
# x_i (x) (x_1^..^x_i-hat^..^x_k).  The wedge product m: V (x) wedge^(k-1) ->
# wedge^k satisfies m o Delta_k = k * id, so Delta_k is injective over Q.
# Each composite is then injective over Q whenever r is, and a map of free
# Z-modules that is injective over Q has zero kernel.  So both kernels, and
# H^1 = ker r, vanish once the character basis X has full rank.  It has, for
# every RootDatum: the integral basis B has n independent columns and
# B X^T = A, which is nonsingular, so nothing is left to check.
DUALIZABILITY_NOTES = (
    "flag base has no degree-1 or degree-3 cohomology, so the (1,2) "
    "graded piece vanishes and the filtration ends at the hom-lattice term",
    "wedge^3 differential has kernel rank 0, so the (0,3) graded piece vanishes",
    "hence H^3 of the total space equals its second filtration step: "
    "every class admits a hom-lattice representative",
)


def group_dict(free_rank: int, torsion: Iterable[int] = ()) -> dict:
    """JSON rendering of the group Z^free_rank + Z/t_1 + Z/t_2 + ..."""
    torsion = list(torsion)
    parts = ["Z"] * free_rank + [f"Z/{d}" for d in torsion]
    return {"free_rank": free_rank, "invariant_factors": torsion,
            "pretty": " + ".join(parts) if parts else "0"}


def cohomology(rd: RootDatum) -> dict:
    """H^1..H^3 of the group and H^2, H^4 of the base, read off data already
    in hand.  Restriction X is injective (see DUALIZABILITY_NOTES), so H^1
    = 0 and H^2 = coker X, whose invariant factors are those of pi_1, read
    off the Smith form behind `h3_group`.  The flag manifold has free
    cohomology concentrated in even degrees (Bott-Samelson), with H^2 the
    weights and H^4 sym^2 of the weights modulo the invariants.  Those are
    saturated and of rank the number of simple factors (`invariant_coords`),
    so the quotient is free of rank n(n+1)/2 minus that number, and
    `H4_B_torsion_discrepancy` is always false."""
    n, (free, torsion) = rd.rank, h3_group(rd)
    return {
        "group": rd.label,
        "H1_K": group_dict(0),
        "H2_K": group_dict(0, fundamental_group_of(rd)),
        "H3_K": group_dict(free, torsion),
        "H2_B": group_dict(rd.rank),
        "H4_B": group_dict(n * (n + 1) // 2 - len(rd.components)),
        "chern_classes": [list(c) for c in chern_classes(rd)],
        "filtration_notes": [
            "H^3 of the group is presented by hom-lattice representatives "
            "(second filtration step); see the dualizability report",
            "H^2 of the group is the cokernel of character restriction "
            "(the degree-(0,2) edge piece vanishes)",
        ],
        "H4_B_torsion_discrepancy": False,
    }
