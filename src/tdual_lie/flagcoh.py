"""Low-degree integral cohomology of K and of the flag manifold B = K/T.

For a principal torus bundle over a simply connected base with torsion-free
cohomology, the degree-3 cohomology of the total space is the middle
cohomology of a three-term lattice complex

    wedge^2(chars)  -->  chars (x) weights  -->  sym^2(weights) / invariants

with differentials d(x ^ y) = y (x) r(x) - x (x) r(y) and
d(x (x) w) = r(x) * w, where r is restriction of characters along the
inclusion of the coroot lattice into the integral lattice (in our
coordinates r is literally "read the character in weight coordinates").

The complex also yields H^1 and H^2 of the group (edge terms), H^2 and H^4
of the base, the Chern classes of K -> B, and the cycle test deciding which
hom-lattice elements represent degree-3 classes.

A middle-term element is a twist: an n x n matrix u from integral-lattice
to weight coordinates.  With X the character basis (columns in weight
coordinates), the cycle test and the boundary map are matrix algebra on u
and X; only the H^3 presentation flattens u into the n^2 tensor coordinates.

Basis conventions are fixed once: the character lattice carries the basis
dual to the integral lattice's preferred basis, tensor bases are ordered
lexicographically (character index major), monomials w_i w_j use i <= j.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd

from .errors import DimensionMismatch, NotACycle
from .rootdata import RootDatum, form_pairing
from .zlinalg import (
    FgAbGroup,
    IntMatrix,
    Lattice,
    column_hermite_form,
    hstack,
    image_basis,
    kernel_of_matrix,
    pair_basis,
    subquotient,
)


def is_cycle(rd: RootDatum, u: IntMatrix) -> bool:
    """True when the twist u (integral-lattice coordinates to weight
    coordinates) is a cycle: the second differential sends it to the
    quadratic polynomial of M = X u^T, which must be Weyl-invariant."""
    n = rd.rank
    if u.rows != n or u.cols != n:
        raise DimensionMismatch(f"twist matrix must be {n}x{n} for {rd.label}")
    m = rd.char_lattice().basis @ u.transpose()
    poly = [m[i, i] if i == j else m[i, j] + m[j, i] for i, j in pair_basis(n, strict=False)]
    return sym_invariants(rd).contains(poly)


def boundary(rd: RootDatum, s: IntMatrix) -> IntMatrix:
    """Twist matrix of the boundary of sum_{a<b} s_ab x_a ^ x_b.

    d(x_a ^ x_b) = x_b (x) r(x_a) - x_a (x) r(x_b) is X(E_ab - E_ba), so the
    sum is X(S - S^T); only the antisymmetric part of s counts.
    """
    return rd.char_lattice().basis @ (s - s.transpose())


@lru_cache(maxsize=None)
def sym_invariants(rd: RootDatum) -> Lattice:
    """Weyl-invariant sublattice of sym^2 of the weight lattice, in closed form.

    Over Q each simple factor has exactly one invariant of degree 2, its
    basic form (Bourbaki, Lie Groups ch. VI).  The weight coordinates w_i
    read coroot coordinates, so the level-1 form with Gram matrix G is the
    polynomial sum_i G_ii w_i^2 + sum_{i<j} 2 G_ij w_i w_j, supported on its
    factor's block.  Supports are disjoint, so the span is saturated once
    each generator is divided by the gcd of its entries.
    """
    g = form_pairing(rd, 1, rd.cartan)
    mono = pair_basis(rd.rank, strict=False)
    gens = []
    for lo, hi, _, _ in rd.factor_ranges():
        v = [(1 if i == j else 2) * g[i, j] if lo <= i and j < hi else 0 for i, j in mono]
        d = gcd(*v)
        gens.append([x // d for x in v])
    basis = column_hermite_form(IntMatrix.from_columns(gens))
    return Lattice(len(mono), basis, label="sym2 Weyl invariants")


# ---------------------------------------------------------------------------
# Cohomology groups
# ---------------------------------------------------------------------------


def _flat(columns) -> tuple[int, ...]:
    """Tensor coordinates of a twist given by its columns: coordinate a*n + b,
    on x_a (x) w_b, holds u[b, a], as the character basis is dual to the
    integral basis."""
    return tuple(chain.from_iterable(columns))


def boundary_lattice(rd: RootDatum) -> Lattice:
    """The boundaries in tensor coordinates: X(E_ab - E_ba), a < b, has
    column b equal to x_a and column a equal to -x_b."""
    n, x = rd.rank, rd.char_lattice().basis.columns()
    gens = []
    for a, b in pair_basis(n, strict=True):
        cols = [(0,) * n] * n
        cols[a], cols[b] = tuple(-v for v in x[b]), x[a]
        gens.append(_flat(cols))
    return image_basis(IntMatrix.from_columns(gens, rows=n * n))


def _cycles_lattice(rd: RootDatum) -> Lattice:
    """Kernel of the second differential into the invariant quotient, in
    tensor coordinates: x_a (x) w_j maps to sum_i x_ia w_i w_j."""
    n, x = rd.rank, rd.char_lattice().basis.columns()
    mono = {p: k for k, p in enumerate(pair_basis(n, strict=False))}
    d21 = []
    for a in range(n):
        for j in range(n):
            col = [0] * len(mono)
            for i in range(n):
                col[mono[min(i, j), max(i, j)]] = x[a][i]
            d21.append(col)
    ker = kernel_of_matrix(hstack(IntMatrix.from_columns(d21), sym_invariants(rd).basis.scale(-1)))
    proj = IntMatrix([list(ker.row(i)) for i in range(n * n)], cols=ker.cols)
    return Lattice(n * n, column_hermite_form(proj), label="degree-3 cycles")


@lru_cache(maxsize=None)
def h3_group(rd: RootDatum) -> FgAbGroup:
    """H^3 of the group: cycles modulo boundaries, in tensor coordinates on
    chars (x) weights."""
    return subquotient(boundary_lattice(rd), _cycles_lattice(rd))


def h2_of_K(rd: RootDatum) -> FgAbGroup:
    """H^2 of the group: cokernel of the character restriction map.

    The other graded piece, the kernel of the wedge-square differential,
    vanishes because restriction is injective (see dualizability_report).
    """
    inner = Lattice(rd.rank, column_hermite_form(rd.char_lattice().basis), "characters")
    return subquotient(inner, Lattice.standard(rd.rank, "weights"))


def h1_of_K(rd: RootDatum) -> FgAbGroup:
    """H^1 of the group: kernel of character restriction, zero for
    semisimple input (the restriction is injective)."""
    return subquotient(Lattice.zero(0), Lattice.standard(0))


def h2_of_B(rd: RootDatum) -> FgAbGroup:
    """H^2 of the flag manifold: free on the weight lattice."""
    return subquotient(Lattice.zero(rd.rank), Lattice.standard(rd.rank, "weights"))


def h4_of_B(rd: RootDatum) -> FgAbGroup:
    """H^4 of the flag manifold: sym^2 of the weights mod Weyl invariants."""
    inv = sym_invariants(rd)
    return subquotient(inv, Lattice.standard(inv.ambient_dim, "sym2 weights"))


def chern_classes(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Chern classes of K -> B: c_k is the restriction of the k-th character
    basis vector, in weight coordinates through the transgression
    isomorphism."""
    x = rd.char_lattice().basis
    return tuple(x.column(j) for j in range(x.cols))


def class_in_h3(rd: RootDatum, u: IntMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(free, torsion) coordinates of [u] in the presentation of H^3."""
    if not is_cycle(rd, u):
        raise NotACycle(f"twist is not a cycle for {rd.label}")
    return h3_group(rd).coords(_flat(u.columns()))


# ---------------------------------------------------------------------------
# Dualizability
# ---------------------------------------------------------------------------


def dualizability_report(rd: RootDatum) -> dict:
    """Every degree-3 class on K sits in the second filtration step, so a
    T-dual always exists; the report certifies the two vanishing graded
    pieces instead of just asserting them.

    The (1,2) piece vanishes because the flag base has no odd cohomology.
    The (0,3) piece is the kernel of the wedge^3 differential
    (r (x) id) o Delta_3, and d20 is, up to sign, (id (x) r) o Delta_2,
    where Delta_k: wedge^k -> V (x) wedge^(k-1) is the comultiplication
    x_1^...^x_k -> sum_i (-1)^(i-1) x_i (x) (x_1^..^x_i-hat^..^x_k).
    The wedge product m: V (x) wedge^(k-1) -> wedge^k satisfies
    m o Delta_k = k * id, so Delta_k is injective over Q.  Each composite
    is then injective over Q whenever r is, and a map of free Z-modules
    that is injective over Q has zero kernel.  So both kernels, and
    H^1 = ker r, vanish once the character basis X has full rank, which
    the Lattice constructor checks whenever `rd.char_lattice()` is built.
    """
    rd.char_lattice()  # raises DimensionMismatch unless X has full rank
    return {
        "group": rd.label,
        "dualizable": True,
        "wedge3_kernel_rank": 0,
        "notes": [
            "flag base has no degree-1 or degree-3 cohomology, so the (1,2) "
            "graded piece vanishes and the filtration ends at the hom-lattice term",
            "wedge^3 differential has kernel rank 0, so the (0,3) graded piece vanishes",
            "hence H^3 of the total space equals its second filtration step: "
            "every class admits a hom-lattice representative",
        ],
    }


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------


def group_dict(g: FgAbGroup) -> dict:
    """JSON rendering of a finitely generated abelian group."""
    return {"free_rank": g.free_rank, "invariant_factors": list(g.torsion),
            "pretty": g.describe()}


def cohomology(rd: RootDatum) -> dict:
    h4b = h4_of_B(rd)
    notes = [
        "H^3 of the group is presented by hom-lattice representatives "
        "(second filtration step); see the dualizability report",
        "H^2 of the group is the cokernel of character restriction "
        "(the degree-(0,2) edge piece vanishes)",
    ]
    if h4b.torsion:
        notes.append(
            "H^4 of the base has torsion, contradicting torsion-freeness of "
            "flag-manifold cohomology; this flags an internal discrepancy")
    return {
        "group": rd.label,
        "H1_K": group_dict(h1_of_K(rd)),
        "H2_K": group_dict(h2_of_K(rd)),
        "H3_K": group_dict(h3_group(rd)),
        "H2_B": group_dict(h2_of_B(rd)),
        "H4_B": group_dict(h4b),
        "chern_classes": [list(c) for c in chern_classes(rd)],
        "filtration_notes": notes,
        "H4_B_torsion_discrepancy": bool(h4b.torsion),
    }
