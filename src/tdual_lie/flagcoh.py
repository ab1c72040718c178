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

Basis conventions are fixed once: the character lattice carries the basis
dual to the integral lattice's preferred basis, tensor bases are ordered
lexicographically (character index major), monomials w_i w_j use i <= j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


@dataclass(frozen=True)
class LssComplex:
    """The assembled three-term complex for one root datum."""

    rd: RootDatum
    char_basis: IntMatrix          # columns: character basis in weight coords
    wedge_pairs: tuple[tuple[int, int], ...]
    mono_pairs: tuple[tuple[int, int], ...]
    d20: IntMatrix                 # wedge^2(chars) -> chars (x) weights
    d21_raw: IntMatrix             # chars (x) weights -> sym^2(weights)
    invariants: Lattice            # Weyl-invariant sublattice of sym^2(weights)
    injective: bool                # r has full rank n; see build_complex

    @property
    def rank(self) -> int:
        return self.rd.rank

    def c0_rank(self) -> int:
        return len(self.wedge_pairs)

    def c1_rank(self) -> int:
        return self.rank * self.rank

    def sym2_rank(self) -> int:
        return len(self.mono_pairs)

    # -- twist plumbing ------------------------------------------------------

    def twist_coords(self, u: IntMatrix) -> tuple[int, ...]:
        """Tensor coordinates of a hom-lattice element.

        `u` sends integral-lattice basis coordinates to weight coordinates;
        because the character basis is dual to the integral basis, the
        coefficient of x_a (x) w_b is simply u[b, a].
        """
        n = self.rank
        if u.rows != n or u.cols != n:
            raise DimensionMismatch(f"twist matrix must be {n}x{n} for {self.rd.label}")
        return tuple(u[b, a] for a in range(n) for b in range(n))

    def is_cycle(self, u: IntMatrix) -> bool:
        """True when the symmetrized quadratic form of u is Weyl-invariant."""
        return self.invariants.contains(self.d21_raw.apply(self.twist_coords(u)))

    def boundary_of(self, wedge_coeffs) -> IntMatrix:
        """Twist matrix of the boundary of an element of wedge^2(chars)."""
        n = self.rank
        col = self.d20 @ IntMatrix.from_columns([tuple(wedge_coeffs)])
        return IntMatrix([[col[a * n + b, 0] for a in range(n)] for b in range(n)], cols=n)


@lru_cache(maxsize=None)
def build_complex(rd: RootDatum) -> LssComplex:
    """Assemble both differentials in the fixed bases and sanity-check them."""
    n = rd.rank
    x = rd.char_lattice().basis
    wedge = tuple(pair_basis(n, strict=True))
    mono = tuple(pair_basis(n, strict=False))
    mono_index = {p: k for k, p in enumerate(mono)}

    d20 = [[0] * len(wedge) for _ in range(n * n)]
    for col, (a, b) in enumerate(wedge):
        for j in range(n):
            d20[b * n + j][col] += x[j, a]
            d20[a * n + j][col] -= x[j, b]

    d21 = [[0] * (n * n) for _ in range(len(mono))]
    for a in range(n):
        for j in range(n):
            col = a * n + j
            for i in range(n):
                coeff = x[i, a]
                if coeff:
                    d21[mono_index[(min(i, j), max(i, j))]][col] += coeff

    d20_m = IntMatrix(d20, cols=len(wedge))
    d21_m = IntMatrix(d21, cols=n * n)
    # The composite is exactly zero in sym^2 (the product is commutative).
    assert d21_m @ d20_m == IntMatrix.zero(len(mono), len(wedge)), "complex is not a complex"

    inv = sym_invariants(rd)
    # The one fact every vanishing graded piece reads: restriction r, the
    # columns of x, is injective (see dualizability_report).
    return LssComplex(rd=rd, char_basis=x, wedge_pairs=wedge, mono_pairs=mono,
                      d20=d20_m, d21_raw=d21_m, invariants=inv, injective=x.rank() == n)


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


def _cycles_lattice(cx: LssComplex) -> Lattice:
    """Kernel of the second differential into the invariant quotient."""
    n2 = cx.c1_rank()
    ker = kernel_of_matrix(hstack(cx.d21_raw, cx.invariants.basis.scale(-1)))
    proj = IntMatrix([list(ker.row(i)) for i in range(n2)], cols=ker.cols)
    return Lattice(n2, column_hermite_form(proj), label="degree-3 cycles")


@lru_cache(maxsize=None)
def h3_group(rd: RootDatum) -> FgAbGroup:
    """H^3 of the group: cycles modulo boundaries, with generator lifts in
    tensor coordinates on chars (x) weights."""
    cx = build_complex(rd)
    return subquotient(image_basis(cx.d20), _cycles_lattice(cx))


def h2_of_K(rd: RootDatum) -> FgAbGroup:
    """H^2 of the group: cokernel of the character restriction map.

    The other graded piece, the kernel of the wedge-square differential,
    vanishes because restriction is injective (see dualizability_report);
    that is asserted loudly rather than silently extending the answer.
    """
    cx = build_complex(rd)
    if not cx.injective:
        raise AssertionError(
            "kernel of the wedge-square differential is nonzero; the edge "
            "extension for H^2 would be ambiguous")
    inner = Lattice(rd.rank, column_hermite_form(cx.char_basis), "characters")
    return subquotient(inner, Lattice.standard(rd.rank, "weights"))


def h1_of_K(rd: RootDatum) -> FgAbGroup:
    """H^1 of the group: kernel of character restriction, zero for
    semisimple input (the restriction is injective)."""
    assert build_complex(rd).injective, "character restriction unexpectedly has a kernel"
    return subquotient(Lattice.zero(0), Lattice.standard(0))


def h2_of_B(rd: RootDatum) -> FgAbGroup:
    """H^2 of the flag manifold: free on the weight lattice."""
    return subquotient(Lattice.zero(rd.rank), Lattice.standard(rd.rank, "weights"))


def h4_of_B(rd: RootDatum) -> FgAbGroup:
    """H^4 of the flag manifold: sym^2 of the weights mod Weyl invariants."""
    cx = build_complex(rd)
    full = Lattice.standard(cx.sym2_rank(), "sym2 weights")
    return subquotient(cx.invariants, full)


def chern_classes(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Chern classes of K -> B: c_k is the restriction of the k-th character
    basis vector, in weight coordinates through the transgression
    isomorphism."""
    x = rd.char_lattice().basis
    return tuple(x.column(j) for j in range(x.cols))


def class_in_h3(rd: RootDatum, u: IntMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(free, torsion) coordinates of [u] in the presentation of H^3."""
    cx = build_complex(rd)
    if not cx.is_cycle(u):
        raise NotACycle(f"twist is not a cycle for {rd.label}")
    return h3_group(rd).coords(cx.twist_coords(u))


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
    H^1 = ker r, vanish once the character basis has full rank, which
    build_complex records as `injective`.
    """
    cx = build_complex(rd)
    if not cx.injective:
        raise AssertionError("character restriction has a kernel; the (0,3) "
                             "graded piece is not certified")
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
