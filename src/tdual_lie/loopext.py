"""Central extensions of the integral lattice induced by loop-group extensions.

A central extension of the integral lattice by the circle is classified by
its commutator map b, an antisymmetric bi-additive map with values in Q/Z;
the extension is trivial exactly when b vanishes.  For a simply connected,
simply laced group at level k the commutator map of the pulled-back
extension is b = [k/2 * <.,.>] on the coroot basis; in every other case the
formula is not asserted and an explicit b must be supplied (and can be
checked for admissibility against the invariant form).

Values in Q/Z are reduced fractions in [0, 1); everything is exact.  The
functions that build a Fraction import `fractions`, so that no verb but
`extension` loads it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .errors import DimensionMismatch, InvalidCommutator, RequiresExplicitB
from .rootdata import RootDatum, all_coroots, basic_form, center, form_pairing
from .zlinalg import IntMatrix, Lattice, Record, solve_columns


def _mod1(x: Fraction) -> Fraction:
    return x - x.numerator // x.denominator


class CommutatorMap(Record):
    """Antisymmetric bi-additive Q/Z-valued form on the integral lattice.

    `values[i][j]` is b(e_i, e_j) for the lattice's basis, represented in
    [0, 1).  Bi-additive extension off the basis is exact and lossless
    because b is a homomorphism on the exterior square.
    """

    _fields = ("lattice", "values")

    def __init__(self, lattice: Lattice, values: tuple[tuple[Fraction, ...], ...]):
        self.lattice, self.values = lattice, values
        n = self.lattice.rank
        if len(self.values) != n or any(len(r) != n for r in self.values):
            raise DimensionMismatch("commutator matrix size must match lattice rank")
        for i in range(n):
            if self.values[i][i] != 0:
                raise InvalidCommutator("commutator map must vanish on the diagonal")
            for j in range(n):
                v = self.values[i][j]
                if not (0 <= v < 1):
                    raise InvalidCommutator("values must be reduced into [0, 1)")
                if _mod1(v + self.values[j][i]) != 0:
                    raise InvalidCommutator("commutator map must be antisymmetric mod 1")

    def first_nonzero(self) -> tuple[int, int, Fraction] | None:
        for i, row in enumerate(self.values):
            for j, v in enumerate(row):
                if v != 0:
                    return i, j, v
        return None


def commutator_from_level(rd: RootDatum, level: int) -> CommutatorMap:
    """b = [<.,.>/2] mod 1 on the coroot basis, the form taken at `level`.

    Only asserted for simply connected, simply laced groups; anything else
    raises RequiresExplicitB rather than extrapolating the formula.
    """
    if not rd.is_simply_laced():
        raise RequiresExplicitB(
            f"{rd.label} has a non-simply-laced factor; supply the commutator map explicitly")
    if not rd.is_simply_connected():
        raise RequiresExplicitB(
            f"{rd.label} is not simply connected; supply the commutator map explicitly")
    from fractions import Fraction
    n = rd.rank
    g = basic_form(rd, level)
    values = tuple(
        tuple(_mod1(Fraction(g[i, j], 2)) for j in range(n)) for i in range(n)
    )
    return CommutatorMap(lattice=rd.integral, values=values)


def lift_commutator(b: CommutatorMap) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the canonical antisymmetric rational lift: entries above the
    diagonal are the [0,1) representatives, entries below their negatives."""
    v, n = b.values, b.lattice.rank
    return tuple(tuple(v[i][j] if i <= j else -v[j][i] for j in range(n)) for i in range(n))


def fibrewise_trivializable(b: CommutatorMap) -> dict:
    """Decide whether the canonical reduction over the flag manifold is
    trivializable along the torus fibres: true exactly when the pulled-back
    central extension of the integral lattice is trivial, i.e. b = 0."""
    nz = b.first_nonzero()
    if nz is None:
        explanation = "commutator map vanishes, so the lattice extension splits"
    else:
        i, j, v = nz
        explanation = (
            f"commutator map does not vanish: b(basis_{i}, basis_{j}) = {v}; "
            "the lattice extension is nonabelian, so no fibrewise trivialization exists")
    return {
        "trivializable": nz is None,
        "commutator_matrix": [[str(v) for v in row] for row in b.values],
        "witness_pair": [nz[0], nz[1]] if nz else None,
        "witness_value": str(nz[2]) if nz else None,
        "explanation": explanation,
    }


def admissibility_check(rd: RootDatum, level: int, b: CommutatorMap) -> dict:
    """Check the two conditions under which a loop-group extension realizing
    b with the form at `level` exists (Pressley-Segal, Loop Groups, sec. 4.6;
    Toledano Laredo, Comm. Math. Phys. 207 (1999)):

      * integrality: <lambda, mu> is an integer for all lambda, mu in the
        integral lattice Lambda, with <.,.> the form at `level`;
      * b(lambda, H) = [<lambda, H>/2] for every lattice basis vector lambda
        and every coroot H.

    With B the integral basis, A the Cartan matrix and P = form_pairing(B),
    the Gram matrix on Lambda is B^T A^-T P.  N A^-T is integral for
    N = |det A|, the order of the center of the simply connected form (read
    as `center(rd).order()`, cached), so A^T Y = N P has an integer
    solution, and N <lambda_j, lambda_k> = (B^T Y)[j, k] is checked for
    divisibility by N.

    Every coroot is solved once, in the integral basis and in the coroot
    basis; with c its coroot coordinates, the symmetric form gives
    <lambda_k, H> = sum_i c_i <H_i, lambda_k>, from `form_pairing` in
    integers.  Row k of b times D_k, the lcm of its denominators, is an
    integer row; its product x with the integral coordinates of H is
    D_k b(lambda_k, H) mod D_k, so the rule reads
    2 (x mod D_k) = D_k (<lambda_k, H> mod 2).  Only a violation builds a
    Fraction, to word it."""
    from fractions import Fraction
    n = rd.rank
    pairing = form_pairing(rd, level, rd.integral.basis)
    det = center(rd).order()
    gram = rd.integral.basis.transpose() @ solve_columns(rd.cartan.transpose(), pairing.scale(det))
    integrality = [
        f"<lambda_{j}, lambda_{k}> = {Fraction(gram[j, k], det)} is not an integer"
        for j in range(n) for k in range(j, n) if gram[j, k] % det
    ]
    coroots = all_coroots(rd)
    targets = IntMatrix.from_columns(coroots, rows=n)
    coords = solve_columns(rd.integral.basis, targets)
    pairs = pairing.transpose() @ solve_columns(rd.cartan, targets)
    scales = [lcm(*(v.denominator for v in row)) for row in b.values]
    scaled = IntMatrix([v.numerator * (d // v.denominator) for v in row]
                       for d, row in zip(scales, b.values))
    half = []
    for k, (d, xs, ws) in enumerate(zip(scales, scaled @ coords, pairs)):
        for coroot, x, w in zip(coroots, xs, ws):
            x, w = x % d, w % 2
            if 2 * x != d * w:
                half.append(f"b(basis_{k}, coroot {coroot}) = {Fraction(x, d)} "
                            f"but [<.,.>/2] = {Fraction(w, 2)}")
    return {
        "passed": not integrality and not half,
        "integrality_violations": integrality,
        "half_pairing_violations": half,
    }


def commutator_from_matrix(rd: RootDatum, entries: Sequence[Sequence]) -> CommutatorMap:
    """Build a commutator map from rational entries (e.g. CLI "1/2" strings)."""
    from fractions import Fraction
    n = rd.rank
    vals = tuple(
        tuple(_mod1(Fraction(x)) for x in row) for row in entries
    )
    if len(vals) != n:
        raise DimensionMismatch("commutator matrix size must match the rank")
    return CommutatorMap(lattice=rd.integral, values=vals)
