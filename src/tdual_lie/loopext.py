"""Central extensions of the integral lattice induced by loop-group extensions.

A central extension of the integral lattice by the circle is classified by
its commutator map b, an antisymmetric bi-additive map with values in Q/Z;
the extension is trivial exactly when b vanishes.  For a simply connected,
simply laced group at level k the commutator map of the pulled-back
extension is b = [k/2 * <.,.>] on the coroot basis; in every other case the
formula is not asserted and an explicit b must be supplied (and can be
checked for admissibility against the invariant form).

A value in Q/Z is the reduced integer pair (p, q) with 0 <= p < q that
`mod1` builds, and `ratio` writes a pair as "p/q" in lowest terms ("0",
"3" when whole); everything is exact integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm

from .errors import DimensionMismatch, InvalidCommutator, RequiresExplicitB
from .rootdata import RootDatum, all_coroots, basic_form, center, form_pairing
from .zlinalg import IntMatrix, Lattice, Record, solve_columns


def mod1(p: int, q: int) -> tuple[int, int]:
    """p/q mod 1 (q > 0) as the reduced pair (p', q') with 0 <= p' < q'."""
    g = gcd(p, q)
    return p // g % (q // g), q // g


def ratio(p: int, q: int) -> str:
    """p/q (q > 0) written in lowest terms, as "p" when it is whole."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


class CommutatorMap(Record):
    """Antisymmetric bi-additive Q/Z-valued form on the integral lattice.

    `values[i][j]` is b(e_i, e_j) for the lattice's basis, as a `mod1` pair.
    Bi-additive extension off the basis is exact and lossless because b is
    a homomorphism on the exterior square.
    """

    _fields = ("lattice", "values")

    def __init__(self, lattice: Lattice, values: tuple[tuple[tuple[int, int], ...], ...]):
        self.lattice, self.values = lattice, values
        n = self.lattice.rank
        if len(self.values) != n or any(len(r) != n for r in self.values):
            raise DimensionMismatch("commutator matrix size must match lattice rank")
        for i in range(n):
            if self.values[i][i] != (0, 1):
                raise InvalidCommutator("commutator map must vanish on the diagonal")
            for j in range(n):
                p, q = self.values[i][j]
                if not (0 <= p < q and gcd(p, q) == 1):
                    raise InvalidCommutator("values must be reduced into [0, 1)")
                if self.values[j][i] != mod1(-p, q):
                    raise InvalidCommutator("commutator map must be antisymmetric mod 1")


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
    values = tuple(tuple(mod1(x, 2) for x in row) for row in basic_form(rd, level))
    return CommutatorMap(lattice=rd.integral, values=values)


def lift_commutator(b: CommutatorMap) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rows of the canonical antisymmetric rational lift, as (p, q) pairs:
    entries above the diagonal are the [0,1) representatives, entries below
    their negatives."""
    v, n = b.values, b.lattice.rank
    return tuple(tuple(v[i][j] if i <= j else (-v[j][i][0], v[j][i][1]) for j in range(n))
                 for i in range(n))


def fibrewise_trivializable(b: CommutatorMap) -> dict:
    """Decide whether the canonical reduction over the flag manifold is
    trivializable along the torus fibres: true exactly when the pulled-back
    central extension of the integral lattice is trivial, i.e. b = 0."""
    nz = next(((i, j, v) for i, row in enumerate(b.values) for j, v in enumerate(row) if v[0]),
              None)
    if nz is None:
        explanation = "commutator map vanishes, so the lattice extension splits"
    else:
        i, j, v = nz
        explanation = (
            f"commutator map does not vanish: b(basis_{i}, basis_{j}) = {ratio(*v)}; "
            "the lattice extension is nonabelian, so no fibrewise trivialization exists")
    return {
        "trivializable": nz is None,
        "commutator_matrix": [[ratio(*v) for v in row] for row in b.values],
        "witness_pair": [nz[0], nz[1]] if nz else None,
        "witness_value": ratio(*nz[2]) if nz else None,
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

    The orbit walk of `all_coroots` gives each coroot H its coordinates c
    over the simple coroots, so no coroot is solved for: the symmetric form
    gives <lambda_k, H> = sum_i c_i <H_i, lambda_k> = (P^T c)_k, and H has
    integral coordinates X^T c, with X the character basis (B X^T = A).
    Row k of b times D_k, the lcm of its denominators, is an integer row;
    its product x with the integral coordinates of H is D_k b(lambda_k, H)
    mod D_k, so the rule reads 2 (x mod D_k) = D_k (<lambda_k, H> mod 2)."""
    n = rd.rank
    pairing = form_pairing(rd, level, rd.integral.basis)
    det = center(rd).order()
    gram = rd.integral.basis.transpose() @ solve_columns(rd.cartan.transpose(), pairing.scale(det))
    integrality = [
        f"<lambda_{j}, lambda_{k}> = {ratio(gram[j, k], det)} is not an integer"
        for j in range(n) for k in range(j, n) if gram[j, k] % det
    ]
    coroots = all_coroots(rd)
    simple_coords = IntMatrix.from_columns(coroots.values(), rows=n)
    scales = [lcm(*(q for _, q in row)) for row in b.values]
    scaled = IntMatrix([p * (d // q) for p, q in row] for d, row in zip(scales, b.values))
    products = (scaled @ rd.char_lattice().basis.transpose()) @ simple_coords
    half = []
    for k, (d, xs, ws) in enumerate(zip(scales, products, pairing.transpose() @ simple_coords)):
        for coroot, x, w in zip(coroots, xs, ws):
            x, w = x % d, w % 2
            if 2 * x != d * w:
                half.append(f"b(basis_{k}, coroot {coroot}) = {ratio(x, d)} "
                            f"but [<.,.>/2] = {ratio(w, 2)}")
    return {
        "passed": not integrality and not half,
        "integrality_violations": integrality,
        "half_pairing_violations": half,
    }


def commutator_from_matrix(rd: RootDatum, entries: Sequence[Sequence[tuple]]) -> CommutatorMap:
    """Build a commutator map from rational entries, each an integer pair
    (p, q) with q > 0 standing for p/q (as `cli` reads "1/2")."""
    vals = tuple(tuple(mod1(*x) for x in row) for row in entries)
    if len(vals) != rd.rank:
        raise DimensionMismatch("commutator matrix size must match the rank")
    return CommutatorMap(lattice=rd.integral, values=vals)
