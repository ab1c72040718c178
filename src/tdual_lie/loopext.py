"""Central extensions of the integral lattice induced by loop-group extensions.

A central extension of the integral lattice by the circle is classified by
its commutator map b, an antisymmetric bi-additive map with values in Q/Z;
the extension is trivial exactly when b vanishes.  For a simply connected
group at level k, of any series, the commutator map of the pulled-back
extension is b = [k/2 * <.,.>] on the integral basis (`rd.lattice_gram`); a
group with pi_1 != 0 must be given an explicit b (which can be checked for
admissibility against the invariant form, on the simple coroots alone,
since both sides of the rule are additive).

A value in Q/Z is the reduced integer pair (p, q) with 0 <= p < q that
`mod1` builds, and `ratio` writes a pair as "p/q" in lowest terms ("0",
"3" when whole); everything is exact integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, lcm

from .errors import RequiresExplicitB, TdualError
from .rootdata import RootDatum
from .tduality import level_twist
from .zlinalg import IntMatrix


def mod1(p: int, q: int) -> tuple[int, int]:
    """p/q mod 1 (q > 0) as the reduced pair (p', q') with 0 <= p' < q'."""
    g = gcd(p, q)
    return p // g % (q // g), q // g


def ratio(p: int, q: int) -> str:
    """p/q (q > 0) written in lowest terms, as "p" when it is whole."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


class CommutatorMap:
    """Antisymmetric bi-additive Q/Z-valued form on the integral lattice.

    `values[i][j]` is b(e_i, e_j), as a `mod1` pair, for the basis vectors
    e_i of the rank-n lattice: the columns of its integral basis.
    Bi-additive extension off the basis is exact and lossless because b is
    a homomorphism on the exterior square.
    """

    def __init__(self, n: int, values: tuple[tuple[tuple[int, int], ...], ...]):
        self.values = values
        if len(values) != n or any(len(r) != n for r in values):
            raise TdualError("commutator matrix size must match lattice rank")
        for i in range(n):
            if self.values[i][i] != (0, 1):
                raise TdualError("commutator map must vanish on the diagonal")
            for j in range(n):
                p, q = self.values[i][j]
                if not (0 <= p < q and gcd(p, q) == 1):
                    raise TdualError("values must be reduced into [0, 1)")
                if self.values[j][i] != mod1(-p, q):
                    raise TdualError("commutator map must be antisymmetric mod 1")


def commutator_from_level(rd: RootDatum, level: int) -> CommutatorMap:
    """b = [level Y/2] mod 1 on the integral basis, Y of `rd.lattice_gram`.

    Asserted for every simply connected group, of any series: its lattice
    is the coroot lattice, on which the basic form is even, so b vanishes
    on the diagonal and meets the half-pairing rule by construction.  A
    group with pi_1 != 0 raises RequiresExplicitB.
    """
    if not rd.is_simply_connected():
        raise RequiresExplicitB(
            f"{rd.label} is not simply connected; supply the commutator map explicitly")
    if level < 0:
        raise ValueError("level must be nonnegative")
    values = tuple(tuple(mod1(level * x, 2) for x in row) for row in rd.lattice_gram[1])
    return CommutatorMap(rd.rank, values)


def lift_commutator(b: CommutatorMap) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rows of the canonical antisymmetric rational lift, as (p, q) pairs:
    entries above the diagonal are the [0,1) representatives, entries below
    their negatives."""
    v, n = b.values, len(b.values)
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

    With B the integral basis, X the character basis (B X^T = A, A the
    Cartan matrix) and P = level_twist(rd, level), lambda_j is column j of
    A X^-T in coroot coordinates, so the Gram matrix on Lambda is X^-1 P.
    With U X V = diag(d) the datum's Smith form, X^-1 = V diag(d)^-1 U, so
    N X^-1 is integral for N the exponent of pi_1 = coker X^T (its largest
    invariant factor, 1 when pi_1 is trivial): X Y = N P has an integer
    solution (`rd.lattice_gram`, at level 1, scaled by `level`), and
    N <lambda_j, lambda_k> = Y[j, k] is checked for divisibility by N.

    Both sides of the half-pairing rule are additive in H mod 1, and every
    coroot is an integer combination of the simple coroots H_i, so the rule
    holds on every coroot exactly when it holds on the H_i.  Those are the
    only coroots checked: a basis vector that breaks the rule on some coroot
    breaks it on some H_i, so the list is a complete witness.
    <lambda_k, H_i> = P[i, k], and H_i has integral coordinates column i of
    X^T, with X the character basis (B X^T = A).  Row k of b times D_k, the
    lcm of its denominators, is an integer row; its product x with those
    coordinates is D_k b(lambda_k, H_i) mod D_k, so the rule reads
    2 (x mod D_k) = D_k (<lambda_k, H_i> mod 2).  Violations are listed by
    basis vector, then by coroot in sorted coweight coordinates."""
    n = rd.rank
    pairing = level_twist(rd, level)
    exponent, unit_gram = rd.lattice_gram
    gram = unit_gram.scale(level)
    integrality = [
        f"<lambda_{j}, lambda_{k}> = {ratio(gram[j, k], exponent)} is not an integer"
        for j in range(n) for k in range(j, n) if gram[j, k] % exponent
    ]
    coroots = sorted(enumerate(rd.cartan.columns()), key=lambda col: col[1])
    scales = [lcm(*(q for _, q in row)) for row in b.values]
    scaled = IntMatrix([p * (d // q) for p, q in row] for d, row in zip(scales, b.values))
    products = rd.character_basis @ scaled.transpose()  # column k: scaled row k of b on the H_i
    half = []
    for k, (d, xs, ws) in enumerate(zip(scales, products.columns(), pairing.columns())):
        for i, coroot in coroots:
            x, w = xs[i] % d, ws[i] % 2
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
    for i, row in enumerate(entries):
        for j, (p, q) in enumerate(row):
            if q <= 0:
                raise TdualError(f"entry ({i}, {j}) is {p}/{q}: a denominator must be > 0")
    vals = tuple(tuple(mod1(*x) for x in row) for row in entries)
    return CommutatorMap(rd.rank, vals)
