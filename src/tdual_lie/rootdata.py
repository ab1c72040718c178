"""Root data for compact connected semisimple Lie groups.

Conventions (fixed once, used by every module downstream):

  * cartan[i][j] = <alpha_i, alpha_j^vee>, the pairing of the i-th simple
    root with the j-th simple coroot.
  * The Cartan algebra t carries fundamental-coweight coordinates, so the
    coweight lattice is Z^n and the j-th simple coroot is the j-th COLUMN
    of the Cartan matrix.
  * The dual t* carries fundamental-weight coordinates, so the weight
    lattice is Z^n and the i-th simple root is the i-th ROW of the Cartan
    matrix.
  * The pairing of x in t* with v in t is x^T A^{-1} v; it is integral
    whenever x is a character of a torus whose integral lattice contains v.
  * The basic invariant form on the coroot lattice is normalized so that
    coroots of long roots have squared length 2; its Gram matrix on the
    simple coroots is G = diag(eps) * cartan with eps_i = 1 for long alpha_i
    and the squared-length ratio (2 or 3) for short alpha_i, read off the
    Cartan matrix itself (`RootDatum.epsilons`).  Hence
    G A^{-1} = diag(eps): the form pairs coroots with coweights through an
    integer matrix, and no inverse is ever taken (`form_pairing`).

Everything is integral, with no rationals even in passing: a dual basis is
the transpose of an integer solve B X = A, which has a solution exactly when
the lattice with basis B contains the coroots.  Each `RootDatum` takes that
solve once and keeps its character basis.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import combinations, compress
from math import gcd, lcm

from .errors import TdualError, Unavailable, ascii_int, escape, quote
from .zlinalg import (
    IntMatrix,
    block_diag,
    column_hermite_form,
    hstack,
    smith_normal_form,
    solve_columns,
)


def _classified(series: str, rank: int) -> bool:
    """(series, rank) names a simple group in the classification (Bourbaki,
    Lie Groups ch. VI), each once: B2 = C2 is B2 and D3 = A3 is A3."""
    return {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 3,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(series, False)


def cartan_block(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix of one simple factor in the convention above."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain(pairs):
        for i, j in pairs:
            a[i][j] = -1
            a[j][i] = -1

    if series in ("A", "B", "C"):
        chain((i, i + 1) for i in range(rank - 1))
        if series == "B" and rank >= 2:
            a[rank - 2][rank - 1] = -2  # last root short
        if series == "C":
            a[rank - 1][rank - 2] = -2  # last root long
    elif series == "D":
        chain((i, i + 1) for i in range(rank - 2))
        chain([(rank - 3, rank - 1)])
    elif series == "E":
        chain((i, i + 1) for i in range(2, rank - 1))
        chain([(0, 2), (1, 3)])
    elif series == "F":
        chain([(0, 1), (2, 3)])
        a[1][2] = -2  # alpha_3, alpha_4 short
        a[2][1] = -1
    elif series == "G":
        a[0][1] = -3  # alpha_2 short
        a[1][0] = -1
    else:
        raise TdualError(f"unknown series {series!r}")
    return a


_FACTOR_TYPES = "a simple factor needs a str series and an int rank"
_DUAL_SERIES = {"B": "C", "C": "B"}  # where a Langlands dual factor changes series
# The Weyl word of each self-dual factor that Dynkin reversal matches to
# itself, on its own simple reflections, leftmost letter applied last.
_SELF_DUAL_WORDS = {("B", 2): (0,), ("C", 2): (0,), ("G", 2): (0,), ("F", 4): (0, 1, 2, 0, 1, 0)}


def _is_cartan_of(cartan: IntMatrix, components) -> bool:
    """`cartan` is the block sum over `components` of `cartan_block(series,
    rank)`, each (series, rank) or its Langlands dual (C2 is B2's) being in
    the classification; only G2 and F4, whose duals keep their letter, may
    stand transposed.  So `require_phi` can read the blocks off the series."""
    n, lo, blocks = sum(r for _, r in components), 0, []
    if cartan.rows != n or cartan.cols != n:
        return False
    for series, r in components:
        if not (_classified(series, r) or _classified(_DUAL_SERIES.get(series), r)):
            return False
        block = IntMatrix(cartan_block(series, r))
        if series in "FG" and any(cartan[lo + i, lo + j] != block[i, j]
                                  for i in range(r) for j in range(r)):
            block = block.transpose()
        blocks.append(block)
        lo += r
    return cartan == block_diag(blocks)


class RootDatum:
    """A compact semisimple group presented through its lattices, a value:
    `==`, `hash` and repr are class-exact and read its four fields.  What
    those fields determine is kept on the datum, computed at most once: the
    character basis X (`character_basis`, solved for here), its Smith form
    (`character_smith`), the lattice Gram matrix (`lattice_gram`) and the
    root-length ratios (`epsilons`).  An equal datum built apart computes
    its own.

    `integral` is the n x n basis matrix B of the integral lattice of the
    chosen maximal torus, sitting between the coroot lattice (simply
    connected case) and the coweight lattice (adjoint case); its columns are
    the "preferred" basis every twist matrix downstream refers to: the
    simple coroots for a simply connected group, the fundamental coweights
    for an adjoint one, and a Hermite basis otherwise.  `components` is a
    tuple of (str, int) pairs, and A is the block sum over it of classified
    Cartan blocks, G2 and F4 possibly transposed (`_is_cartan_of`), else
    TdualError.
    So A is nonsingular, and the one solve B X^T = A for the character basis
    X checks that the lattice contains the coroots and shows the columns of
    B independent.  Column k of X, in weight coordinates, is the character
    x_k with x_k^T A^-1 B = e_k^T, the basis dual to B: this duality ties
    twist matrices to the degree-2 differential downstream.
    """

    def __init__(self, components: tuple[tuple[str, int], ...], cartan: IntMatrix,
                 integral: IntMatrix, label: str):
        self.components, self.cartan = components, cartan
        self.integral, self.label = integral, label
        if type(components) is not tuple or not all(
                type(c) is tuple and len(c) == 2 and type(c[0]) is str
                and type(c[1]) is int for c in components):
            raise TdualError(_FACTOR_TYPES)
        if type(label) is not str:
            raise TdualError("label must be a string")
        if not _is_cartan_of(cartan, components):
            raise TdualError("the Cartan matrix is not that of "
                             + " x ".join(f"{s}{r}" for s, r in components))
        n = self.rank
        if integral.rows != n or integral.cols != n:
            raise TdualError(f"integral basis must be {n}x{n}")
        x = solve_columns(integral, cartan)
        if x is None:
            raise TdualError("integral lattice does not contain the coroots")
        self.character_basis = x.transpose()

    def _key(self) -> tuple:
        return self.components, self.cartan, self.integral, self.label

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key() == other._key() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"RootDatum(components={self.components!r}, cartan={self.cartan!r}, "
                f"integral={self.integral!r}, label={self.label!r})")

    # -- ranks and factors ---------------------------------------------------

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.components)

    def factor_ranges(self) -> list[tuple[int, int, str, int]]:
        """(start, stop, series, rank) for each simple factor."""
        out = []
        start = 0
        for series, r in self.components:
            out.append((start, start + r, series, r))
            start += r
        return out

    def is_simply_laced(self) -> bool:
        return all(s in "ADE" for s, _ in self.components)

    def is_simply_connected(self) -> bool:
        """pi_1, the integral lattice mod the coroots, is trivial: read off the
        Smith form of the character basis (`fundamental_group_of`)."""
        return not fundamental_group_of(self)

    # -- values kept on the datum, each computed on first read ---------------

    @cached_property
    def character_smith(self) -> tuple[IntMatrix, tuple[int, ...]]:
        """(U, d) with U X V = diag(d) for some unimodular V: the Smith form of
        the character basis X, for pi_1 and for H^2 and H^3 downstream."""
        return smith_normal_form(self.character_basis)

    @cached_property
    def lattice_gram(self) -> tuple[int, IntMatrix]:
        """(N, Y) with X Y = N P, P the level-1 form on the integral basis B and
        N the exponent of pi_1: Y[j, k] = N <lambda_j, lambda_k>, the one Gram
        matrix on the lattice (derived in `loopext.admissibility_check`).  N P
        is `form_pairing` at level N on every factor, as
        `tduality.level_twist(rd, N)` builds it."""
        exponent = max(fundamental_group_of(self), default=1)
        pairing = form_pairing(self, (exponent,) * len(self.components), self.integral)
        return exponent, solve_columns(self.character_basis, pairing)

    @cached_property
    def epsilons(self) -> tuple[int, ...]:
        """eps_i = (longest root length)^2 / (alpha_i length)^2 in its factor.

        Read off the Cartan matrix, so a transposed (Langlands dual) matrix
        swaps long and short: |alpha_j|^2 a_ij = |alpha_i|^2 a_ji along each
        Dynkin edge.  Squared lengths start at 6 in each factor, which keeps
        them integers (ratios within a factor are 1, 2 or 3 either way).
        """
        rows, out = list(self.cartan), []
        for lo, hi, _, _ in self.factor_ranges():
            length, frontier = {lo: 6}, [lo]
            while frontier:
                i = frontier.pop()
                for j in compress(range(lo, hi), rows[i][lo:hi]):  # the Dynkin edges at i
                    if j not in length:
                        length[j] = length[i] * rows[j][i] // rows[i][j]
                        frontier.append(j)
            out += [max(length.values()) // length[i] for i in range(lo, hi)]
        return tuple(out)


def form_pairing(rd: RootDatum, levels: Sequence[int], coweights: IntMatrix) -> IntMatrix:
    """<H_i, v_k> under the basic form at `levels`, one integer of any sign
    per simple factor, for the simple coroots H_i and the columns v_k of
    `coweights` (coweight coordinates).

    The Gram matrix on the simple coroots is G = diag(l eps) A, l_i the
    level of H_i's factor, and they are the columns of A, so G A^{-1} =
    diag(l eps): the pairing is l_i eps_i v_k[i], an integer, and no
    inverse is taken.
    """
    eps = rd.epsilons
    scale = [k * e for (lo, hi, _, _), k in zip(rd.factor_ranges(), levels, strict=True)
             for e in eps[lo:hi]]
    return IntMatrix([[scale[i] * x for x in coweights.row(i)] for i in range(rd.rank)],
                     cols=coweights.cols)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


MAX_RANK = 128  # total rank; bounds the cost of every verb (its matrices are rank x rank)


def build(series_list: Sequence[tuple[str, int]], fundamental_group="simply_connected",
          label: str | None = None) -> RootDatum:
    """Assemble a root datum from simple factors and a fundamental group.

    `fundamental_group` is "simply_connected" (integral = coroot lattice),
    "adjoint" (integral = coweight lattice), or {"generators": [...]}, a list
    of generators, each a list of ints: its coordinates over the cyclic
    factors of the product center (one per cyclic factor, factor by factor).
    """
    comps = []
    for series, rank in series_list:
        if type(series) is not str or type(rank) is not int:
            raise TdualError(_FACTOR_TYPES)
        if not _classified(series, rank):
            raise TdualError(f"no simple group of type {quote(f'{series}{rank}', escape)}")
        comps.append((series, rank))
    if not comps:
        raise TdualError("a semisimple group needs at least one simple factor")
    if sum(r for _, r in comps) > MAX_RANK:  # checked before anything rank x rank exists
        raise TdualError(f"the factor ranks add up to more than the maximum {MAX_RANK}")
    components = tuple(comps)
    cartan = block_diag([IntMatrix(cartan_block(s, r)) for s, r in components])
    n = cartan.rows

    if fundamental_group == "simply_connected":
        basis = cartan
        fg = "simply_connected"
    elif fundamental_group == "adjoint":
        basis = IntMatrix.identity(n)
        fg = "adjoint"
    elif isinstance(fundamental_group, dict) and "generators" in fundamental_group:
        gens = _center_subgroup_lifts(components, n, fundamental_group["generators"])
        basis = column_hermite_form(hstack(cartan, gens))
        fg = "custom"
    else:
        raise TdualError(
            f"unrecognized fundamental group spec {quote(repr(fundamental_group), str)}")

    name = label if label is not None else _generic_label(components, fg)
    return RootDatum(components=components, cartan=cartan, integral=basis, label=name)


def _generic_label(components, fg) -> str:
    body = " x ".join(f"{s}{r}" for s, r in components)
    suffix = {"simply_connected": "", "adjoint": " (adjoint)", "custom": " (quotient)"}[fg]
    return body + suffix


def center_generators(components) -> list[tuple[int, int]]:
    """(order, k) for each cyclic factor of the product center, factor by
    factor: its generator is the fundamental coweight e_k mod the coroots.
    Read off the classification (Bourbaki, Lie Groups ch. VI, Plates I-IX):
    A_n (n+1, w_n); B_n (2, w_1); C_n (2, w_n); D_n (2, w_1), (2, w_n) for
    n even, (4, w_{n-1}) for n odd; E6 (3, w_1); E7 (2, w_7); else none."""
    out, start = [], 0
    for series, r in components:
        nodes = {"A": [(r + 1, r)], "B": [(2, 1)], "C": [(2, r)],
                 "D": [(2, 1), (2, r)] if r % 2 == 0 else [(4, r - 1)],
                 "E": {6: [(3, 1)], 7: [(2, 7)]}.get(r, [])}.get(series, [])
        out += [(d, start + node - 1) for d, node in nodes]
        start += r
    return out


def _center_subgroup_lifts(components, n, generators) -> IntMatrix:
    if type(generators) is not list or any(type(gen) is not list for gen in generators):
        raise TdualError("center subgroup generators must be a list of integer lists")
    if len(generators) > MAX_RANK:  # no subgroup of <= MAX_RANK cyclic factors needs more
        raise TdualError(f"{len(generators)} center subgroup generators, more than "
                         f"the maximum {MAX_RANK}")
    cyclic = center_generators(components)
    cols = []
    for gen in generators:
        if len(gen) != len(cyclic):
            raise TdualError(
                f"generator {quote(repr(gen), str)} needs {len(cyclic)} coordinates "
                f"(one per cyclic factor of the center)")
        if any(type(x) is not int for x in gen):
            raise TdualError(f"non-integer generator entry in {quote(repr(gen), str)}")
        col = [0] * n
        for a, (_, k) in zip(gen, cyclic):
            col[k] += a
        cols.append(col)
    return IntMatrix.from_columns(cols, rows=n)


def named_group(name: str) -> RootDatum:
    """Resolve SU(n), PSU(n), Spin(n), SO(3), Sp(n), or a series letter and
    rank such as 'B3', 'G2' or 'E8': the simply connected group, labelled as
    written, with no space trimmed."""
    if len(name) >= 2 and name[0] in "ABCDEFG" and name[1:].isdigit():
        return build([(name[0], _name_int(name, name[1:]))], "simply_connected", label=name)
    for prefix, maker in _NAMED_MAKERS.items():
        if name.startswith(prefix + "(") and name.endswith(")"):
            return maker(_name_int(name, name[len(prefix) + 1:-1]), name)
    raise TdualError(f"unknown group name {quote(name)}")


def _name_int(name: str, digits: str) -> int:
    try:
        return ascii_int(digits)
    except ValueError as exc:  # not ASCII digits, or past Python's 4300-digit limit
        raise TdualError(f"cannot parse group name {quote(name)}") from exc


def _make_su(n, label):
    if n < 2:
        raise TdualError("SU(n) needs n >= 2")
    return build([("A", n - 1)], "simply_connected", label=label)


def _make_psu(n, label):
    if n < 2:
        raise TdualError("PSU(n) needs n >= 2")
    return build([("A", n - 1)], "adjoint", label=label)


def _make_spin(n, label):
    if n >= 5 and n % 2 == 1:
        return build([("B", (n - 1) // 2)], "simply_connected", label=label)
    if n >= 8 and n % 2 == 0:
        return build([("D", n // 2)], "simply_connected", label=label)
    raise TdualError(f"Spin({n}) is outside the supported BD range (odd >=5, even >=8)")


def _make_so(n, label):
    if n != 3:
        raise TdualError("only SO(3) is provided as a named quotient")
    return build([("A", 1)], "adjoint", label=label)


def _make_sp(n, label):
    if n < 3:
        raise TdualError("Sp(n) needs n >= 3 here; use SU(2) or Spin(5) instead")
    return build([("C", n)], "simply_connected", label=label)


_NAMED_MAKERS = {"SU": _make_su, "PSU": _make_psu, "Spin": _make_spin, "SO": _make_so, "Sp": _make_sp}


# ---------------------------------------------------------------------------
# Roots, center, duals
# ---------------------------------------------------------------------------


_ROOT_COUNTS = {"A": lambda n: n * (n + 1), "B": lambda n: 2 * n * n, "C": lambda n: 2 * n * n,
                "D": lambda n: 2 * n * (n - 1), "E": {6: 72, 7: 126, 8: 240}.get,
                "F": lambda n: 48, "G": lambda n: 12}


def root_count(rd: RootDatum) -> int:
    """|Phi|, summed over the simple factors from the classification."""
    return sum(_ROOT_COUNTS[s](r) for s, r in rd.components)


def center(rd: RootDatum) -> tuple[int, ...]:
    """Invariant factors of the center of the simply connected form, the
    coweights mod the coroots: the cyclic orders of `center_generators`,
    merged pair by pair in order by Z/a + Z/b = Z/gcd + Z/lcm."""
    orders = [d for d, _ in center_generators(rd.components)]
    for i, j in combinations(range(len(orders)), 2):
        orders[i], orders[j] = gcd(orders[i], orders[j]), lcm(orders[i], orders[j])
    return tuple(d for d in orders if d > 1)


def fundamental_group_of(rd: RootDatum) -> tuple[int, ...]:
    """Invariant factors of pi_1: the integral lattice mod the coroots.  In
    integral-basis coordinates the simple coroots are the columns of X^T
    (B X^T = A), so pi_1 = coker X^T, whose invariant factors are X's."""
    return tuple(x for x in rd.character_smith[1] if x >= 2)


_DUAL_NAMES = {"SU(2)": "SO(3)", "SO(3)": "SU(2)", "G2": "G2", "F4": "F4", "E8": "E8"}


def _dual_label(rd: RootDatum) -> str:
    """The name of rd's dual, read off rd.label, trusted to name rd as every label
    `build` and `named_group` make does: SU(n) and PSU(n), SU(2) and SO(3) swap,
    G2, F4 and E8 keep theirs, and any other X and dual(X) swap."""
    text = rd.label
    if text in _DUAL_NAMES:
        return _DUAL_NAMES[text]
    if text.startswith(("SU(", "PSU(")):
        return text[1:] if text[0] == "P" else "P" + text
    if text.startswith("dual(") and text.endswith(")"):
        return text[5:-1]  # the dual's dual is the datum itself
    return f"dual({text})"


def langlands_dual(rd: RootDatum) -> RootDatum:
    """Swap roots with coroots and characters with cocharacters.

    In coordinates: the dual Cartan matrix is the transpose, the dual
    coweight coordinates are the original weight coordinates, and the dual
    integral lattice is the character lattice of the original torus.
    """
    return RootDatum(components=tuple((_DUAL_SERIES.get(s, s), r) for s, r in rd.components),
                     cartan=rd.cartan.transpose(), integral=rd.character_basis,
                     label=_dual_label(rd))


def require_phi(rd: RootDatum) -> tuple[int, ...]:
    """The Dynkin isomorphism from rd onto its Langlands dual, as the
    permutation sending simple-root indices to dual-side indices, or
    Unavailable naming the factors left over.

    Read off the series, which name each Cartan block (`_is_cartan_of`), so
    no block is compared and no dual datum is built.  The dual swaps B_n and
    C_n and keeps every other letter.  An A, D or E factor maps onto its own
    range; B2, C2, G2 and F4, whose duals are themselves with the roots
    reversed, onto their own range reversed; for n >= 3 the k-th B_n and the
    k-th C_n take each other's ranges, and a B_n or C_n with no partner is
    left over.
    """
    ranges = {}
    for lo, hi, series, r in rd.factor_ranges():
        ranges.setdefault((series, r), []).append(range(lo, hi))
    perm, unmatched = [], []
    for lo, hi, series, r in rd.factor_ranges():
        if series in "BC" and r > 2:
            partners = ranges.get((_DUAL_SERIES[series], r))
            if partners:
                perm += partners.pop(0)
            else:
                unmatched.append(f"{series}{r}")
        elif (series, r) in _SELF_DUAL_WORDS:
            perm += range(hi - 1, lo - 1, -1)
        else:
            perm += range(lo, hi)
    if unmatched:
        raise Unavailable(
            f"{rd.label}: no Dynkin isomorphism onto the Langlands dual "
            f"(obstructing factors: {', '.join(unmatched)})",
            evidence={"components": [list(c) for c in rd.components],
                      "dual": [[_DUAL_SERIES.get(s, s), r] for s, r in rd.components]},
        )
    return tuple(perm)
