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
the lattice with basis B contains the coroots.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .errors import (
    InvalidCenterSubgroup,
    InvalidSeries,
    NotBetweenLattices,
    Unavailable,
    ascii_int,
    quote,
)
from .zlinalg import (
    FgAbGroup,
    IntMatrix,
    Lattice,
    Record,
    block_diag,
    column_hermite_form,
    contains_columns,
    hstack,
    solve_columns,
    subquotient,
)


def _check_series(series: str, rank: int) -> None:
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 3,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(series)
    if not ok:
        raise InvalidSeries(f"no simple group of type {quote(f'{series}{rank}', str)}")


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
        raise InvalidSeries(f"unknown series {series!r}")
    return a


def _dual_series(series: str, rank: int) -> tuple[str, int]:
    if series == "B":
        return ("C", rank)
    if series == "C":
        return ("B", rank)
    return (series, rank)


class RootDatum(Record):
    """A compact semisimple group presented through its lattices.

    `integral` is the integral lattice of the chosen maximal torus, sitting
    between the coroot lattice (simply connected case) and the coweight
    lattice (adjoint case); its basis is the "preferred" basis every twist
    matrix downstream refers to: the simple coroots for a simply connected
    group, the fundamental coweights for an adjoint one, and a Hermite basis
    otherwise.
    """

    _fields = ("components", "cartan", "integral", "label", "fundamental_group")

    def __init__(self, components: tuple[tuple[str, int], ...], cartan: IntMatrix,
                 integral: Lattice, label: str, fundamental_group: str = "simply_connected"):
        self.components, self.cartan, self.integral = components, cartan, integral
        self.label, self.fundamental_group = label, fundamental_group
        n = self.rank
        if self.cartan.rows != n or self.cartan.cols != n:
            raise InvalidSeries("Cartan matrix size does not match total rank")
        for i in range(n):
            if self.cartan[i, i] != 2:
                raise InvalidSeries("Cartan diagonal must be 2")
            for j in range(n):
                if i != j:
                    cij, cji = self.cartan[i, j], self.cartan[j, i]
                    if cij > 0 or cij * cji not in (0, 1, 2, 3):
                        raise InvalidSeries("not a Cartan matrix of finite type")
        if not contains_columns(self.integral.basis, self.coroot_lattice().basis):
            raise NotBetweenLattices("integral lattice does not contain the coroots")

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
        return all(e == 1 for e in self.epsilons())

    def is_simply_connected(self) -> bool:
        return self.integral.same_lattice(self.coroot_lattice())

    # -- lattices --------------------------------------------------------------

    def coweight_lattice(self) -> Lattice:
        return Lattice.standard(self.rank, "coweights")

    def coroot_lattice(self) -> Lattice:
        return Lattice(self.rank, self.cartan, "coroots")

    def char_lattice(self) -> Lattice:
        """Character lattice of the torus, with the basis dual to `integral`.

        Duality normalization: the k-th character basis vector pairs to
        delta_{ik} with the i-th integral-lattice basis vector.  This is
        what ties twist matrices to the degree-2 differential downstream.
        """
        return Lattice(self.rank, _dual_basis_matrix(self.cartan, self.integral.basis),
                       "characters")

    def epsilons(self) -> tuple[int, ...]:
        """eps_i = (longest root length)^2 / (alpha_i length)^2 in its factor.

        Read off the Cartan matrix, so a transposed (Langlands dual) matrix
        swaps long and short: |alpha_j|^2 a_ij = |alpha_i|^2 a_ji along each
        Dynkin edge.  Squared lengths start at 6 in each factor, which keeps
        them integers (ratios within a factor are 1, 2 or 3 either way).
        """
        a, out = self.cartan, []
        for lo, hi, _, _ in self.factor_ranges():
            length, frontier = {lo: 6}, [lo]
            while frontier:
                i = frontier.pop()
                for j in range(lo, hi):
                    if j not in length and a[i, j]:
                        length[j] = length[i] * a[j, i] // a[i, j]
                        frontier.append(j)
            out += [max(length.values()) // length[i] for i in range(lo, hi)]
        return tuple(out)


def _dual_basis_matrix(cartan: IntMatrix, lattice_basis: IntMatrix) -> IntMatrix:
    """Integer matrix whose columns are the basis of the dual lattice.

    Column k is the character x_k with x_k^T A^{-1} lattice_basis = e_k^T,
    i.e. X = A^T (B^{-1})^T, the transpose of the solution of B X^T = A.
    That solution is integral exactly when the lattice contains the coroots.
    """
    sol = solve_columns(lattice_basis, cartan)
    if sol is None:
        raise NotBetweenLattices("dual basis is not integral; lattice misses coroots")
    return sol.transpose()


def form_pairing(rd: RootDatum, level: int, coweights: IntMatrix) -> IntMatrix:
    """<H_i, v_k> under the basic form at `level`, for the simple coroots H_i
    and the columns v_k of `coweights` (coweight coordinates).

    The Gram matrix on the simple coroots is G = level * diag(eps) * A and
    they are the columns of A, so G A^{-1} = level * diag(eps): the pairing
    is level * eps_i * v_k[i], an integer, and no inverse is taken.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    eps = rd.epsilons()
    return IntMatrix([[level * eps[i] * x for x in coweights.row(i)] for i in range(rd.rank)],
                     cols=coweights.cols)


def basic_form(rd: RootDatum, level: int) -> IntMatrix:
    """Gram matrix on the simple coroots of level x (the minimal invariant
    form, long-root coroots of norm 2)."""
    return form_pairing(rd, level, rd.cartan)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


MAX_RANK = 32  # total rank; bounds the cost of every verb (its matrices are rank x rank)


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
            raise InvalidSeries("a simple factor needs a str series and an int rank")
        series = series.upper()
        _check_series(series, rank)
        comps.append((series, rank))
    if not comps:
        raise InvalidSeries("a semisimple group needs at least one simple factor")
    if sum(r for _, r in comps) > MAX_RANK:  # checked before anything rank x rank exists
        raise InvalidSeries(f"the factor ranks add up to more than the maximum {MAX_RANK}")
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
        gens = _center_subgroup_lifts(components, cartan, fundamental_group["generators"])
        basis = column_hermite_form(hstack(cartan, gens))
        fg = "custom"
    else:
        raise InvalidCenterSubgroup(
            f"unrecognized fundamental group spec {quote(repr(fundamental_group), str)}")

    name = label if label is not None else _generic_label(components, fg)
    return RootDatum(components=components, cartan=cartan,
                     integral=Lattice(n, basis, "integral lattice"),
                     label=name, fundamental_group=fg)


def _generic_label(components, fg) -> str:
    body = " x ".join(f"{s}{r}" for s, r in components)
    suffix = {"simply_connected": "", "adjoint": " (adjoint)", "custom": " (quotient)"}[fg]
    return body + suffix


def center_product_generators(components, cartan) -> list[tuple[int, tuple[int, ...]]]:
    """Cyclic generators of the product center, with coweight-coordinate lifts.

    Returns [(order, lift)] ordered factor by factor; D_even contributes two
    entries, every other simple factor at most one.
    """
    out = []
    start = 0
    for series, r in components:
        block = IntMatrix(cartan_block(series, r))
        zf = subquotient(Lattice(r, block, "coroots"), Lattice.standard(r))
        for order, lift in zip(zf.torsion, zf.torsion_generators()):
            full = [0] * cartan.rows
            for i, x in enumerate(lift):
                full[start + i] = x
            out.append((order, tuple(full)))
        start += r
    return out


def _center_subgroup_lifts(components, cartan, generators) -> IntMatrix:
    if type(generators) is not list or any(type(gen) is not list for gen in generators):
        raise InvalidCenterSubgroup("center subgroup generators must be a list of integer lists")
    cyclic = center_product_generators(components, cartan)
    cols = []
    for gen in generators:
        if len(gen) != len(cyclic):
            raise InvalidCenterSubgroup(
                f"generator {quote(repr(gen), str)} needs {len(cyclic)} coordinates "
                f"(one per cyclic factor of the center)")
        if any(type(x) is not int for x in gen):
            raise InvalidCenterSubgroup(
                f"non-integer generator entry in {quote(repr(gen), str)}")
        col = [0] * cartan.rows
        for a, (_, lift) in zip(gen, cyclic):
            for i in range(cartan.rows):
                col[i] += a * lift[i]
        cols.append(tuple(col))
    return IntMatrix.from_columns(cols, rows=cartan.rows)


_NAMED_SIMPLE = {"G2": ("G", 2), "F4": ("F", 4), "E6": ("E", 6), "E7": ("E", 7), "E8": ("E", 8)}


def named_group(name: str) -> RootDatum:
    """Resolve SU(n), PSU(n), Spin(n), SO(3), Sp(n), G2, ..., or bare 'B3'."""
    text = name.strip()
    if text in _NAMED_SIMPLE:
        return build([_NAMED_SIMPLE[text]], "simply_connected", label=text)
    if len(text) >= 2 and text[0] in "ABCDEFG" and text[1:].isdigit():
        return build([(text[0], _name_int(name, text[1:]))], "simply_connected", label=text)
    for prefix, maker in _NAMED_MAKERS.items():
        if text.startswith(prefix + "(") and text.endswith(")"):
            return maker(_name_int(name, text[len(prefix) + 1:-1]), text)
    raise InvalidSeries(f"unknown group name {quote(name)}")


def _name_int(name: str, digits: str) -> int:
    try:
        return ascii_int(digits)
    except ValueError as exc:  # not ASCII digits, or past Python's 4300-digit limit
        raise InvalidSeries(f"cannot parse group name {quote(name)}") from exc


def _make_su(n, label):
    if n < 2:
        raise InvalidSeries("SU(n) needs n >= 2")
    return build([("A", n - 1)], "simply_connected", label=label)


def _make_psu(n, label):
    if n < 2:
        raise InvalidSeries("PSU(n) needs n >= 2")
    return build([("A", n - 1)], "adjoint", label=label)


def _make_spin(n, label):
    if n >= 5 and n % 2 == 1:
        return build([("B", (n - 1) // 2)], "simply_connected", label=label)
    if n >= 8 and n % 2 == 0:
        return build([("D", n // 2)], "simply_connected", label=label)
    raise InvalidSeries(f"Spin({n}) is outside the supported BD range (odd >=5, even >=8)")


def _make_so(n, label):
    if n != 3:
        raise InvalidSeries("only SO(3) is provided as a named quotient")
    return build([("A", 1)], "adjoint", label=label)


def _make_sp(n, label):
    if n < 3:
        raise InvalidSeries("Sp(n) needs n >= 3 here; use SU(2) or Spin(5) instead")
    return build([("C", n)], "simply_connected", label=label)


_NAMED_MAKERS = {"SU": _make_su, "PSU": _make_psu, "Spin": _make_spin, "SO": _make_so, "Sp": _make_sp}


# ---------------------------------------------------------------------------
# Roots, center, duals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def all_roots(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Every root, as weight-coordinate vectors, sorted."""
    return tuple(_orbit([rd.cartan.row(i) for i in range(rd.rank)]))


@lru_cache(maxsize=None)
def all_coroots(rd: RootDatum) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every coroot, as coweight-coordinate vectors in sorted order, each
    mapped to its coordinates c over the simple coroots (H = A c)."""
    return _orbit([rd.cartan.column(i) for i in range(rd.rank)])


def _orbit(simple) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The orbit of the `simple` roots under the simple reflections, in
    sorted order, each vector mapped to its coordinates over `simple`.

    Entry i of a vector is its pairing with the i-th simple coroot (weight
    coordinates) or root (coweight coordinates), so s_i(v) = v - v_i *
    simple[i], which lowers coordinate i by v_i and leaves the others: O(n)
    per step.  Only the raising steps (v_i < 0) are taken: every positive
    root above a simple one is s_i of a lower positive root v with v_i < 0,
    so they reach the positive roots, and the negative ones are their
    negatives.
    """
    seen = {a: tuple(int(j == i) for j in range(len(simple))) for i, a in enumerate(simple)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for i, a in enumerate(simple):
                c = v[i]
                if c < 0:
                    w = tuple(x - c * y for x, y in zip(v, a))
                    if w not in seen:
                        seen[w] = (*seen[v][:i], seen[v][i] - c, *seen[v][i + 1:])
                        nxt.append(w)
        frontier = nxt
    for v, c in list(seen.items()):
        seen[tuple(-x for x in v)] = tuple(-x for x in c)
    return {v: seen[v] for v in sorted(seen)}


@lru_cache(maxsize=None)
def center(rd: RootDatum) -> FgAbGroup:
    """The center of the simply connected form, as coweights mod coroots."""
    return subquotient(rd.coroot_lattice(), rd.coweight_lattice())


@lru_cache(maxsize=None)
def fundamental_group_of(rd: RootDatum) -> FgAbGroup:
    """pi_1 of the group: integral lattice mod coroot lattice."""
    return subquotient(rd.coroot_lattice(), rd.integral)


_DUAL_LABELS = {"SU": "PSU", "PSU": "SU"}


def _dual_label(rd: RootDatum) -> str:
    text = rd.label
    if text == "SU(2)":
        return "SO(3)"
    if text == "SO(3)":
        return "SU(2)"
    for src, dst in _DUAL_LABELS.items():
        if text.startswith(src + "("):
            return dst + text[len(src):]
    if text in ("G2", "F4", "E8"):
        return text
    return f"dual({text})"


@lru_cache(maxsize=None)
def langlands_dual(rd: RootDatum) -> RootDatum:
    """Swap roots with coroots and characters with cocharacters.

    In coordinates: the dual Cartan matrix is the transpose, the dual
    coweight coordinates are the original weight coordinates, and the dual
    integral lattice is the character lattice of the original torus.
    """
    comps = tuple(_dual_series(s, r) for s, r in rd.components)
    fg = {"simply_connected": "adjoint", "adjoint": "simply_connected"}.get(
        rd.fundamental_group, "custom")
    return RootDatum(
        components=comps,
        cartan=rd.cartan.transpose(),
        integral=Lattice(rd.rank, rd.char_lattice().basis, "integral lattice"),
        label=_dual_label(rd),
        fundamental_group=fg,
    )


@lru_cache(maxsize=None)
def find_phi(rd: RootDatum) -> tuple[int, ...] | None:
    """The Dynkin isomorphism from rd onto its Langlands dual, as the
    permutation sending simple-root indices to dual-side indices.

    Each source factor takes the first unused dual factor whose Cartan block
    is its own (identity) or its own reversed (G2, F4 and B2: the transposed
    block, and these diagrams have no automorphism).  Factors of one type
    are interchangeable, so no choice needs revisiting.  None when some
    factor finds no match: exactly when a B/C factor of rank >= 3 is unpaired.
    """
    dual = langlands_dual(rd)

    def block(mat, lo, hi):
        return [[mat[i, j] for j in range(lo, hi)] for i in range(lo, hi)]

    unused = [(lo, hi, block(dual.cartan, lo, hi)) for lo, hi, _, _ in dual.factor_ranges()]
    perm: list[int] = []
    for lo, hi, _, _ in rd.factor_ranges():
        src = block(rd.cartan, lo, hi)
        reversed_src = [row[::-1] for row in src[::-1]]
        for k, (glo, ghi, dst) in enumerate(unused):
            if dst == src:
                perm += range(glo, ghi)
            elif dst == reversed_src:
                perm += range(ghi - 1, glo - 1, -1)
            else:
                continue
            del unused[k]
            break
        else:
            return None
    return tuple(perm)


def require_phi(rd: RootDatum) -> tuple[int, ...]:
    """find_phi, raising Unavailable with the obstruction spelled out."""
    perm = find_phi(rd)
    if perm is None:
        bad = [f"{s}{r}" for s, r in rd.components
               if _dual_series(s, r) != (s, r) and not (s in ("B", "C") and r == 2)]
        raise Unavailable(
            f"{rd.label}: no Dynkin isomorphism onto the Langlands dual "
            f"(obstructing factors: {', '.join(bad) or 'none found by factor scan'})",
            evidence={"components": rd.components, "dual": langlands_dual(rd).components},
        )
    return perm

