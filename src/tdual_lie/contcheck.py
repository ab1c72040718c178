"""Verification of the differential-geometric constants.

Two facts feed the exact modules but are analytic in origin:

  * the cutoff integral:  for any smooth profile chi on [0,1] with
    chi(0)=0, chi(1)=1 and plateaus at both ends,
    int_0^1 chi'(chi^2 - chi) dt = 1/3 - 1/2 = -1/6, independent of chi
    (the integrand is the exact derivative of chi^3/3 - chi^2/2); twice
    that gives the -1/3 coefficient of the curvature three-form.  Six
    profiles are sampled in floats and integrated numerically;

  * the structure-constant form c(X,Y,Z) = <[X,Y],Z> on su(2), su(3),
    su(4): totally antisymmetric, ad-invariant, and vanishing whenever two
    (or three) arguments are Cartan, which is what makes the curvature
    restrict to zero on torus fibres.  The basis matrices have entries
    0, +-1, +-i, so c is an integer, f = Gram^-1 c is rational, and every
    residual is computed exactly.

The module uses the standard library only and never feeds numbers back
into the exact lattice code.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterator
from itertools import accumulate, chain, islice, starmap

from .errors import InadmissibleCutoff
from .zlinalg import IntMatrix

DEFAULT_GRID = 8192
MIN_GRID = 844  # every standard cutoff passes from here to 8192 (wiggle fails at 843)
MAX_GRID = 2**17  # about 0.3 s and 31 MB RSS; time and memory grow linearly with the grid
PLATEAU_FRACTION = 0.05
FLAT_TOL = 1e-12
BUMP_TABLE = 4096  # intervals of the tabulated bump integral
C_FORM_TOL = 1e-12


def cutoff_integral(name: str, values: tuple[float, ...]) -> float:
    """Composite-trapezoid value of int chi' (chi^2 - chi) dt for the profile
    chi sampled on the uniform grid t_i = i/(len(values) - 1) over [0, 1].

    An admissible profile has chi(0)=0, chi(1)=1 and is constant on the first
    and last 5% of samples (plateaus), so that differentiating and
    integrating numerically sees a function that is flat at the boundary;
    any other raises InadmissibleCutoff, naming the profile.  chi' uses the
    five-point central-difference stencil in the interior (fourth order) and
    low-order stencils at the edge, where the plateau makes the derivative
    vanish anyway.  The answer must be -1/6 for every admissible profile.
    The integrand is summed in grid order as it is made, so nothing
    grid-sized is built.
    """
    v, n = values, len(values)
    if n < 16:
        raise InadmissibleCutoff(f"{name}: need a grid of at least 16 samples")
    if abs(v[0]) > FLAT_TOL or abs(v[-1] - 1.0) > FLAT_TOL:
        raise InadmissibleCutoff(f"{name}: chi(0)=0 and chi(1)=1 are required")
    k = max(2, int(PLATEAU_FRACTION * n))
    if any(max(islice(v, lo, lo + k)) - min(islice(v, lo, lo + k)) > FLAT_TOL
           for lo in (0, n - k)):
        raise InadmissibleCutoff(f"{name}: first/last 5% of samples must be constant")
    h = 1.0 / (n - 1)
    two_h, twelve_h = 2.0 * h, 12.0 * h
    g = [dx * (x * x - x) for dx, x in (
        ((-3.0 * v[0] + 4.0 * v[1] - v[2]) / two_h, v[0]),
        ((v[2] - v[0]) / two_h, v[1]),
        ((v[-1] - v[-3]) / two_h, v[-2]),
        ((3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / two_h, v[-1]),
    )]
    interior = ((a - 8.0 * b + 8.0 * c - e) / twelve_h * (x * x - x) for a, b, x, c, e in zip(
        v, islice(v, 1, None), islice(v, 2, None), islice(v, 3, None), islice(v, 4, None)))
    return h * (sum(chain(g[:2], interior, g[2:])) - 0.5 * (g[0] + g[-1]))


# -- built-in profiles -------------------------------------------------------


def _ramp(ts, start: float, width: float):
    """(t - start) / width clipped to [0, 1], lazily."""
    return (0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in ((t - start) / width for t in ts))


def _bump(x: float) -> float:
    """exp(-1/x) for x > 0, else 0."""
    return math.exp(-1.0 / x) if x > 0 else 0.0


def _bump_table() -> tuple[list[float], list[float]]:
    """The normalized cumulative trapezoid `cum` of the standard bump
    exp(-1/(s(1-s))) on the grid s_k = k / BUMP_TABLE over [0, 1], and its
    steps cum[k+1] - cum[k]."""
    bump = [_bump(x * (1.0 - x)) for x in (k / BUMP_TABLE for k in range(BUMP_TABLE + 1))]
    cum = list(accumulate(((lo + hi) * 0.5 / BUMP_TABLE for lo, hi in zip(bump, bump[1:])),
                          initial=0.0))
    cum = [x / cum[-1] for x in cum]
    return cum, [hi - lo for lo, hi in zip(cum, cum[1:])]


def _bump_integral(tau, table: tuple[list[float], list[float]]):
    """Normalized integral of the standard bump at each x of tau in [0, 1],
    interpolated linearly in `table`, the (cum, step) of `_bump_table`
    (exactly 0 at 0 and 1 at 1), lazily.  The node s_k = k / 2**12 is exact,
    so the interval holding x is int(x * BUMP_TABLE), the last one for x = 1."""
    cum, step = table
    return (cum[k] + (x - k / BUMP_TABLE) * step[k] * BUMP_TABLE
            for x in tau for k in (min(int(x * BUMP_TABLE), BUMP_TABLE - 1),))


def iter_cutoffs(n: int = DEFAULT_GRID) -> Iterator[tuple[str, tuple[float, ...]]]:
    """The six standard profiles, as (name, values) pairs on the uniform grid
    t_i = i/n, built one at a time: all share that grid, the first four the
    core ramp tau (flat on both plateaus), and the mollified step and the
    wiggle one bump integral of tau; the bump table is built once per call.
    A profile the caller drops is freed before the next is built."""
    ts = tuple([i / n for i in range(n + 1)])
    a, b = PLATEAU_FRACTION, 1.0 - PLATEAU_FRACTION
    tau = list(_ramp(ts, a, b - a))
    yield "cubic smoothstep", tuple([x * x * (3.0 - 2.0 * x) for x in tau])
    yield "quintic smoothstep", tuple([x**3 * (10.0 - 15.0 * x + 6.0 * x * x) for x in tau])
    yield "septic smoothstep", tuple(
        [x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3) for x in tau])
    table = _bump_table()
    base = tuple(_bump_integral(tau, table))
    del tau
    yield "mollified step", base
    # Climb to 0.6, sit on an interior plateau, then climb to 1.
    yield "plateaued ramp", tuple(
        0.6 * lo + 0.4 * hi for lo, hi in zip(_bump_integral(_ramp(ts, 0.05, 0.30), table),
                                              _bump_integral(_ramp(ts, 0.60, 0.35), table)))
    # Non-monotone: a smooth interior wiggle on top of the step.
    yield "non-monotone wiggle", tuple(
        y + 0.6 * _bump(16.0 * (x * (1.0 - x)) ** 2) * math.sin(6.0 * math.pi * t)
        for t, y, x in zip(ts, base, _ramp(ts, 0.25, 0.5)))


# ---------------------------------------------------------------------------
# Structure constants of su(n)
# ---------------------------------------------------------------------------


def _trace_of_product(x: dict, y: dict) -> int:
    """tr(XY) for sparse integer matrices {(row, col): entry}."""
    return sum(a * y.get((j, i), 0) for (i, j), a in x.items())


def _commutator(x: dict, y: dict) -> dict:
    """XY - YX for sparse integer matrices, zero entries dropped."""
    m: dict = defaultdict(int)
    for (i, j), a in x.items():
        for (k, l), b in y.items():
            if j == k:
                m[i, l] += a * b
            if l == i:
                m[k, j] -= b * a
    return {key: val for key, val in m.items() if val}


class StructureConstants:
    """Exact structure constants of su(n) in an explicit matrix basis.

    Basis order: Cartan elements i(E_ll - E_{l+1,l+1}) first (the coroot
    directions), then for each pair j<k the pair E_jk - E_kj and
    i(E_jk + E_kj).  Each element is i^p M with M a real integer matrix.
    The form <X, Y> = -Re tr(XY) gives coroots squared length 2 (the basic
    normalization); `gram` holds its integer rows.  `c` maps (a, b, d) to the
    integer -Re tr([X_a, X_b] X_d), `f` to the integer with [X_a, X_b] =
    sum_d f[a, b, d] / denominator * X_d; both keep only nonzero entries.
    """

    def __init__(self, algebra: str):
        if algebra not in ("su2", "su3", "su4"):
            raise ValueError(f"unsupported algebra {algebra!r} (su2, su3, su4)")
        self.algebra = algebra
        n = int(algebra[2:])
        r = n - 1
        basis = [(1, {(l, l): 1, (l + 1, l + 1): -1}) for l in range(r)]
        for j in range(n):
            for k in range(j + 1, n):
                basis += [(0, {(j, k): 1, (k, j): -1}), (1, {(j, k): 1, (k, j): 1})]
        self.cartan_indices = tuple(range(r))
        self.dim = dim = len(basis)
        re_i = (1, 0, -1, 0)  # Re(i^p) for p mod 4
        self.gram = [[-re_i[(p + q) % 4] * _trace_of_product(x, y) for q, y in basis]
                     for p, x in basis]
        self.c = {}
        for a, (p, x) in enumerate(basis):
            for b, (q, y) in enumerate(basis):
                bracket = _commutator(x, y)
                for d, (s, z) in enumerate(basis):
                    val = -re_i[(p + q + s) % 4] * _trace_of_product(bracket, z)
                    if val:
                        self.c[a, b, d] = val
        # The Gram matrix is the A_{n-1} Cartan matrix on the Cartan block and
        # 2 on the root directions: `inv` is denominator * Gram^-1 in closed form.
        self.denominator = den = 2 * n
        inv = [[2 * (min(a, b) + 1) * (r - max(a, b)) if a < r and b < r else n * (a == b)
                for b in range(dim)] for a in range(dim)]
        assert IntMatrix(self.gram) @ IntMatrix(inv) == IntMatrix.identity(dim).scale(den)
        f: dict = defaultdict(int)
        for (a, b, e), val in self.c.items():
            for d in range(dim):
                f[a, b, d] += inv[d][e] * val
        self.f = {key: val for key, val in f.items() if val}


_PERMUTATIONS = (((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                 ((1, 2, 0), 1), ((2, 0, 1), 1))


def _max_abs(values, denominator: int = 1) -> float:
    # int / int is correctly rounded, so this is float(Fraction(max, denominator))
    return max(map(abs, values), default=0) / denominator


def check_c_form(sc: StructureConstants) -> dict:
    """Verify the three defining properties of the curvature form's
    algebraic core: total antisymmetry, ad-invariance, and vanishing on
    pairs (and, when the rank allows, triples) of Cartan directions; and
    the Jacobi identity of f.  Sums run over the integer numerators of f
    and are divided by the denominator at the end, so every residual is
    exact and a passing algebra has all residuals 0."""
    c, f, h, den = sc.c, sc.f, set(sc.cartan_indices), sc.denominator
    anti = _max_abs(c.get(tuple(key[i] for i in perm), 0) - sign * val
                    for key, val in c.items() for perm, sign in _PERMUTATIONS)
    # ad-invariance: sum_a f[w,x,a] c[a,y,z] + f[w,y,a] c[x,a,z] + f[w,z,a] c[x,y,a] = 0;
    # each f[w, p, a] meets every c entry holding a in some slot, and p takes that slot.
    c_at: dict = defaultdict(list)
    for key, val in c.items():
        for slot, a in enumerate(key):
            c_at[a].append((slot, key, val))
    inv: dict = defaultdict(int)
    for (w, p, a), u in f.items():
        for slot, key, val in c_at[a]:
            inv[(w, *key[:slot], p, *key[slot + 1:])] += u * val
    # Jacobi: sum_a f[x,y,a] f[a,z,d], summed over the cyclic shifts of (x, y, z).
    f_first: dict = defaultdict(list)
    for (a, r, d), val in f.items():
        f_first[a].append((r, d, val))
    jac: dict = defaultdict(int)
    for (p, q, a), u in f.items():
        for r, d, val in f_first[a]:
            for key in ((p, q, r, d), (r, p, q, d), (q, r, p, d)):
                jac[key] += u * val
    pair = _max_abs(val for key, val in c.items() if key[0] in h and key[1] in h)
    triple = _max_abs(val for key, val in c.items() if set(key) <= h) if len(h) >= 3 else None
    invariance, jacobi = _max_abs(inv.values(), den), _max_abs(jac.values(), den * den)
    return {
        "algebra": sc.algebra,
        "dim": sc.dim,
        "rank": len(h),
        "antisymmetry_residual": anti,
        "invariance_residual": invariance,
        "cartan_pair_residual": pair,
        "cartan_triple_residual": triple,
        "jacobi_residual": jacobi,
        "tolerance": C_FORM_TOL,
        "passed": all(x < C_FORM_TOL for x in (anti, invariance, pair, jacobi, triple or 0.0)),
    }


def _cutoff_row(name: str, values: tuple[float, ...]) -> dict:
    val = cutoff_integral(name, values)
    err = abs(val + 1.0 / 6.0)
    return {"cutoff": name, "integral": val, "error": err, "passed": err < 1e-9}


def continuum_summary(grid: int = DEFAULT_GRID) -> dict:
    """Pass/fail table for the CLI: every cutoff and every algebra.  `starmap`
    drops each cutoff before it asks for the next, so memory peaks at about
    three grid-sized float arrays (the grid, tau and one profile)."""
    cut_rows = list(starmap(_cutoff_row, iter_cutoffs(grid)))
    alg_rows = [check_c_form(StructureConstants(a)) for a in ("su2", "su3", "su4")]
    return {
        "grid": grid,
        "expected_integral": -1.0 / 6.0,
        "cutoffs": cut_rows,
        "structure_constants": alg_rows,
        "passed": all(r["passed"] for r in cut_rows) and all(r["passed"] for r in alg_rows),
    }
