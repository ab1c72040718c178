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
import operator
from bisect import bisect_right
from collections import defaultdict
from functools import lru_cache
from itertools import accumulate, product

from .errors import InadmissibleCutoff
from .zlinalg import Record

DEFAULT_GRID = 8192
MIN_GRID = 844  # every standard cutoff passes from here to 8192 (wiggle fails at 843)
MAX_GRID = 2**17  # about 1.0 s; time and memory grow linearly with the grid
PLATEAU_FRACTION = 0.05
FLAT_TOL = 1e-12
BUMP_TABLE = 4096  # intervals of the tabulated bump integral


class Cutoff(Record):
    """Sampled profile chi on a uniform grid over [0, 1].

    Admissible profiles satisfy chi(0)=0, chi(1)=1 and are constant on the
    first and last 5% of samples (plateaus), so that differentiating and
    integrating numerically sees a function that is flat at the boundary.
    """

    _fields = ("name", "ts", "values")

    def __init__(self, name: str, ts: tuple[float, ...], values: tuple[float, ...]):
        self.name, self.ts, self.values = name, ts, values

    def validate(self) -> None:
        n = len(self.ts)
        if n != len(self.values) or n < 16:
            raise InadmissibleCutoff(f"{self.name}: need a grid of at least 16 samples")
        h = self.ts[1] - self.ts[0]
        steps = list(map(operator.sub, self.ts[1:], self.ts))
        if max(steps) - h > 1e-12 or h - min(steps) > 1e-12:
            raise InadmissibleCutoff(f"{self.name}: grid must be uniform")
        if abs(self.ts[0]) > 1e-12 or abs(self.ts[-1] - 1.0) > 1e-12:
            raise InadmissibleCutoff(f"{self.name}: grid must span [0, 1]")
        if abs(self.values[0]) > FLAT_TOL or abs(self.values[-1] - 1.0) > FLAT_TOL:
            raise InadmissibleCutoff(f"{self.name}: chi(0)=0 and chi(1)=1 are required")
        k = max(2, int(PLATEAU_FRACTION * n))
        head = self.values[:k]
        tail = self.values[-k:]
        if max(head) - min(head) > FLAT_TOL or max(tail) - min(tail) > FLAT_TOL:
            raise InadmissibleCutoff(f"{self.name}: first/last 5% of samples must be constant")


def cutoff_integral(cutoff: Cutoff) -> float:
    """Composite-trapezoid value of int chi' (chi^2 - chi) dt.

    chi' uses the five-point central-difference stencil in the interior
    (fourth order) and low-order stencils at the edge, where the plateau
    makes the derivative vanish anyway.  The answer must be -1/6 for every
    admissible profile.
    """
    cutoff.validate()
    v = cutoff.values
    h = 1.0 / (len(v) - 1)
    d = [
        (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h),
        (v[2] - v[0]) / (2.0 * h),
        *[(a - 8.0 * b + 8.0 * c - e) / (12.0 * h)
          for a, b, c, e in zip(v, v[1:], v[3:], v[4:])],
        (v[-1] - v[-3]) / (2.0 * h),
        (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h),
    ]
    g = [dx * (x * x - x) for dx, x in zip(d, v)]
    return h * (sum(g) - 0.5 * (g[0] + g[-1]))


# -- built-in profiles -------------------------------------------------------


def _ramp(ts: list[float], start: float, width: float) -> list[float]:
    """(t - start) / width clipped to [0, 1]."""
    xs = [(t - start) / width for t in ts]
    return [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in xs]


def _core(n: int) -> tuple[list[float], list[float]]:
    """The uniform grid t_i = i/n and the core ramp tau, flat on both plateaus."""
    ts = [i / n for i in range(n + 1)]
    a, b = PLATEAU_FRACTION, 1.0 - PLATEAU_FRACTION
    return ts, _ramp(ts, a, b - a)


def _bump(x: float) -> float:
    """exp(-1/x) for x > 0, else 0."""
    return math.exp(-1.0 / x) if x > 0 else 0.0


@lru_cache(maxsize=None)
def _bump_table() -> tuple[list[float], list[float]]:
    """Grid s on [0, 1] and the normalized cumulative trapezoid of the
    standard bump exp(-1/(s(1-s))) on it."""
    s = [k / BUMP_TABLE for k in range(BUMP_TABLE + 1)]
    bump = [_bump(x * (1.0 - x)) for x in s]
    cum = list(accumulate(((lo + hi) * 0.5 / BUMP_TABLE for lo, hi in zip(bump, bump[1:])),
                          initial=0.0))
    return s, [x / cum[-1] for x in cum]


def _bump_integral(tau: list[float]) -> list[float]:
    """Normalized integral of the standard bump at each x of tau in [0, 1],
    interpolated linearly in the table (exactly 0 at 0 and 1 at 1)."""
    s, cum = _bump_table()
    ks = [min(bisect_right(s, x), BUMP_TABLE) - 1 for x in tau]
    return [cum[k] + (x - s[k]) * (cum[k + 1] - cum[k]) * BUMP_TABLE for k, x in zip(ks, tau)]


def cutoff_cubic(n: int = DEFAULT_GRID) -> Cutoff:
    ts, tau = _core(n)
    vals = [x * x * (3.0 - 2.0 * x) for x in tau]
    return Cutoff("cubic smoothstep", tuple(ts), tuple(vals))


def cutoff_quintic(n: int = DEFAULT_GRID) -> Cutoff:
    ts, tau = _core(n)
    vals = [x**3 * (10.0 - 15.0 * x + 6.0 * x * x) for x in tau]
    return Cutoff("quintic smoothstep", tuple(ts), tuple(vals))


def cutoff_septic(n: int = DEFAULT_GRID) -> Cutoff:
    ts, tau = _core(n)
    vals = [x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3) for x in tau]
    return Cutoff("septic smoothstep", tuple(ts), tuple(vals))


def cutoff_mollified(n: int = DEFAULT_GRID) -> Cutoff:
    ts, tau = _core(n)
    return Cutoff("mollified step", tuple(ts), tuple(_bump_integral(tau)))


def cutoff_plateau_ramp(n: int = DEFAULT_GRID) -> Cutoff:
    """Climb to 0.6, sit on an interior plateau, then climb to 1."""
    ts, _ = _core(n)
    lo = _bump_integral(_ramp(ts, 0.05, 0.30))
    hi = _bump_integral(_ramp(ts, 0.60, 0.35))
    vals = [0.6 * a + 0.4 * b for a, b in zip(lo, hi)]
    return Cutoff("plateaued ramp", tuple(ts), tuple(vals))


def cutoff_overshoot(n: int = DEFAULT_GRID) -> Cutoff:
    """Non-monotone profile: a smooth interior wiggle on top of the step."""
    ts, tau = _core(n)
    base = _bump_integral(tau)
    inner = _ramp(ts, 0.25, 0.5)
    vals = [b + 0.6 * _bump(16.0 * (x * (1.0 - x)) ** 2) * math.sin(6.0 * math.pi * t)
            for t, b, x in zip(ts, base, inner)]
    return Cutoff("non-monotone wiggle", tuple(ts), tuple(vals))


def standard_cutoffs(n: int = DEFAULT_GRID) -> list[Cutoff]:
    return [make(n) for make in (cutoff_cubic, cutoff_quintic, cutoff_septic,
                                 cutoff_mollified, cutoff_plateau_ramp, cutoff_overshoot)]


# ---------------------------------------------------------------------------
# Structure constants of su(n)
# ---------------------------------------------------------------------------


def _trace(*mats: dict) -> int:
    """tr(M_1 ... M_k) for sparse integer matrices {(row, col): entry}."""
    paths = [(i, j, a) for (i, j), a in mats[0].items()]
    for m in mats[1:]:
        paths = [(i, l, a * b) for i, j, a in paths for (k, l), b in m.items() if j == k]
    return sum(a for i, j, a in paths if i == j)


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
        self.gram = [[-re_i[(p + q) % 4] * _trace(x, y) for q, y in basis] for p, x in basis]
        self.c = {}
        for (a, (p, x)), (b, (q, y)), (d, (s, z)) in product(enumerate(basis), repeat=3):
            val = -re_i[(p + q + s) % 4] * (_trace(x, y, z) - _trace(y, x, z))
            if val:
                self.c[a, b, d] = val
        # The Gram matrix is the A_{n-1} Cartan matrix on the Cartan block and
        # 2 on the root directions: `inv` is denominator * Gram^-1 in closed form.
        self.denominator = den = 2 * n
        inv = [[2 * (min(a, b) + 1) * (r - max(a, b)) if a < r and b < r else n * (a == b)
                for b in range(dim)] for a in range(dim)]
        assert all(sum(g * i for g, i in zip(row, col)) == den * (a == b)
                   for a, row in enumerate(self.gram) for b, col in enumerate(zip(*inv)))
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


def check_c_form(sc: StructureConstants, tolerance: float = 1e-12) -> dict:
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
        "tolerance": tolerance,
        "passed": all(x < tolerance for x in (anti, invariance, pair, jacobi, triple or 0.0)),
    }


def continuum_summary(grid: int = DEFAULT_GRID) -> dict:
    """Pass/fail table for the CLI: every cutoff and every algebra."""
    cut_rows = []
    for cutoff in standard_cutoffs(grid):
        val = cutoff_integral(cutoff)
        err = abs(val + 1.0 / 6.0)
        cut_rows.append({
            "cutoff": cutoff.name,
            "integral": val,
            "error": err,
            "passed": err < 1e-9,
        })
    alg_rows = [check_c_form(StructureConstants(a)) for a in ("su2", "su3", "su4")]
    return {
        "grid": grid,
        "expected_integral": -1.0 / 6.0,
        "cutoffs": cut_rows,
        "structure_constants": alg_rows,
        "passed": all(r["passed"] for r in cut_rows) and all(r["passed"] for r in alg_rows),
    }
