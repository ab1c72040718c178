"""Floating-point verification of the differential-geometric constants.

Two facts feed the exact modules but are analytic in origin, so they get a
numerical check instead of an integer proof:

  * the cutoff integral:  for any smooth profile chi on [0,1] with
    chi(0)=0, chi(1)=1 and plateaus at both ends,
    int_0^1 chi'(chi^2 - chi) dt = 1/3 - 1/2 = -1/6, independent of chi
    (the integrand is the exact derivative of chi^3/3 - chi^2/2); twice
    that gives the -1/3 coefficient of the curvature three-form;

  * the structure-constant form c(X,Y,Z) = <[X,Y],Z> on su(2), su(3),
    su(4): totally antisymmetric, ad-invariant, and vanishing whenever two
    (or three) arguments are Cartan, which is what makes the curvature
    restrict to zero on torus fibres.

This module never feeds numbers back into the exact lattice code.  numpy is
imported inside the functions that use it, so the exact verbs of the CLI,
which import this module, start without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InadmissibleCutoff

if TYPE_CHECKING:
    import numpy as np

DEFAULT_GRID = 8192
MIN_GRID = 844  # every standard cutoff passes from here to 8192 (wiggle fails at 843)
MAX_GRID = 2**17  # about 0.4 s; time and memory grow linearly with the grid
PLATEAU_FRACTION = 0.05
FLAT_TOL = 1e-12


@dataclass(frozen=True)
class Cutoff:
    """Sampled profile chi on a uniform grid over [0, 1].

    Admissible profiles satisfy chi(0)=0, chi(1)=1 and are constant on the
    first and last 5% of samples (plateaus), so that differentiating and
    integrating numerically sees a function that is flat at the boundary.
    """

    name: str
    ts: tuple[float, ...]
    values: tuple[float, ...]

    def validate(self) -> None:
        n = len(self.ts)
        if n != len(self.values) or n < 16:
            raise InadmissibleCutoff(f"{self.name}: need a grid of at least 16 samples")
        h = self.ts[1] - self.ts[0]
        for i in range(1, n):
            if abs(self.ts[i] - self.ts[i - 1] - h) > 1e-12:
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
    import numpy as np

    v = np.asarray(cutoff.values, dtype=float)
    n = v.size
    h = 1.0 / (n - 1)
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    d[1] = (v[2] - v[0]) / (2.0 * h)
    d[-2] = (v[-1] - v[-3]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    g = d * (v * v - v)
    return float(np.trapezoid(g, dx=h))


# -- built-in profiles -------------------------------------------------------


def _core_grid(n: int):
    import numpy as np

    ts = np.linspace(0.0, 1.0, n + 1)
    a, b = PLATEAU_FRACTION, 1.0 - PLATEAU_FRACTION
    tau = np.clip((ts - a) / (b - a), 0.0, 1.0)
    return ts, tau


def _bump_integral(tau: np.ndarray) -> np.ndarray:
    """Normalized integral of the standard bump exp(-1/(s(1-s)))."""
    import numpy as np

    s = np.linspace(0.0, 1.0, 4097)
    inner = s * (1.0 - s)
    with np.errstate(divide="ignore", over="ignore"):
        bump = np.where(inner > 0, np.exp(-1.0 / np.maximum(inner, 1e-300)), 0.0)
    cum = np.concatenate([[0.0], np.cumsum((bump[1:] + bump[:-1]) * 0.5 * (s[1] - s[0]))])
    cum /= cum[-1]
    out = np.interp(tau, s, cum)
    out[tau <= 0.0] = 0.0
    out[tau >= 1.0] = 1.0
    return out


def cutoff_cubic(n: int = DEFAULT_GRID) -> Cutoff:
    ts, tau = _core_grid(n)
    vals = tau * tau * (3.0 - 2.0 * tau)
    return Cutoff("cubic smoothstep", tuple(ts), tuple(vals))


def cutoff_quintic(n: int = DEFAULT_GRID) -> Cutoff:
    ts, tau = _core_grid(n)
    vals = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau * tau)
    return Cutoff("quintic smoothstep", tuple(ts), tuple(vals))


def cutoff_septic(n: int = DEFAULT_GRID) -> Cutoff:
    ts, tau = _core_grid(n)
    vals = tau**4 * (35.0 - 84.0 * tau + 70.0 * tau**2 - 20.0 * tau**3)
    return Cutoff("septic smoothstep", tuple(ts), tuple(vals))


def cutoff_mollified(n: int = DEFAULT_GRID) -> Cutoff:
    ts, tau = _core_grid(n)
    return Cutoff("mollified step", tuple(ts), tuple(_bump_integral(tau)))


def cutoff_plateau_ramp(n: int = DEFAULT_GRID) -> Cutoff:
    """Climb to 0.6, sit on an interior plateau, then climb to 1."""
    import numpy as np

    ts = np.linspace(0.0, 1.0, n + 1)
    lo = _bump_integral(np.clip((ts - 0.05) / 0.30, 0.0, 1.0))
    hi = _bump_integral(np.clip((ts - 0.60) / 0.35, 0.0, 1.0))
    vals = 0.6 * lo + 0.4 * hi
    return Cutoff("plateaued ramp", tuple(ts), tuple(vals))


def cutoff_overshoot(n: int = DEFAULT_GRID) -> Cutoff:
    """Non-monotone profile: a smooth interior wiggle on top of the step."""
    import numpy as np

    ts, tau = _core_grid(n)
    base = _bump_integral(tau)
    inner = np.clip((ts - 0.25) / 0.5, 0.0, 1.0)
    wiggle_shape = inner * (1.0 - inner)
    with np.errstate(divide="ignore", over="ignore"):
        wiggle = np.where(
            wiggle_shape > 0,
            np.exp(-1.0 / np.maximum(16.0 * wiggle_shape**2, 1e-300)),
            0.0,
        )
    vals = base + 0.6 * wiggle * np.sin(6.0 * math.pi * ts)
    return Cutoff("non-monotone wiggle", tuple(ts), tuple(vals))


def standard_cutoffs(n: int = DEFAULT_GRID) -> list[Cutoff]:
    return [
        cutoff_cubic(n),
        cutoff_quintic(n),
        cutoff_septic(n),
        cutoff_mollified(n),
        cutoff_plateau_ramp(n),
        cutoff_overshoot(n),
    ]


# ---------------------------------------------------------------------------
# Structure constants of su(n)
# ---------------------------------------------------------------------------


class StructureConstants:
    """Real structure constants of su(n) in an explicit matrix basis.

    Basis order: Cartan elements i(E_ll - E_{l+1,l+1}) first (the coroot
    directions), then for each pair j<k the pair E_jk - E_kj and
    i(E_jk + E_kj).  The invariant form is <X, Y> = -Re tr(XY), which gives
    the coroots squared length 2 (the basic normalization).
    """

    def __init__(self, algebra: str):
        import numpy as np

        if algebra not in ("su2", "su3", "su4"):
            raise ValueError(f"unsupported algebra {algebra!r} (su2, su3, su4)")
        self.algebra = algebra
        n = int(algebra[2:])
        mats = []
        self.cartan_indices = tuple(range(n - 1))
        for l in range(n - 1):
            m = np.zeros((n, n), dtype=complex)
            m[l, l] = 1j
            m[l + 1, l + 1] = -1j
            mats.append(m)
        for j in range(n):
            for k in range(j + 1, n):
                a = np.zeros((n, n), dtype=complex)
                a[j, k] = 1.0
                a[k, j] = -1.0
                mats.append(a)
                s = np.zeros((n, n), dtype=complex)
                s[j, k] = 1j
                s[k, j] = 1j
                mats.append(s)
        self.basis = np.array(mats)
        self.dim = len(mats)
        self.gram = -np.real(np.einsum("aij,bji->ab", self.basis, self.basis))
        comm = np.einsum("aij,bjk->abik", self.basis, self.basis)
        comm = comm - np.transpose(comm, (1, 0, 2, 3))
        rhs = -np.real(np.einsum("cij,abji->abc", self.basis, comm))
        self.f = np.linalg.solve(self.gram, rhs.reshape(-1, self.dim).T).T.reshape(
            self.dim, self.dim, self.dim)
        # c(X,Y,Z) = <[X,Y],Z>, computed straight from the matrices.
        self.c = rhs
        # Input sanity: the derived constants must close a Lie algebra.
        assert self.antisymmetry_residual() < 1e-12
        assert self.jacobi_residual() < 1e-12

    def jacobi_residual(self) -> float:
        import numpy as np

        f = self.f
        total = (
            np.einsum("xya,azc->xyzc", f, f)
            + np.einsum("yza,axc->xyzc", f, f)
            + np.einsum("zxa,ayc->xyzc", f, f)
        )
        return float(np.max(np.abs(total)))

    def antisymmetry_residual(self) -> float:
        import numpy as np

        return float(np.max(np.abs(self.f + np.transpose(self.f, (1, 0, 2)))))


@dataclass(frozen=True)
class CFormReport:
    algebra: str
    dim: int
    rank: int
    antisymmetry: float
    invariance: float
    cartan_pair: float
    cartan_triple: float | None
    jacobi: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "dim": self.dim,
            "rank": self.rank,
            "antisymmetry_residual": self.antisymmetry,
            "invariance_residual": self.invariance,
            "cartan_pair_residual": self.cartan_pair,
            "cartan_triple_residual": self.cartan_triple,
            "jacobi_residual": self.jacobi,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_c_form(sc: StructureConstants, tolerance: float = 1e-12) -> CFormReport:
    """Verify the three defining properties of the curvature form's
    algebraic core: total antisymmetry, ad-invariance, and vanishing on
    pairs (and, when the rank allows, triples) of Cartan directions."""
    import numpy as np

    c, f = sc.c, sc.f
    anti = 0.0
    for perm, sign in (((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                       ((1, 2, 0), 1), ((2, 0, 1), 1)):
        anti = max(anti, float(np.max(np.abs(np.transpose(c, perm) - sign * c))))
    inv = (
        np.einsum("wxa,ayz->wxyz", f, c)
        + np.einsum("wya,xaz->wxyz", f, c)
        + np.einsum("wza,xya->wxyz", f, c)
    )
    invariance = float(np.max(np.abs(inv)))
    h = list(sc.cartan_indices)
    pair = float(np.max(np.abs(c[np.ix_(h, h)]))) if len(h) >= 1 else 0.0
    triple = float(np.max(np.abs(c[np.ix_(h, h, h)]))) if len(h) >= 3 else None
    jac = sc.jacobi_residual()
    checks = [anti, invariance, pair, jac] + ([triple] if triple is not None else [])
    return CFormReport(
        algebra=sc.algebra,
        dim=sc.dim,
        rank=len(h),
        antisymmetry=anti,
        invariance=invariance,
        cartan_pair=pair,
        cartan_triple=triple,
        jacobi=jac,
        tolerance=tolerance,
        passed=all(x < tolerance for x in checks),
    )


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
    alg_rows = [check_c_form(StructureConstants(a)).as_dict() for a in ("su2", "su3", "su4")]
    return {
        "grid": grid,
        "expected_integral": -1.0 / 6.0,
        "cutoffs": cut_rows,
        "structure_constants": alg_rows,
        "passed": all(r["passed"] for r in cut_rows) and all(r["passed"] for r in alg_rows),
    }
