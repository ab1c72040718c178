"""Numerical checks of the curvature constants."""

import math
import time

import pytest

from tdual_lie.contcheck import (
    Cutoff,
    StructureConstants,
    check_c_form,
    continuum_summary,
    cutoff_cubic,
    cutoff_integral,
    cutoff_overshoot,
    standard_cutoffs,
)
from tdual_lie.errors import InadmissibleCutoff

EXPECTED = -1.0 / 6.0  # antiderivative chi^3/3 - chi^2/2 evaluated 0 -> 1


def test_cutoff_integral_all_profiles():
    for cutoff in standard_cutoffs():
        val = cutoff_integral(cutoff)
        assert abs(val - EXPECTED) < 1e-9, cutoff.name


def test_cutoff_independence():
    vals = [cutoff_integral(c) for c in standard_cutoffs()]
    assert max(vals) - min(vals) < 1e-9


def test_nonmonotone_profile_is_nonmonotone():
    c = cutoff_overshoot()
    diffs = [b - a for a, b in zip(c.values, c.values[1:])]
    assert any(d < 0 for d in diffs) and any(d > 0 for d in diffs)
    assert abs(cutoff_integral(c) - EXPECTED) < 1e-9


def test_inadmissible_profiles_rejected():
    n = 256
    ts = tuple(i / n for i in range(n + 1))
    ramp = ts  # no plateaus
    with pytest.raises(InadmissibleCutoff):
        cutoff_integral(Cutoff("ramp", ts, ramp))
    wrong_end = tuple(0.5 * t for t in ts)
    with pytest.raises(InadmissibleCutoff):
        cutoff_integral(Cutoff("wrong end", ts, wrong_end))
    nonuniform = tuple(t * t for t in ts)
    with pytest.raises(InadmissibleCutoff):
        cutoff_integral(Cutoff("bad grid", nonuniform, ts))


def test_quadrature_convergence_order():
    """Richardson-style order estimate: error should drop at order >= 2."""
    errs = []
    for n in (64, 128, 256):
        errs.append(abs(cutoff_integral(cutoff_cubic(n)) - EXPECTED))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)
              if errs[i + 1] > 1e-15]
    assert orders, "errors already at machine precision; lower the base grid"
    assert min(orders) >= 2.0


def test_structure_constants_su2_levi_civita():
    sc = StructureConstants("su2")
    assert sc.dim == 3
    scale = sc.c[0, 1, 2]
    assert abs(scale) > 1e-9
    for i in range(3):
        for j in range(3):
            for k in range(3):
                eps = 0
                if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                    eps = 1
                elif (i, j, k) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
                    eps = -1
                assert sc.c.get((i, j, k), 0) == scale * eps


def test_structure_constants_basic_normalization():
    # Cartan generators are coroot directions of squared length 2; the Gram
    # matrix is the A_{n-1} Cartan matrix on them and 2 on every root direction.
    for name in ("su2", "su3", "su4"):
        sc = StructureConstants(name)
        r = len(sc.cartan_indices)
        for h in sc.cartan_indices:
            assert sc.gram[h][h] == 2
        for a in range(sc.dim):
            for b in range(sc.dim):
                cartan = -1 if a < r and b < r and abs(a - b) == 1 else 0
                assert sc.gram[a][b] == (2 if a == b else cartan), (name, a, b)


def test_check_c_form_all():
    start = time.monotonic()
    for name in ("su2", "su3", "su4"):
        rep = check_c_form(StructureConstants(name))
        assert rep["passed"], rep
        assert rep["antisymmetry_residual"] < 1e-12
        assert rep["invariance_residual"] < 1e-12
        assert rep["cartan_pair_residual"] < 1e-12
        assert rep["jacobi_residual"] < 1e-12
    assert time.monotonic() - start < 2.0


def test_su4_has_cartan_triples():
    rep = check_c_form(StructureConstants("su4"))
    assert rep["rank"] == 3
    assert rep["cartan_triple_residual"] is not None and rep["cartan_triple_residual"] < 1e-12
    assert check_c_form(StructureConstants("su3"))["cartan_triple_residual"] is None


def test_summary_shape():
    summary = continuum_summary(4096)
    assert summary["passed"]
    assert len(summary["cutoffs"]) >= 5
    assert {row["algebra"] for row in summary["structure_constants"]} == {"su2", "su3", "su4"}


def test_c_form_residuals_exactly_zero():
    """The constants are exact: every residual is 0, and f has exactly the
    nonzero entries of the su(n) brackets (6, 56 and 176)."""
    for name, nonzero in (("su2", 6), ("su3", 56), ("su4", 176)):
        sc = StructureConstants(name)
        assert len(sc.f) == nonzero
        row = check_c_form(sc)
        residuals = [v for k, v in row.items() if k.endswith("_residual") and v is not None]
        assert len(residuals) == (5 if name == "su4" else 4)
        assert residuals == [0.0] * len(residuals), row

