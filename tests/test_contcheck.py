"""Numerical checks of the curvature constants."""

import gc
import math
import time
import tracemalloc
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual_lie.contcheck import (
    BUMP_TABLE,
    StructureConstants,
    _bump_integral,
    _bump_table,
    check_c_form,
    continuum_summary,
    cutoff_integral,
    iter_cutoffs,
    _max_abs,
)
from tdual_lie.errors import InadmissibleCutoff

EXPECTED = -1.0 / 6.0  # antiderivative chi^3/3 - chi^2/2 evaluated 0 -> 1


def test_cutoff_integral_all_profiles():
    for name, values in iter_cutoffs():
        val = cutoff_integral(name, values)
        assert abs(val - EXPECTED) < 1e-9, name


def test_cutoff_independence():
    vals = [cutoff_integral(name, values) for name, values in iter_cutoffs()]
    assert max(vals) - min(vals) < 1e-9


def test_nonmonotone_profile_is_nonmonotone():
    name, values = list(iter_cutoffs())[-1]
    assert name == "non-monotone wiggle"
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert any(d < 0 for d in diffs) and any(d > 0 for d in diffs)
    assert abs(cutoff_integral(name, values) - EXPECTED) < 1e-9


def test_inadmissible_profiles_rejected():
    n = 256
    ts = tuple(i / n for i in range(n + 1))
    ramp = ts  # no plateaus
    with pytest.raises(InadmissibleCutoff):
        cutoff_integral("ramp", ramp)
    wrong_end = tuple(0.5 * t for t in ts)
    with pytest.raises(InadmissibleCutoff):
        cutoff_integral("wrong end", wrong_end)
    with pytest.raises(InadmissibleCutoff):
        cutoff_integral("too short", (0.0,) * 8 + (1.0,) * 7)


def test_quadrature_convergence_order():
    """Richardson-style order estimate: error should drop at order >= 2."""
    errs = []
    for n in (64, 128, 256):
        name, values = next(iter_cutoffs(n))
        assert name == "cubic smoothstep"
        errs.append(abs(cutoff_integral(name, values) - EXPECTED))
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


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(-(10 ** 40), 10 ** 40) | st.integers(-1000, 1000), max_size=6),
       st.integers(1, 10 ** 30) | st.integers(1, 64))
def test_max_abs_is_the_rounded_fraction(values, denominator):
    """Int true division is correctly rounded, so `_max_abs` gives the float
    nearest max|v| / denominator, as float(Fraction(...)) does."""
    assert _max_abs(iter(values), denominator) == float(
        Fraction(max(map(abs, values), default=0), denominator))


def _trace(*mats: dict) -> int:
    """tr(M_1 ... M_k) for sparse integer matrices {(row, col): entry}."""
    paths = [(i, j, a) for (i, j), a in mats[0].items()]
    for m in mats[1:]:
        paths = [(i, l, a * b) for i, j, a in paths for (k, l), b in m.items() if j == k]
    return sum(a for i, j, a in paths if i == j)


def _fraction_inverse(rows: list[list[int]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of an invertible integer matrix."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _triple_product_constants(algebra: str) -> tuple[dict, dict]:
    """(c, f) of su(n) by brute force: c[a, b, d] from the two triple
    products tr(X_a X_b X_d) and tr(X_b X_a X_d) over every (a, b, d), and
    f = denominator * Gram^-1 c with the Gram matrix inverted in fractions."""
    n = int(algebra[2:])
    basis = [(1, {(l, l): 1, (l + 1, l + 1): -1}) for l in range(n - 1)]
    for j in range(n):
        for k in range(j + 1, n):
            basis += [(0, {(j, k): 1, (k, j): -1}), (1, {(j, k): 1, (k, j): 1})]
    re_i = (1, 0, -1, 0)
    c = {}
    for (a, (p, x)), (b, (q, y)), (d, (s, z)) in product(enumerate(basis), repeat=3):
        val = -re_i[(p + q + s) % 4] * (_trace(x, y, z) - _trace(y, x, z))
        if val:
            c[a, b, d] = val
    gram = [[-re_i[(p + q) % 4] * _trace(x, y) for q, y in basis] for p, x in basis]
    inv = _fraction_inverse(gram)
    f: dict = defaultdict(int)
    for (a, b, e), val in c.items():
        for d in range(len(basis)):
            f[a, b, d] += 2 * n * inv[d][e] * val
    assert all(val.denominator == 1 for val in f.values())
    return c, {key: int(val) for key, val in f.items() if val}


@pytest.mark.parametrize("algebra", ["su2", "su3", "su4"])
def test_structure_constants_match_triple_products(algebra):
    """The commutator route gives the brute-force c and f, item order included."""
    sc = StructureConstants(algebra)
    c, f = _triple_product_constants(algebra)
    assert sc.denominator == 2 * int(algebra[2:])
    assert list(sc.c.items()) == list(c.items())
    assert list(sc.f.items()) == list(f.items())


NODES = [k / BUMP_TABLE for k in range(BUMP_TABLE + 1)]  # the grid s of the bump table
TABLE = _bump_table()


def _bisect_bump(x: float) -> tuple[int, float]:
    """The table interval holding x, found by bisection among the nodes, and
    the linear interpolation of the bump integral in it."""
    cum, _ = TABLE
    k = min(bisect_right(NODES, x), BUMP_TABLE) - 1
    return k, cum[k] + (x - NODES[k]) * (cum[k + 1] - cum[k]) * BUMP_TABLE


def _assert_bump_index(x: float) -> None:
    k, value = _bisect_bump(x)
    assert min(int(x * BUMP_TABLE), BUMP_TABLE - 1) == k, x
    assert list(_bump_integral([x], TABLE)) == [value], x


def test_bump_index_at_every_table_node():
    """0, 1, every node k/4096 and both float neighbours of each that lie in
    [0, 1]: the table index is int(x * BUMP_TABLE), capped at the last interval."""
    xs = {y for x in NODES for y in (math.nextafter(x, -1.0), x, math.nextafter(x, 2.0))}
    for x in sorted(y for y in xs if 0.0 <= y <= 1.0):
        _assert_bump_index(x)
    assert list(_bump_integral([0.0, 1.0], TABLE)) == [0.0, 1.0]


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.floats(0.0, 1.0))
def test_bump_index_is_the_bisection(x):
    _assert_bump_index(x)


def test_continuum_summary_keeps_no_state():
    """Two calls in one process return equal reports, and the first leaves
    nothing allocated but its report: no table outlives the call that built
    it (a kept bump table would hold about 400 kB)."""
    tracemalloc.start()
    try:
        first = continuum_summary(844)
        gc.collect()  # also empties the interpreter's free lists
        assert tracemalloc.get_traced_memory()[0] < 50_000
        assert continuum_summary(844) == first
    finally:
        tracemalloc.stop()


def _traced_peak(grid: int) -> int:
    tracemalloc.start()
    try:
        continuum_summary(grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_continuum_summary_memory():
    """One cutoff is held at a time: the traced peak is about 100 bytes per
    grid point.  Holding all six profiles on one shared grid takes about 230,
    and six grids with their derivative lists about 480."""
    assert _traced_peak(16384) <= 4_000_000
    assert _traced_peak(131072) <= 150 * 131072
