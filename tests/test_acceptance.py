"""Acceptance criteria, one test per criterion.

Each criterion prints a single pass/fail line (visible with `pytest -s`);
tolerances are pinned here, not configured elsewhere.  Everything is exact
except criterion 9, whose tolerances are 1e-9 (quadrature) and 1e-12
(residuals).
"""

import json
import random
import time
from contextlib import contextmanager

from tdual_lie import cli
from tdual_lie.contcheck import StructureConstants, check_c_form, cutoff_integral, iter_cutoffs
from tdual_lie.errors import Unavailable
from tdual_lie.flagcoh import boundary, cohomology, h3_group, is_cycle
from tdual_lie.loopext import commutator_from_level, fibrewise_trivializable
from tdual_lie.rootdata import build, named_group
from tdual_lie.tduality import (
    langlands_twist,
    level_twist,
    reduction_torsor_shift,
    verify_langlands_tdual,
)
from tdual_lie.zlinalg import IntMatrix

from oracles import (
    bareiss_det,
    bfield_shift,
    count_cosets_brute_force,
    diagonal,
    reflection_matrix,
    standard_lattice,
    subquotient,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{number:02d} {description}: FAIL")
        raise
    print(f"[acceptance] C{number:02d} {description}: PASS")


def test_c01_h3_is_free_rank_one():
    with criterion(1, "H^3(K) = Z for the simply connected sample"):
        for name in ["SU(2)", "SU(3)", "SU(4)", "SU(5)", "Spin(5)", "Sp(3)",
                     "Spin(8)", "G2"]:
            free_rank, torsion = h3_group(named_group(name))
            assert (free_rank, torsion) == (1, ()), (name, free_rank, torsion)


def test_c02_nonsimply_connected_cohomology():
    with criterion(2, "SO(3): H^2=Z/2, H^3=Z; PSU(3): H^2=Z/3"):
        so3 = cohomology(named_group("SO(3)"))
        assert (so3["H2_K"]["free_rank"], so3["H2_K"]["invariant_factors"]) == (0, [2])
        assert (so3["H3_K"]["free_rank"], so3["H3_K"]["invariant_factors"]) == (1, [])
        psu3_h2 = cohomology(named_group("PSU(3)"))["H2_K"]
        assert (psu3_h2["free_rank"], psu3_h2["invariant_factors"]) == (0, [3])


def test_c03_flag_degree_four():
    with criterion(3, "rank H^4(B) matches the Weyl length-2 count; torsion-free"):
        def length2_count(rd):
            gens = [reflection_matrix(rd.cartan.column(i), i) for i in range(rd.rank)]
            ident = IntMatrix.identity(rd.rank)
            depth = {ident: 0}
            frontier = [ident]
            d = 0
            while frontier:
                nxt = []
                for w in frontier:
                    for g in gens:
                        u = g @ w
                        if u not in depth:
                            depth[u] = d + 1
                            nxt.append(u)
                frontier = nxt
                d += 1
            return sum(1 for v in depth.values() if v == 2)

        for name, want in [("A1", 0), ("A2", 2)]:
            rd = named_group(name)
            grp = cohomology(rd)["H4_B"]
            assert grp["free_rank"] == want == length2_count(rd), name
            assert grp["invariant_factors"] == [], name


def test_c04_trivializability_criterion():
    with criterion(4, "fibrewise trivializability booleans"):
        su2 = named_group("SU(2)")
        for level in (0, 1, 2, 3, 7):
            assert fibrewise_trivializable(commutator_from_level(su2, level))["trivializable"]
        for n in (3, 4, 5, 6):
            rd = named_group(f"SU({n})")
            rep = fibrewise_trivializable(commutator_from_level(rd, 1))
            assert rep["trivializable"] is False
            assert rep["witness_value"] == "1/2"
        su3 = named_group("SU(3)")
        assert fibrewise_trivializable(commutator_from_level(su3, 2))["trivializable"] is True


def test_c05_langlands_tduality():
    with criterion(5, "Langlands dual bundle matches; B/C obstruction reported"):
        for name in ["SU(2)", "SU(3)", "SU(4)", "Spin(8)", "G2", "F4"]:
            rep = verify_langlands_tdual(named_group(name))
            assert rep["available"] and rep["match"], name
        su2 = verify_langlands_tdual(named_group("SU(2)"))
        assert su2["dual_chern_lattice"] == [[2]]
        for name in ["B3", "C4"]:
            try:
                langlands_twist(named_group(name))
            except Unavailable:
                pass
            else:
                raise AssertionError(f"{name} should have no Langlands twist")


def test_c06_dualizability_random_cycles():
    with criterion(6, "dualizability positive for random cycle twists"):
        rng = random.Random(20260809)
        for name in ["SU(3)", "SO(3)"]:
            rd = named_group(name)
            n = rd.rank
            for _ in range(10):
                u = level_twist(rd, rng.randint(0, 3))
                s = IntMatrix([[rng.randint(-3, 3) if a < b else 0 for b in range(n)]
                               for a in range(n)])
                u = u + boundary(rd, s)
                assert is_cycle(rd, u)
                rep = cli.report_twist(rd, u)
                assert rep["dualizable"] is True and len(rep["dualizability_notes"]) == 3


def test_c07_bfield_shift():
    with criterion(7, "shift formula: hand instances, additivity, inversion"):
        # Hand expansion at n=2 with B_12 = b: chat_1' = chat_1 - b c_2,
        # chat_2' = chat_2 + b c_1.
        for b in (1, 2, -3):
            c = ((1, 2), (3, 4))
            chat = ((5, 6), (7, 8))
            moved = bfield_shift(chat, IntMatrix([[0, b], [0, 0]]), c)
            assert moved[0] == (5 - b * 3, 6 - b * 4)
            assert moved[1] == (7 + b * 1, 8 + b * 2)
        # The same expansion through the moved twist, whose columns are the
        # dual Chern classes: on A1 x A1 at level 1, chat = (2, 0), (0, 2)
        # and c = (1, 0), (0, 1).
        rd = build([("A", 1), ("A", 1)])
        for b in (1, 2, -3):
            moved = reduction_torsor_shift(rd, level_twist(rd, 1), IntMatrix([[0, b], [0, 0]]))
            assert moved.columns() == [(2, -b), (b, 2)]

        rng = random.Random(7)
        for _ in range(100):
            n = rng.choice((2, 3))
            dim = 2
            mk = lambda: tuple(tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(n))
            c, chat = mk(), mk()
            rows1 = [[rng.randint(-5, 5) if j > i else 0 for j in range(n)] for i in range(n)]
            rows2 = [[rng.randint(-5, 5) if j > i else 0 for j in range(n)] for i in range(n)]
            b1, b2 = IntMatrix(rows1), IntMatrix(rows2)
            assert bfield_shift(bfield_shift(chat, b1, c), b2, c) == \
                bfield_shift(chat, b1 + b2, c)
            assert bfield_shift(bfield_shift(chat, b1, c), -b1, c) == chat


def test_c08_normal_form_substrate():
    with criterion(8, "1000 random SNFs + coset-count cross-check"):
        from tdual_lie.zlinalg import column_hermite_form, smith_normal_form

        rng = random.Random(1234)
        checked_orders = 0
        for _ in range(1000):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)])
            u, d = smith_normal_form(m)
            assert len(d) == min(rows, cols)
            # Equal column lattices of U m and diag(d): diag(d) = U m V, V
            # unimodular.
            assert abs(bareiss_det(u)) == 1
            assert column_hermite_form(u @ m) == column_hermite_form(diagonal(d, rows, cols))
            assert all(x >= 0 for x in d)
            nz = [x for x in d if x != 0]
            assert list(d[:len(nz)]) == nz
            assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
            if rows == cols and 0 != abs(bareiss_det(m)) <= 50 and checked_orders < 25:
                order = subquotient(m, standard_lattice(rows)).order()
                assert order == abs(bareiss_det(m)) == count_cosets_brute_force(m)
                checked_orders += 1
        assert checked_orders >= 10


def test_c09_continuum_constants():
    with criterion(9, "cutoff integral -1/6 within 1e-9; c-form residuals < 1e-12"):
        start = time.monotonic()
        cutoffs = list(iter_cutoffs(4096))
        assert len(cutoffs) >= 5
        for name, values in cutoffs:
            assert abs(cutoff_integral(name, values) + 1.0 / 6.0) < 1e-9, name
        for algebra in ("su2", "su3", "su4"):
            rep = check_c_form(StructureConstants(algebra))
            assert rep["passed"] and rep["tolerance"] == 1e-12, rep
            assert rep["cartan_pair_residual"] < 1e-12
            if algebra == "su4":
                triple = rep["cartan_triple_residual"]
                assert triple is not None and triple < 1e-12
        assert time.monotonic() - start < 2.0


def test_c10_cli_determinism(capsys):
    with criterion(10, "repeated CLI runs emit byte-identical JSON"):
        for argv in (
            ["cohomology", "--group", "SO(3)", "--format", "json"],
            ["langlands", "--group", "SU(3)", "--format", "json"],
            ["extension", "--group", "SU(4)", "--level", "1", "--format", "json"],
        ):
            assert cli.main(argv) == 0
            first = capsys.readouterr().out
            assert cli.main(argv) == 0
            second = capsys.readouterr().out
            assert first == second
            json.loads(first)  # and it is valid JSON
