"""Dual bundles, torsor shifts, and the Langlands construction."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual_lie.errors import TdualError, Unavailable
from tdual_lie.flagcoh import chern_classes, class_in_h3, is_cycle
from tdual_lie.rootdata import (
    RootDatum,
    _dual_label,
    build,
    fundamental_group_of,
    langlands_dual,
    named_group,
    require_phi,
)
from tdual_lie.tduality import (
    dual_chern,
    langlands_twist,
    level_twist,
    reduction_torsor_shift,
    shift_matrix,
    verify_langlands_tdual,
)
from tdual_lie.zlinalg import IntMatrix, column_hermite_form

from oracles import (
    bareiss_det,
    bfield_shift,
    block_matching_phi,
    clear_caches,
    coords,
    free_lattice,
    root_data,
    standard_lattice,
    subquotient,
    tensor_complex,
    weyl_elements_on_coweights,
    with_fundamental_group,
)


def test_dual_chern_zero():
    data = dual_chern(named_group("SU(2)"), IntMatrix.zero(1, 1))
    assert data["dual_chern_lattice"] == [[]]  # rank 0
    assert data["dual_chern_classes"] == [[0]]


def test_dual_chern_su2_lens_chain():
    rd = named_group("SU(2)")
    for k in (1, 2, 3):
        data = dual_chern(rd, IntMatrix([[k]]))
        # Class-k twist dualizes to the lens-space bundle of index k.
        assert data["dual_chern_lattice"] == [[k]]
        assert subgroup_index(data["dual_chern_lattice"]) == k
    assert dual_chern(rd, level_twist(rd, 1))["dual_chern_lattice"] == [[2]]


def subgroup_index(basis_rows) -> int:
    return abs(bareiss_det(IntMatrix(basis_rows)))


def test_dual_chern_depends_only_on_image():
    rd = named_group("SU(3)")
    u = level_twist(rd, 1)
    # Negation is a different cycle representative with the same image.
    a = dual_chern(rd, u)
    b = dual_chern(rd, u.scale(-1))
    assert a["dual_chern_lattice"] == b["dual_chern_lattice"]
    assert a["dual_chern_classes"] != b["dual_chern_classes"]  # tuples are basis-dependent


def test_dual_chern_requires_cycle():
    rd = named_group("SU(3)")
    with pytest.raises(TdualError, match=r"^twist is not a cycle for SU\(3\)$"):
        dual_chern(rd, IntMatrix([[1, 0], [0, 0]]))


@pytest.mark.parametrize("name", ["SU(3)", "PSU(4)"])
def test_every_twist_entry_refuses_a_non_cycle(name):
    """`class_in_h3`, `dual_chern` and `reduction_torsor_shift` share one
    guard, and each raises TdualError with its message on a non-cycle."""
    rd = named_group(name)
    n = rd.rank
    zero, u = IntMatrix.zero(n, n), IntMatrix([[1] + [0] * (n - 1)] + [[0] * n] * (n - 1))
    assert not is_cycle(rd, u)
    for call in (lambda: class_in_h3(rd, u), lambda: dual_chern(rd, u),
                 lambda: reduction_torsor_shift(rd, u, zero)):
        with pytest.raises(TdualError, match=rf"^twist is not a cycle for {re.escape(name)}$"):
            call()


def test_reduction_torsor_shift_matches_formula():
    """Moving the reduction and then reading Chern data must agree with the
    componentwise shift formula (`oracles.bfield_shift`) applied to the old
    Chern data."""
    rng = random.Random(71)
    for name in ["SU(3)", "SU(4)", "PSU(3)"]:
        rd = named_group(name)
        n = rd.rank
        base = level_twist(rd, rng.randint(1, 3))
        c = chern_classes(rd)
        for _ in range(20):
            rows = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
            shift = IntMatrix(rows)
            moved = reduction_torsor_shift(rd, base, shift)
            chat = tuple(map(tuple, dual_chern(rd, base)["dual_chern_classes"]))
            predicted = bfield_shift(chat, shift, c)
            assert dual_chern(rd, moved)["dual_chern_classes"] == [list(v) for v in predicted]
            # The degree-3 class is untouched by the torsor action.
            assert class_in_h3(rd, moved) == class_in_h3(rd, base)


def test_torsor_shift_rank2_product_instantiation():
    """Product of two rank-1 factors: a unit shift exchanges the Chern
    contributions, chat_1' = chat_1 - c_2 and chat_2' = chat_2 + c_1."""
    from tdual_lie.rootdata import build

    rd = build([("A", 1), ("A", 1)])
    base = level_twist(rd, 1)  # chat = (2 w_1, 2 w_2); c = (w_1, w_2)
    moved = reduction_torsor_shift(rd, base, IntMatrix([[0, 1], [0, 0]]))
    assert dual_chern(rd, base)["dual_chern_classes"] == [[2, 0], [0, 2]]
    assert dual_chern(rd, moved)["dual_chern_classes"] == [[2, -1], [1, 2]]


def test_reduction_torsor_shift_additive():
    """Two shifts in turn are their sum in one, and a shift by -B undoes a
    shift by B."""
    rng = random.Random(9)
    rd = named_group("SU(4)")
    n = rd.rank
    base = level_twist(rd, 1)
    for _ in range(10):
        rows = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
        rows2 = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
        b1, b2 = IntMatrix(rows), IntMatrix(rows2)
        two_steps = reduction_torsor_shift(rd, reduction_torsor_shift(rd, base, b1), b2)
        one_step = reduction_torsor_shift(rd, base, b1 + b2)
        assert two_steps == one_step
        assert reduction_torsor_shift(rd, reduction_torsor_shift(rd, base, b1), -b1) == base


def test_reduction_torsor_shift_zero():
    rd = named_group("SU(3)")
    base = level_twist(rd, 2)
    moved = reduction_torsor_shift(rd, base, IntMatrix.zero(2, 2))
    assert moved == base


def test_shift_matrix_checks():
    """A shift is square and strictly upper triangular: `shift_matrix`
    checks it, and `reduction_torsor_shift` refuses a shift that fails."""
    ok = IntMatrix([[0, 1], [0, 0]])
    assert shift_matrix(ok) is ok
    rd = named_group("SU(3)")
    for bad, message in ((IntMatrix([[0, 1]]), "shift matrix must be square"),
                         (IntMatrix([[0, 0], [1, 0]]),
                          "shift entries live strictly above the diagonal"),
                         (IntMatrix([[1, 0], [0, 0]]),
                          "shift entries live strictly above the diagonal")):
        for call in (lambda: shift_matrix(bad),
                     lambda: reduction_torsor_shift(rd, level_twist(rd, 1), bad)):
            with pytest.raises(TdualError, match=f"^{message}$"):
                call()


def test_reduction_torsor_group_is_free_of_wedge2_rank():
    """The group acting simply transitively on the reductions of a fixed
    class is the boundary lattice, the image of d20 in tensor coordinates.
    X has full rank, so d20 is injective and that group is free of rank
    C(n, 2)."""
    for rd in [named_group("SU(2)"), named_group("SU(3)"), named_group("SU(4)"),
               named_group("SO(3)"), named_group("PSU(4)"), named_group("Spin(8)"),
               named_group("G2"), build([("A", 1)] * 3, "adjoint")]:
        n = rd.rank
        boundaries = column_hermite_form(tensor_complex(rd)[0])
        group = subquotient(IntMatrix.zero(n * n, 0), boundaries)
        assert (group.free_rank, group.torsion) == (n * (n - 1) // 2, ()), rd.label


def test_langlands_twist_su2():
    rd = named_group("SU(2)")
    tw = langlands_twist(rd)
    assert tw == IntMatrix([[2]])
    assert tw == level_twist(rd, 1)


def test_langlands_twist_su3_gram():
    rd = named_group("SU(3)")
    tw = langlands_twist(rd)
    assert tw == IntMatrix([[2, -1], [-1, 2]])


def test_langlands_twist_always_cycle():
    for name in ["SU(2)", "SU(3)", "SU(4)", "SU(5)", "SO(3)", "PSU(3)",
                 "Spin(5)", "Spin(8)", "G2", "F4", "E6"]:
        rd = named_group(name)
        assert is_cycle(rd, langlands_twist(rd)), name


def test_langlands_unavailable():
    for name in ["B3", "C4", "Spin(7)", "Sp(3)"]:
        with pytest.raises(Unavailable):
            langlands_twist(named_group(name))
        with pytest.raises(Unavailable):
            verify_langlands_tdual(named_group(name))


def test_require_phi_builds_no_dual_datum(monkeypatch):
    """`require_phi` reads the matching off the datum's series: it reads no
    Cartan block, makes no `RootDatum`, and its `Unavailable` evidence names
    the dual's series through the B <-> C swap."""
    paired, unpaired = build([("B", 3), ("C", 3)]), build([("B", 3), ("A", 2), ("C", 4)])
    paired.cartan = unpaired.cartan = None
    clear_caches()
    made = []
    monkeypatch.setattr(RootDatum, "__init__", lambda self, *args: made.append(args))
    assert require_phi(paired) == (3, 4, 5, 0, 1, 2)
    with pytest.raises(Unavailable) as exc:
        require_phi(unpaired)
    assert made == []
    assert exc.value.evidence == {"components": [["B", 3], ["A", 2], ["C", 4]],
                                  "dual": [["C", 3], ["A", 2], ["B", 4]]}


def test_verify_langlands_examples():
    rep = verify_langlands_tdual(named_group("SU(2)"))
    assert rep["match"] and rep["dual_group"] == "SO(3)"
    assert rep["dual_chern_lattice"] == [[2]]

    rep3 = verify_langlands_tdual(named_group("SU(3)"))
    assert rep3["match"]
    assert subgroup_index(rep3["dual_chern_lattice"]) == 3

    repg = verify_langlands_tdual(named_group("G2"))
    assert repg["match"]
    image = column_hermite_form(IntMatrix(repg["dual_chern_lattice"]))
    assert image == column_hermite_form(standard_lattice(2))  # the weight lattice


def test_verify_langlands_all_supported():
    for name in ["SU(2)", "SU(3)", "SU(4)", "Spin(8)", "G2", "F4", "SO(3)", "PSU(3)", "B2"]:
        rep = verify_langlands_tdual(named_group(name))
        assert rep["available"] and rep["match"], name


def test_langlands_cross_matched_bc_pair():
    """A lone B_n is obstructed, but B_n x C_n maps onto its dual C_n x B_n
    through the factor swap, and the verification goes through.  Only B3 x C3
    is in reach of the product-BFS oracle: on the larger groups the twist is
    defined by the closed-form rule of `langlands_twist`."""
    for comps in ([("B", 3), ("C", 3)], [("B", 5), ("C", 5)], [("B", 8), ("C", 8)],
                  [("B", 3), ("C", 3), ("B", 3), ("C", 3)]):
        rep = verify_langlands_tdual(build(comps))
        assert rep["available"] and rep["match"], comps


def first_bfs_cycle(rd):
    """The first Weyl element, in product-BFS word order, whose transport
    through the Dynkin isomorphism passes the cycle test."""
    pullback = permutation_matrix(require_phi(rd))
    for w in weyl_elements_on_coweights(rd):
        if is_cycle(rd, pullback @ w @ rd.integral):
            return w
    raise AssertionError(f"no Weyl element gives a cycle for {rd.label}")


def permutation_matrix(perm):
    return IntMatrix([[int(p == j) for j in range(len(perm))] for p in perm], cols=len(perm))


# Factors with a Dynkin isomorphism onto their own dual, by Weyl group order.
SELF_DUAL = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("D", 4): 192, ("B", 2): 8, ("G", 2): 12,
             ("F", 4): 1152}
MAX_WEYL_ORDER = 5000  # the oracle then tries at most ~1,700 elements, ~0.7 s


@st.composite
def dualizable_data(draw):
    """Products of rank <= 8 and |W| <= MAX_WEYL_ORDER that map onto their
    Langlands dual: half of them hold B3 and C3 in either order, the rest of
    the factors are simply laced, B2, G2 or F4, each at a drawn position, and
    the fundamental group is simply connected, adjoint or custom.  Half are
    then replaced by their dual, where B2 and G2 list the short root first."""
    comps, order = [], 1
    if draw(st.booleans()):
        comps, order = list(draw(st.permutations([("B", 3), ("C", 3)]))), 48 * 48
    while not comps or draw(st.booleans()):
        rank = sum(r for _, r in comps)
        fits = [f for f, k in SELF_DUAL.items()
                if rank + f[1] <= 8 and order * k <= MAX_WEYL_ORDER]
        if not fits:
            break
        factor = draw(st.sampled_from(fits))
        comps.insert(draw(st.integers(0, len(comps))), factor)
        order *= SELF_DUAL[factor]
    kind = draw(st.sampled_from(["simply_connected", "adjoint", "custom"]))
    rd = with_fundamental_group(draw, comps, kind)
    return langlands_dual(rd) if draw(st.booleans()) else rd


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(dualizable_data())
def test_langlands_transport_is_first_bfs_cycle(rd):
    """The twist is T.B with T = P.w_BFS; B is nonsingular, so equal twists
    mean equal transports."""
    transport = permutation_matrix(require_phi(rd)) @ first_bfs_cycle(rd)
    assert langlands_twist(rd) == transport @ rd.integral


@pytest.mark.parametrize("comps", [
    [("F", 4), ("G", 2)], [("G", 2), ("F", 4)], [("F", 4), ("B", 2)], [("E", 6), ("G", 2)],
    [("D", 4), ("B", 2), ("G", 2)],
], ids=["F4xG2", "G2xF4", "F4xB2", "E6xG2", "D4xB2xG2"])
def test_langlands_transport_is_first_bfs_cycle_table(comps):
    """Products past MAX_WEYL_ORDER whose BFS still ends early, and the
    Langlands dual of each adjoint form."""
    for rd in (build(comps), langlands_dual(build(comps, "adjoint"))):
        transport = permutation_matrix(require_phi(rd)) @ first_bfs_cycle(rd)
        assert langlands_twist(rd) == transport @ rd.integral


# Up to six factors, so that several B_n and C_n of one rank meet.
PAIRINGS = st.lists(st.sampled_from([("B", 3), ("C", 3), ("B", 4), ("C", 4), ("G", 2), ("A", 1)]),
                    min_size=1, max_size=6).map(build)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(root_data(), root_data().map(langlands_dual), dualizable_data(), PAIRINGS))
def test_require_phi_against_the_cartan_matrix(rd):
    """Where `require_phi` returns p, p is a permutation with A[p_j, p_i] =
    A[i, j], so it carries A onto the dual's A^T; it raises Unavailable
    exactly when some rank n >= 3 has unequal numbers of B_n and C_n
    factors.  The permutation, or the message and evidence, are those of
    the block-matching route."""
    count = Counter(rd.components)
    pairless = any(count["B", r] != count["C", r] for _, r in count if r >= 3)
    try:
        expected = block_matching_phi(rd)
    except Unavailable as exc:
        expected = (str(exc), exc.evidence)
    try:
        p = require_phi(rd)
    except Unavailable as exc:
        assert pairless and (str(exc), exc.evidence) == expected
        return
    n, a = rd.rank, rd.cartan
    assert not pairless and sorted(p) == list(range(n))
    assert all(a[p[j], p[i]] == a[i, j] for i in range(n) for j in range(n))
    assert p == expected


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(root_data(), st.booleans())
def test_langlands_report_reads_no_dual_datum(rd, dual):
    """The identity that lets the report skip the dual datum: the dual's
    character basis is B and its label is `_dual_label`'s.  Where the
    Langlands twist exists, its image lattice holds the roots (`match`) and
    is the lattice printed as expected."""
    rd = langlands_dual(rd) if dual else rd
    assert langlands_dual(rd).character_basis == rd.integral
    assert langlands_dual(rd).label == _dual_label(rd)
    try:
        rep = verify_langlands_tdual(rd)
    except Unavailable:
        return
    assert rep["match"] is True
    assert rep["expected_lattice"] == rep["dual_chern_lattice"]
    assert rep["dual_group"] == langlands_dual(rd).label


@pytest.mark.parametrize("name", [
    "SU(2)", "SU(3)", "SU(8)", "PSU(2)", "PSU(3)", "PSU(8)", "SO(3)", "Spin(5)", "Spin(7)",
    "Spin(8)", "Spin(10)", "Spin(11)", "Sp(3)", "Sp(4)",
    "A1", "A4", "B2", "B3", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2",
])
def test_dual_group_names_what_langlands_dual_builds(name):
    """The `dual_group` a report prints (the dual's label where no twist
    exists) is either dual(<name>) or a name that `named_group` resolves to
    a group with the components and pi_1 of `langlands_dual`'s datum."""
    rd = named_group(name)
    dual = langlands_dual(rd)
    try:
        printed = verify_langlands_tdual(rd)["dual_group"]
    except Unavailable:  # an unpaired B_n or C_n, n >= 3
        printed = _dual_label(rd)
    assert printed == dual.label
    if printed != f"dual({name})":
        named = named_group(printed)
        assert named.components == dual.components
        assert fundamental_group_of(named) == fundamental_group_of(dual)


def test_langlands_roundtrip_lens():
    # SO(3)'s Langlands twist is the generator and dualizes back to SU(2).
    rd = named_group("SO(3)")
    tw = langlands_twist(rd)
    data = dual_chern(rd, tw)
    assert subgroup_index(data["dual_chern_lattice"]) == 1  # full weight lattice: dual is SU(2)
    # Its free part c = 2 generates the free lattice 2Z of SO(3)'s c.
    free, tors = class_in_h3(rd, tw)
    assert free == (2,) and tors == ()
    assert coords(free_lattice(rd), free) == (1,)
