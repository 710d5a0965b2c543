"""Enumeration of all model structures, oracle equivalence, extension graph."""

import math

import pytest

from modelcat import (
    InputError,
    TheoremViolationError,
    classify_extension,
    enumerate_extensions,
    enumerate_model_structures,
    extension_graph,
    from_poset,
    modelstruct,
)
from modelcat import census as census_mod
from modelcat.catio import fixture_path
from modelcat.census import BudgetExceeded, weak_factorization_systems
from modelcat.cli import run
from modelcat.extend import ExtensionKind
from modelcat.morphclass import CheckResult


def _chain(n):
    """The total order [n] = {0 < 1 < ... < n} as a thin category."""
    return from_poset([str(i) for i in range(n + 1)], lambda a, b: int(a) <= int(b))


def test_point_census(pt):
    result = enumerate_model_structures(pt, "naive")
    assert len(result.structures) == 1
    only = result.structures[0]
    assert only.triple() == (frozenset({0}), frozenset({0}), frozenset({0}))


def test_arrow_census_pinned(arrow):
    """The three structures on the walking arrow, first computed by the
    naive oracle and frozen here."""
    ids = frozenset({0, 1})
    alls = frozenset({0, 1, 2})
    expected = {
        (ids, alls, alls),  # W = isos: the minimal structure
        (alls, ids, alls),
        (alls, alls, ids),
    }
    naive = enumerate_model_structures(arrow, "naive")
    assert naive.triples() == expected
    assert naive.candidates_checked == 2 ** 3
    pruned = enumerate_model_structures(arrow, "pruned")
    assert pruned.triples() == expected
    assert pruned.candidates_checked <= naive.candidates_checked


def test_chain2_census_pinned(chain2, chain2_census):
    naive = enumerate_model_structures(chain2, "naive")
    assert len(naive.structures) == 10
    assert naive.triples() == chain2_census.triples()


def test_diamond_census_pinned(diamond_census):
    assert len(diamond_census.structures) == 23
    for ms in diamond_census.structures:
        assert ms.verified
        assert ms.cat.identity_set <= ms.W.members
        assert ms.cat.identity_set <= ms.C.members
        assert ms.cat.identity_set <= ms.F.members


def test_census_rejects_bad_input(retract, arrow):
    with pytest.raises(InputError):
        enumerate_model_structures(retract)  # not bicomplete
    with pytest.raises(InputError):
        enumerate_model_structures(arrow, "heuristic")


def test_budget_guard(bool3):
    with pytest.raises(BudgetExceeded):
        enumerate_model_structures(bool3, "naive", budget=1000)


def test_pruned_budget_guard(bool3, capsys, monkeypatch):
    """The budget bounds closure steps plus pairs tried in pruned mode."""
    with pytest.raises(BudgetExceeded):
        enumerate_model_structures(bool3, "pruned", budget=100)
    monkeypatch.setenv("MCX_BUDGET", "100")
    assert run(["census", str(fixture_path("bool3.cat"))]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", range(6))
def test_chain_census_closed_form(n):
    """[n] carries C(2n+1, n) model structures (Balchin–Ormsby–Osorno–
    Roitzheim, Model structures on finite total orders)."""
    result = enumerate_model_structures(_chain(n), "pruned")
    assert len(result.structures) == math.comb(2 * n + 1, n)


@pytest.mark.parametrize("n, catalan", enumerate([1, 2, 5, 14, 42]))
def test_chain_wfs_are_catalan(n, catalan):
    """The weak factorization systems on [n] correspond to the transfer
    systems on [n], counted by Catalan(n + 1) (Balchin–Barnes–Roitzheim,
    N∞-operads and associahedra)."""
    wfs, _ = weak_factorization_systems(_chain(n))
    assert len(wfs) == catalan


def test_bool3_census(bool3_census):
    assert len(bool3_census.structures) == 1026
    assert all(ms.verified for ms in bool3_census.structures)


def test_default_budget_refuses_bool4():
    """The 16-element Boolean lattice is refused under the default budget
    (about two seconds of closure steps), not after half an hour."""
    bool4 = from_poset([str(k) for k in range(16)], lambda a, b: int(a) & ~int(b) == 0)
    with pytest.raises(BudgetExceeded):
        enumerate_model_structures(bool4)


def test_census_consistency_checks_raise(arrow, arrow_census, monkeypatch):
    """Both census self-checks raise TheoremViolationError, which is not
    stripped by ``python -O`` the way an assert is."""
    with monkeypatch.context() as m:
        m.setattr(
            modelstruct,
            "verify_model_structure",
            lambda *args, **kwargs: modelstruct.AxiomReport(
                {"two_of_three_W": CheckResult.fail("forced failure")}
            ),
        )
        with pytest.raises(TheoremViolationError):
            enumerate_model_structures(arrow, "pruned")
    unrelated = ExtensionKind("other", False, False, False)
    with monkeypatch.context() as m:
        m.setattr(census_mod, "classify_extension", lambda base, ext: unrelated)
        with pytest.raises(TheoremViolationError):
            extension_graph(arrow_census)


def test_enumerate_extensions(arrow, arrow_census, arrow_minimal, diamond_minimal):
    lls = enumerate_extensions(arrow_census, arrow_minimal, "ll")
    assert len(lls) == 2
    assert all(arrow_minimal.W.members < ms.W.members for ms in lls)
    with pytest.raises(InputError):
        enumerate_extensions(arrow_census, diamond_minimal, "ll")


@pytest.mark.parametrize("census_name", ["arrow_census", "chain2_census", "diamond_census"])
def test_extension_graph(census_name, request):
    census = request.getfixturevalue(census_name)
    graph = extension_graph(census)  # asserts ll-reachability internally
    mi = graph.minimal_index
    assert graph.nodes[mi].W.members == census.cat.iso_set
    for i, j, kind in graph.edges:
        assert i != j and kind.kind != "other"


def _classify_oracle(base, ext):
    """Oracle for ``classify_extension``: the containments read on the
    member frozensets."""
    if base.cat != ext.cat:
        raise InputError("structures live over different categories")
    W, C, F = base.W.members, base.C.members, base.F.members
    Wg, Cg, Fg = ext.W.members, ext.C.members, ext.F.members
    if (W, C, F) == (Wg, Cg, Fg):
        kind = "equal"
    elif not (W <= Wg):
        kind = "other"
    elif Cg <= C and Fg <= F:
        kind = "ll"
    elif Cg <= C and F <= Fg:
        kind = "lm"
    elif C <= Cg and Fg <= F:
        kind = "ml"
    elif C <= Cg and F <= Fg:
        kind = "mm"
    else:
        kind = "other"
    return ExtensionKind(
        kind=kind,
        left_bousfield=kind in ("equal", "ll") and Cg == C,
        right_bousfield=kind in ("equal", "ll") and Fg == F,
        proper_W=W < Wg,
    )


def _census(name, request):
    """A census fixture by category name, or the pruned census of the
    chain ``[n]`` for ``name == "[n]"``."""
    if name.startswith("["):
        return enumerate_model_structures(_chain(int(name[1:-1])), "pruned")
    return request.getfixturevalue(f"{name}_census")


@pytest.mark.parametrize("name", ["arrow", "chain2", "diamond", "[3]"])
def test_classify_extension_matches_oracle(name, request):
    """The bitmask classification agrees with the frozenset oracle on every
    ordered pair of census structures, and the graph has exactly the
    oracle's edges."""
    census = _census(name, request)
    oracle_edges = []
    for i, a in enumerate(census.structures):
        for j, b in enumerate(census.structures):
            kind = _classify_oracle(a, b)
            assert classify_extension(a, b) == kind
            if i != j and kind.kind != "other":
                oracle_edges.append((i, j, kind))
    assert list(extension_graph(census).edges) == oracle_edges


@pytest.mark.parametrize(
    "name", ["arrow", "chain2", "diamond", "[0]", "[1]", "[2]", "[3]", "[4]", "bool3"]
)
def test_extension_graph_invariants(name, request):
    """A model structure is determined by C and F (Joyal–Tierney, Prop.
    7.8), so between distinct structures there is no mm edge and no ll edge
    with both Bousfield flags; and ll (W grows, C and F shrink) is
    transitive."""
    graph = extension_graph(_census(name, request))
    succ = [0] * len(graph.nodes)
    for i, j, kind in graph.edges:
        assert i != j and kind.kind != "mm"
        if kind.kind == "ll":
            assert not (kind.left_bousfield and kind.right_bousfield)
            succ[i] |= 1 << j
    for i, reach in enumerate(succ):
        for j in range(len(succ)):
            if reach >> j & 1:
                # every ll-successor of j other than i is an ll-successor of i
                assert not succ[j] & ~(1 << i) & ~reach
    if name == "bool3":  # pinned from the frozenset classification
        assert sum(bin(reach).count("1") for reach in succ) == 70_651


def test_census_find(arrow_census):
    ids = frozenset({0, 1})
    alls = frozenset({0, 1, 2})
    assert arrow_census.find(ids, alls, alls) is not None
    assert arrow_census.find(ids, ids, ids) is None
