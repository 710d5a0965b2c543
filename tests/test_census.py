"""Enumeration of all model structures, oracle equivalence, extension graph."""

import dataclasses
import itertools
import math
import random
from types import SimpleNamespace

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
from modelcat import fincat
from modelcat.catio import fixture_path
from modelcat.fincat import _bits, require_lattice
from modelcat.census import DEFAULT_BUDGET, BudgetExceeded, weak_factorization_systems
from modelcat.cli import run
from modelcat.extend import ExtensionKind
from modelcat.morphclass import (
    CheckResult,
    MorphClass,
    closure_check,
    composition_failure,
    factor_pairs,
)
from oracles import (
    _bit_loop_edges,
    _closure_loop,
    _frozenset_census,
    _pair_loop_triples,
    _table_verify,
)


def _chain(n):
    """The total order [n] = {0 < 1 < ... < n} as a thin category."""
    return from_poset([str(i) for i in range(n + 1)], lambda a, b: int(a) <= int(b))


def _grid_order(p, q):
    """The elements and order of the lattice [p]×[q], as "ij" strings."""
    elements = [f"{i}{j}" for i in range(p + 1) for j in range(q + 1)]
    return elements, lambda a, b: a[0] <= b[0] and a[1] <= b[1]


def _category(name, request):
    """A fixture category by name, the chain ``[n]`` or the grid ``[p]x[q]``."""
    if "]x[" in name:
        p, q = (int(part.strip("[]")) for part in name.split("x"))
        return from_poset(*_grid_order(p, q))
    if name.startswith("["):
        return _chain(int(name[1:-1]))
    return request.getfixturevalue(name)


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


@pytest.mark.parametrize(
    "n, intervals", enumerate([1, 3, 13, 68, 399, 2_530, 16_965])
)
def test_chain_pairs_tried_are_tamari_intervals(n, intervals):
    """On [n] the wfs form the Tamari lattice (Balchin–Barnes–Roitzheim),
    and the pruned census tries the pairs L₁ ⊆ L₂, which are its intervals:
    2(4m+1)! / ((m+1)! (3m+2)!) with m = n + 1 (Chapoton, Sur le nombre
    d'intervalles dans les treillis de Tamari, 2006; OEIS A000260)."""
    m = n + 1
    assert intervals == 2 * math.factorial(4 * m + 1) // (
        math.factorial(m + 1) * math.factorial(3 * m + 2)
    )
    assert enumerate_model_structures(_chain(n), "pruned").candidates_checked == intervals


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
    # a node with W = ∅ is unrelated to the minimal structure (W = isos)
    everything = MorphClass.all_maps(arrow)
    stray = modelstruct.ModelStructure(arrow, MorphClass.empty(arrow), everything, everything)
    with pytest.raises(TheoremViolationError):
        extension_graph(
            dataclasses.replace(arrow_census, structures=arrow_census.structures + (stray,))
        )


def test_enumerate_extensions(arrow, arrow_census, arrow_minimal, diamond_minimal):
    lls = enumerate_extensions(arrow_census, arrow_minimal, "ll")
    assert len(lls) == 2
    assert all(arrow_minimal.W.members < ms.W.members for ms in lls)
    with pytest.raises(InputError):
        enumerate_extensions(arrow_census, diamond_minimal, "ll")
    for kind in ("LL", "", "ll "):  # a misspelled kind is refused, not matched by nothing
        with pytest.raises(InputError, match="unknown extension kind"):
            enumerate_extensions(arrow_census, arrow_minimal, kind)


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


@pytest.mark.parametrize(
    "name", ["arrow", "chain2", "diamond", "[0]", "[1]", "[2]", "[3]", "[4]", "[5]", "bool3"]
)
def test_classify_extension_matches_oracle(name, request):
    """The graph has exactly the edges of :func:`classify_extension` run on
    every ordered pair of census structures, in (i, j) order, and that
    classification agrees with the frozenset oracle on every pair (on
    bool3, whose 1,026² pairs take seconds in the oracle, on the pairs out
    of a seeded sample of 100 structures)."""
    census = _census(name, request)
    nodes = census.structures
    checked = set(range(len(nodes)))
    if name == "bool3":
        checked = set(random.Random(10).sample(sorted(checked), 100))
    classify_edges = []
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            kind = classify_extension(a, b)
            if i in checked:
                assert kind == _classify_oracle(a, b)
            if i != j and kind.kind != "other":
                classify_edges.append((i, j, kind))
    assert list(extension_graph(census).edges) == classify_edges


def test_extension_graph_keeps_equal_edges(chain2_census):
    """A census result that lists a structure twice gets the ``equal``
    edges :func:`classify_extension` gives, both ways, among the others."""
    nodes = chain2_census.structures
    twice = dataclasses.replace(chain2_census, structures=nodes + (nodes[-1],))
    edges = extension_graph(twice).edges
    assert list(edges) == [
        (i, j, kind)
        for i, a in enumerate(twice.structures)
        for j, b in enumerate(twice.structures)
        if i != j and (kind := classify_extension(a, b)).kind != "other"
    ]
    last = len(nodes)
    equal = [(i, j) for i, j, kind in edges if kind.kind == "equal"]
    assert equal == [(last - 1, last), (last, last - 1)]


@pytest.mark.parametrize("name", ["diamond", "[4]", "bool3"])
def test_census_shares_classes_and_reports(name, request):
    """The census builds one class object per distinct member set, and each
    structure's report equals a verification on fresh classes."""
    cat = _category(name, request)
    structures = enumerate_model_structures(cat, "pruned").structures
    classes = [cls for ms in structures for cls in (ms.W, ms.C, ms.F)]
    assert len({id(cls) for cls in classes}) == len({cls.members for cls in classes})
    for ms in structures:
        fresh = (MorphClass(cat, members) for members in ms.triple())
        assert ms.report == modelstruct.verify_model_structure(cat, *fresh)


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


def test_census_refuses_a_non_thin_category(retract, monkeypatch):
    """Every finitely bicomplete finite category is thin, so a census that
    is told a non-thin category is bicomplete raises instead of pairing on
    a preorder view that does not describe it."""
    assert any(len(maps) > 1 for maps in retract.hom_table.values())
    monkeypatch.setattr(
        fincat, "is_finitely_bicomplete", lambda cat: SimpleNamespace(ok=True)
    )
    for mode in ("pruned", "naive"):
        told = dataclasses.replace(retract)  # a fresh copy: no cached verdict
        with pytest.raises(TheoremViolationError):
            enumerate_model_structures(told, mode)


@pytest.mark.parametrize("name", ["pt", "arrow", "chain2", "diamond"])
def test_mask_two_of_three_matches_closure_check(name, request):
    """The per-arrow mask test that the census and ``closure_check`` share
    gives the composable-pair loop's verdict and witness, for composition
    and for two-out-of-three, on every subset class."""
    cat = request.getfixturevalue(name)
    po = require_lattice(cat)
    verdicts = set()
    for W in range(1 << len(cat.morphisms)):
        out = [0] * len(cat.objects)
        for a, b, f in po.arrows:
            if W >> f & 1:
                out[a] |= 1 << b
        cls = MorphClass.of(cat, _bits(W))
        for prop in ("composition", "two_of_three"):
            failure = composition_failure(po, out, prop == "two_of_three")
            want = _closure_loop(cls, prop)
            assert (failure is None) == want.passed
            if failure is not None:
                assert dict(zip(("f", "g", "composite"), failure)) == want.witness
        verdicts.add(failure is None)
    assert verdicts == {True, False} or name == "pt"


def _composite(cat, L, R):
    """R∘L as a bitmask: the maps with some factorization p∘j, j ∈ L, p ∈ R."""
    return sum(
        1 << f
        for f in range(len(cat.morphisms))
        if any(L >> j & 1 and R >> p & 1 for j, p in factor_pairs(cat, f))
    )


def _pruned_triples_loop(cat):
    """Oracle for ``_pruned_triples``: each pair's W from the factorization
    pairs, the W∩L₂ = L₁ and W∩R₁ = R₂ filters, and two-out-of-three by
    ``closure_check`` on a frozenset class; the triples as bitmasks."""
    wfs, _ = weak_factorization_systems(cat)
    found, pairs = [], 0
    for L1, R1 in wfs:
        for L2, R2 in wfs:
            if L1 & ~L2:
                continue
            pairs += 1
            W = _composite(cat, L1, R2)
            if W & L2 != L1 or W & R1 != R2:
                continue
            W_cls = MorphClass(cat, frozenset(_bits(W)))
            if closure_check(W_cls, "two_of_three").passed:
                found.append((W_cls.mask, L2, R1))
    return found, pairs


@pytest.mark.parametrize("name", ["[0]", "[1]", "[2]", "[3]", "[4]", "diamond", "[1]x[2]"])
def test_pruned_triples_match_frozenset_loop(name, request):
    cat = _category(name, request)
    got = census_mod._pruned_triples(cat, require_lattice(cat), DEFAULT_BUDGET)
    assert got == _pruned_triples_loop(cat)


PAIRING_INPUTS = [
    "pt", "arrow", "chain2", "diamond", "bool3",
    *(f"[{n}]" for n in range(7)), "[1]x[2]", "[1]x[3]", "[2]x[2]",
]


@pytest.mark.parametrize("name", PAIRING_INPUTS)
def test_bit_sliced_pairing_matches_the_pair_loop(name, request):
    """The rows of the bit-sliced pairing give the pair loop's triples, in
    its order, and its number of pairs tried."""
    cat = _category(name, request)
    got = census_mod._pruned_triples(cat, require_lattice(cat), 2**30)
    assert got == _pair_loop_triples(cat, 2**30)


@pytest.mark.parametrize("name", ["diamond", "[3]", "[1]x[2]"])
def test_bit_sliced_pairing_keeps_the_budget(name, request):
    """Testing the budget once per row refuses exactly the budgets the
    per-pair test refuses: those below closure steps plus pairs tried."""
    cat = _category(name, request)
    _, steps = weak_factorization_systems(cat)
    _, pairs = _pair_loop_triples(cat, 2**30)
    for budget in (steps + pairs - 1, steps + 1, steps + pairs // 2):
        with pytest.raises(BudgetExceeded):
            census_mod._pruned_triples(cat, require_lattice(cat), budget)
        with pytest.raises(BudgetExceeded):
            _pair_loop_triples(cat, budget)
    assert census_mod._pruned_triples(cat, require_lattice(cat), steps + pairs)[1] == pairs


@pytest.mark.parametrize("name", ["[4]", "diamond", "[1]x[2]"])
def test_dead_filters_never_reject(name, request):
    """For wfs (L₁, R₁), (L₂, R₂) with L₁ ⊆ L₂ and W = R₂∘L₁, always
    W∩L₂ = L₁ and W∩R₁ = R₂ (a map of L₂ that factors as r∘l is a retract
    of l; dually for R₁), which is why the pair loop does not test them."""
    cat = _category(name, request)
    wfs, _ = weak_factorization_systems(cat)
    pairs = 0
    for (L1, R1), (L2, R2) in itertools.product(wfs, repeat=2):
        if not L1 & ~L2:
            W = _composite(cat, L1, R2)
            assert W & L2 == L1 and W & R1 == R2
            pairs += 1
    assert pairs > len(wfs)


def _transfer_systems(elements, leq):
    """Every transfer system on a finite lattice, from the definition: a
    relation R ⊆ ≤ that contains every x R x and is closed under
    composition and restriction (x R y and z ≤ y give (x∧z) R z)."""

    def meet(x, z):
        lower = [w for w in elements if leq(w, x) and leq(w, z)]
        return next(w for w in lower if all(leq(v, w) for v in lower))

    strict = [(x, y) for x in elements for y in elements if x != y and leq(x, y)]
    found = set()
    for r in range(len(strict) + 1):
        for chosen in itertools.combinations(strict, r):
            R = set(chosen) | {(x, x) for x in elements}
            if all((x, w) in R for x, y in R for y2, w in R if y == y2) and all(
                (meet(x, z), z) in R for x, y in R for z in elements if leq(z, y)
            ):
                found.add(frozenset(R))
    return found


@pytest.mark.parametrize("p, q, count", [(1, 1, 10), (1, 2, 68)])
def test_wfs_right_classes_are_transfer_systems(p, q, count):
    """On a lattice the right classes of the weak factorization systems
    are the transfer systems (Franchere–Ormsby–Osorno–Qin–Waugh,
    Self-duality of the lattice of transfer systems via weak factorization
    systems)."""
    elements, leq = _grid_order(p, q)
    cat = from_poset(elements, leq)
    wfs, _ = weak_factorization_systems(cat)
    rights = {
        frozenset(
            (cat.objects[cat.src(f)], cat.objects[cat.tgt(f)])
            for f in range(len(cat.morphisms))
            if R >> f & 1
        )
        for _, R in wfs
    }
    assert len(wfs) == len(rights) == count
    assert rights == _transfer_systems(elements, leq)


def test_bool3_wfs_pinned(bool3):
    """450 transfer systems on the Boolean lattice of rank 3, counted by
    brute force from the definition (87 s, too slow for this suite)."""
    wfs, _ = weak_factorization_systems(bool3)
    assert len(wfs) == 450


@pytest.mark.parametrize("n", range(1, 6))
def test_chain_distinct_weak_equivalences(n):
    """The model structures on [n] have exactly 2ⁿ distinct classes W."""
    result = enumerate_model_structures(_chain(n), "pruned")
    assert len({ms.W.members for ms in result.structures}) == 2 ** n


def test_census_find(arrow_census):
    """``find`` takes any iterables of ids: a hit and a miss on the arrow,
    each structure of [4] found from its member lists, and a miss there."""
    ids = frozenset({0, 1})
    alls = frozenset({0, 1, 2})
    assert arrow_census.find(ids, alls, alls) is not None
    assert arrow_census.find(ids, ids, ids) is None
    result = enumerate_model_structures(_chain(4), "pruned")
    for ms in result.structures:
        assert result.find(*(sorted(members, reverse=True) for members in ms.triple())) is ms
    ids = ms.cat.identity_set
    assert result.find(ids, ids, ids) is None  # the map 0→4 does not factor


@pytest.mark.parametrize("name", PAIRING_INPUTS)
def test_census_matches_the_frozenset_post_processing(name, request):
    """The census on masks gives the structures of the frozenset-era
    post-processing: the same triples in the same order, the same pairs
    tried and, per structure, the same report as the axiom table walk."""
    cat = _category(name, request)
    result = enumerate_model_structures(dataclasses.replace(cat), "pruned")
    structures, pairs = _frozenset_census(dataclasses.replace(cat))
    assert result.candidates_checked == pairs
    assert [ms.triple() for ms in result.structures] == [ms.triple() for ms in structures]
    for got, want in zip(result.structures, structures):
        assert got.report == want.report and got.report.passed is want.report.passed is True
        assert list(got.report.checks) == list(want.report.checks)


@pytest.mark.parametrize("name", PAIRING_INPUTS)
def test_byte_lane_graph_matches_the_bit_loop(name, request):
    """The edges emitted from byte lanes are the per-edge bit loop's edges,
    in the same order, with the same shared kinds."""
    census = enumerate_model_structures(_category(name, request), "pruned")
    edges = extension_graph(census).edges
    want = _bit_loop_edges(census)
    assert all(
        got == expected and got[2] is expected[2]
        for got, expected in itertools.zip_longest(edges, want)
    )


@pytest.mark.parametrize("name", ["arrow", "chain2"])
def test_axiom_walk_matches_the_table_walk(name, request):
    """On every triple of classes that contain the identities, the
    straight-line axiom walk gives the table walk's report, in full and up
    to the first failure."""
    cat = request.getfixturevalue(name)
    pools = [cat.iso_set, cat.identity_set, cat.identity_set]
    rest = [f for f in range(len(cat.morphisms)) if f not in cat.identity_set]
    subsets = [frozenset(c) for r in range(len(rest) + 1) for c in itertools.combinations(rest, r)]
    verdicts = set()
    for W, C, F in itertools.product(subsets, repeat=3):
        triple = [MorphClass(cat, pool | extra) for pool, extra in zip(pools, (W, C, F))]
        for stop_at_first in (False, True):
            got = modelstruct.verify_model_structure(cat, *triple, stop_at_first=stop_at_first)
            want = _table_verify(cat, *triple, stop_at_first=stop_at_first)
            assert (got, repr(got), got.passed) == (want, repr(want), want.passed)
            assert list(got.checks) == list(want.checks)
            verdicts.add((stop_at_first, len(got.checks), got.passed))
    assert (False, 8, True) in verdicts and (False, 8, False) in verdicts
    assert any(stop and length < 8 and not passed for stop, length, passed in verdicts)


def test_class_from_mask(diamond):
    """A class built from its mask is the class of its members: equal, with
    the same mask, hash and ``repr``; a mask with a bit beyond the
    category's maps, or a negative one, is refused like a member outside
    the category."""
    n = len(diamond.morphisms)
    for mask in (0, 1, 0b1010_0110, (1 << n) - 1):
        cls = MorphClass.from_mask(diamond, mask)
        members = MorphClass(diamond, frozenset(_bits(mask)))
        assert (cls, hash(cls), repr(cls)) == (members, hash(members), repr(members))
        assert cls.mask == members.mask == mask
    for mask in (1 << n, (1 << n + 3) | 1, -1):
        with pytest.raises(InputError, match="class members must be morphisms"):
            MorphClass.from_mask(diamond, mask)
    for members in ({n}, {0, -1}):
        with pytest.raises(InputError, match="class members must be morphisms"):
            MorphClass(diamond, frozenset(members))
