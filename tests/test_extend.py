"""Hypothesis checkers, constructive engines, and classification."""

import dataclasses
import itertools

import pytest

from modelcat import (
    ExtensionCandidate,
    HypothesisError,
    HypothesisReport,
    InputError,
    ModelStructure,
    MorphClass,
    SquareLiftProblem,
    boundary_objects,
    build_extension,
    check_invariance,
    check_properness,
    check_thm12,
    check_thm15,
    check_thm17,
    classify_extension,
    factor_c_then_trivfib,
    find_lift,
    lemma11_lift,
    mapping_cylinder_factorization,
    modelstruct,
    prop14_build,
)
from modelcat import extend as extend_mod
from modelcat.extend import (
    check_fibration_transfer,
    cofibrant_approximation_square,
    lemma11_assumptions,
)
from modelcat.census import extension_graph
from modelcat.fincat import opposite
from oracles import _rewrapped_thm15


def _mid(cat, name):
    return next(i for i, m in enumerate(cat.morphisms) if m.name == name)


def _cls(cat, members):
    return MorphClass(cat, frozenset(members))


def _subsets(pool):
    for r in range(len(pool) + 1):
        yield from (frozenset(c) for c in itertools.combinations(sorted(pool), r))


def _self_candidate(ms, kind="ll"):
    return ExtensionCandidate(ms, ms.W, ms.C, ms.F, kind=kind)


# -- candidate validation -----------------------------------------------


def test_candidate_containments(arrow_minimal, arrow):
    f = _mid(arrow, "f")
    with pytest.raises(HypothesisError):
        # W must not shrink
        ExtensionCandidate(
            arrow_minimal, _cls(arrow, {0}), arrow_minimal.C, arrow_minimal.F
        )
    with pytest.raises(HypothesisError):
        # lm candidates must grow F, and the minimal F is already everything,
        # so shrinking it is rejected
        ExtensionCandidate(
            arrow_minimal, arrow_minimal.W, arrow_minimal.C, _cls(arrow, {0, 1}), kind="lm"
        )
    with pytest.raises(InputError):
        ExtensionCandidate(
            arrow_minimal, arrow_minimal.W, arrow_minimal.C, arrow_minimal.F, kind="zz"
        )


def test_candidate_kind_is_checked_first(diamond, diamond_minimal, arrow):
    """An unknown kind is refused as such before any containment or the
    base is read: here W_g = ∅ misses the identities in W, and the second
    base is not verified."""
    with pytest.raises(InputError, match="candidate kind must be 'll' or 'lm'"):
        ExtensionCandidate(
            diamond_minimal, MorphClass.empty(diamond), diamond_minimal.C, diamond_minimal.F,
            kind="xx",
        )
    ids = MorphClass.identities(arrow)
    with pytest.raises(InputError, match="candidate kind must be 'll' or 'lm'"):
        ExtensionCandidate(ModelStructure(arrow, ids, ids, ids), ids, ids, ids, kind="xx")


def test_candidate_needs_verified_base(arrow):
    broken = ModelStructure(
        arrow,
        MorphClass.identities(arrow),
        MorphClass.identities(arrow),
        MorphClass.identities(arrow),
    )
    with pytest.raises(HypothesisError):
        ExtensionCandidate(broken, broken.W, broken.C, broken.F)


# -- the main hypothesis list -------------------------------------------


def test_thm12_self_candidate_passes(diamond_minimal):
    report = check_thm12(_self_candidate(diamond_minimal))
    assert report.theorem == "1.2"
    assert sorted(report.verdicts) == [str(i) for i in range(1, 9)]
    assert report.passed


def test_thm12_known_lifting_failure(arrow, arrow_minimal):
    f = _mid(arrow, "f")
    alls = MorphClass.all_maps(arrow)
    cand = ExtensionCandidate(arrow_minimal, alls, alls, alls)
    report = check_thm12(cand)
    assert not report.passed
    key, check = report.first_failure()
    assert key == "7"
    assert check.witness == {
        "i": f,
        "p": f,
        "top": arrow.identities[0],
        "bottom": arrow.identities[1],
    }


def test_thm12_cofibrant_coincidence_failure(diamond, diamond_minimal):
    # keeping only identity cofibrations changes which objects are cofibrant
    cand = ExtensionCandidate(
        diamond_minimal,
        MorphClass.all_maps(diamond),
        MorphClass.identities(diamond),
        MorphClass.all_maps(diamond),
    )
    report = check_thm12(cand)
    assert not report.verdicts["4"].passed


def test_thm12_stop_at_first(arrow, arrow_minimal):
    alls = MorphClass.all_maps(arrow)
    cand = ExtensionCandidate(arrow_minimal, alls, alls, alls)
    report = check_thm12(cand, stop_at_first=True)
    assert list(report.verdicts) == ["1", "2", "3", "4", "5", "6", "7"]


def test_build_extension(diamond, diamond_minimal, diamond_census):
    # every census structure is reachable from the minimal one
    built = 0
    for ms in diamond_census.structures:
        cand = ExtensionCandidate(diamond_minimal, ms.W, ms.C, ms.F)
        if check_thm12(cand, stop_at_first=True).passed:
            ext = build_extension(cand)
            assert ext.verified
            assert ext.triple() == ms.triple()
            built += 1
    assert built > 0
    bad = ExtensionCandidate(
        diamond_minimal,
        MorphClass.all_maps(diamond),
        MorphClass.identities(diamond),
        MorphClass.all_maps(diamond),
    )
    with pytest.raises(HypothesisError):
        build_extension(bad)


def test_thm15_matches_dual_check(diamond, diamond_minimal, diamond_census):
    op = opposite(diamond)
    base_op = ModelStructure.build(
        op,
        MorphClass(op, diamond_minimal.W.members),
        MorphClass(op, diamond_minimal.F.members),
        MorphClass(op, diamond_minimal.C.members),
    )
    assert base_op.verified
    for ms in diamond_census.structures:
        cand = ExtensionCandidate(diamond_minimal, ms.W, ms.C, ms.F)
        primal = check_thm15(cand)
        dual = check_thm12(
            ExtensionCandidate(
                base_op,
                MorphClass(op, ms.W.members),
                MorphClass(op, ms.F.members),
                MorphClass(op, ms.C.members),
            )
        )
        assert primal.theorem == "1.5"
        assert {k: v.passed for k, v in primal.verdicts.items()} == {
            k: v.passed for k, v in dual.verdicts.items()
        }


def _thm15_rebuilding(cand):
    """Oracle for check_thm15: a fresh opposite base, built and verified on
    every call, under the primal checker with (W, F, C) swapped."""
    base, op = cand.base, opposite(cand.base.cat)
    base_op = ModelStructure.build(
        op,
        MorphClass(op, base.W.members),
        MorphClass(op, base.F.members),
        MorphClass(op, base.C.members),
    )
    assert base_op.verified
    report = check_thm12(
        ExtensionCandidate(
            base_op,
            MorphClass(op, cand.W_g.members),
            MorphClass(op, cand.F_g.members),
            MorphClass(op, cand.C_g.members),
        )
    )
    return HypothesisReport("1.5", report.verdicts)


def test_thm15_verifies_the_opposite_base_once(diamond, diamond_minimal, monkeypatch):
    base = dataclasses.replace(diamond_minimal)  # nothing cached yet
    verified = []
    real = modelstruct.verify_model_structure

    def counting(cat, *args, **kwargs):
        verified.append(cat)
        return real(cat, *args, **kwargs)

    monkeypatch.setattr(modelstruct, "verify_model_structure", counting)
    cand = _self_candidate(base)
    first, second = check_thm15(cand), check_thm15(cand)
    assert verified == [opposite(diamond)]
    assert first == second and first.passed
    assert base.opposite is base.opposite and base.opposite.cat is opposite(diamond)
    assert base == diamond_minimal and repr(base) == repr(diamond_minimal)


def test_thm15_shares_the_opposite_classes(diamond, diamond_minimal, diamond_census, monkeypatch):
    """Two checks over one candidate walk the Thm 1.2 table on opposite
    candidates with the same opposite class objects, cached on the
    candidate's classes, so the second check reads the first one's closure
    verdicts."""
    seen = []
    dual = extend_mod._opposite_candidate

    def recording(cand):
        seen.append(dual(cand))
        return seen[-1]

    monkeypatch.setattr(extend_mod, "_opposite_candidate", recording)
    ms = diamond_census.structures[-1]
    cand = ExtensionCandidate(diamond_minimal, ms.W, ms.C, ms.F)
    first, second = check_thm15(cand), check_thm15(cand)
    assert first == second == _thm15_rebuilding(cand)
    for cand_op in seen:
        assert cand_op.W_g is ms.W.opposite
        assert cand_op.C_g is ms.F.opposite and cand_op.F_g is ms.C.opposite
    assert len(seen) == 2 and ms.W.opposite.cat is opposite(diamond)


def test_thm15_verdicts_match_rebuilding_oracle(diamond, diamond_minimal, diamond_census):
    """Full reports (verdicts, texts, witnesses) agree with the oracle on
    every ll candidate over diamond's minimal structure whose classes are
    census classes, and on every census structure as a candidate over each
    census base it ll-extends."""
    classes = {
        side: sorted({getattr(ms, side).members for ms in diamond_census.structures}, key=sorted)
        for side in "WCF"
    }
    shared = {m: _cls(diamond, m) for side in classes.values() for m in side}
    candidates = [
        ExtensionCandidate(diamond_minimal, shared[W_g], shared[C_g], shared[F_g])
        for W_g, C_g, F_g in itertools.product(classes["W"], classes["C"], classes["F"])
    ]
    candidates += [
        ExtensionCandidate(base, ms.W, ms.C, ms.F)
        for base in diamond_census.structures
        for ms in diamond_census.structures
        if classify_extension(base, ms).kind in ("equal", "ll")
    ]
    passed = 0
    for cand in candidates:
        report, want = check_thm15(cand), _thm15_rebuilding(cand)
        assert report == want
        passed += report.passed
        # stop-at-first: the oracle's verdicts up to its first failure
        first = want.first_failure()
        keys = list(want.verdicts)
        keys = keys[: keys.index(first[0]) + 1] if first else keys
        short = check_thm15(cand, stop_at_first=True)
        assert list(short.verdicts) == keys
        assert short.verdicts == {k: want.verdicts[k] for k in keys}
        assert (short.theorem, short.passed, short.first_failure()) == ("1.5", want.passed, first)
    assert len(candidates) > 1000 and 0 < passed < len(candidates)


@pytest.mark.parametrize("census_name", ["diamond_census", "bool3_census"])
def test_thm15_matches_the_rewrapped_thm12_route(census_name, request):
    """On every ll edge of the extension graph, the Thm 1.5 walk gives the
    report of the old route (a Thm 1.2 report on the opposite candidate,
    re-wrapped as "1.5"), in full and with stop-at-first."""
    census = request.getfixturevalue(census_name)
    nodes = census.structures
    edges = [(i, j) for i, j, kind in extension_graph(census).edges if kind.kind == "ll"]
    outcomes = set()
    for i, j in edges:
        cand = ExtensionCandidate(nodes[i], nodes[j].W, nodes[j].C, nodes[j].F)
        for stop_at_first in (True, False):
            got = check_thm15(cand, stop_at_first=stop_at_first)
            want = _rewrapped_thm15(cand, stop_at_first=stop_at_first)
            assert (got, repr(got), got.passed) == (want, repr(want), want.passed)
            assert list(got.verdicts) == list(want.verdicts)
            outcomes.add((stop_at_first, got.passed))
    assert len(edges) >= 92 and outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_thm17_requires_lm_kind(diamond_minimal):
    with pytest.raises(HypothesisError, match="theorem 1.7 candidates must have kind 'lm'"):
        check_thm17(_self_candidate(diamond_minimal, kind="ll"))


def test_thm12_requires_ll_kind(diamond_minimal):
    """Thm 1.2 is an ll theorem: an lm candidate is refused, not reported on."""
    for stop_at_first in (False, True):
        with pytest.raises(HypothesisError, match="theorem 1.2 candidates must have kind 'll'"):
            check_thm12(_self_candidate(diamond_minimal, kind="lm"), stop_at_first)


def test_thm15_requires_ll_kind(diamond_census):
    """An lm candidate is refused by its kind, not by the containment its
    opposite candidate breaks (there F_g ⊆ F reads as C_g ⊆ C)."""
    ms = next(ms for ms in diamond_census.structures if ms.F.complement().members)
    more = ms.F | _cls(ms.cat, {min(ms.F.complement().members)})
    for cand in (_self_candidate(ms, kind="lm"), ExtensionCandidate(ms, ms.W, ms.C, more, "lm")):
        with pytest.raises(HypothesisError, match="theorem 1.5 candidates must have kind 'll'"):
            check_thm15(cand)


@pytest.mark.parametrize(
    "name,expected_candidates,expected_passing",
    [("arrow", 9, 5), ("chain2", 373, 29)],
)
def test_thm17_scan_is_sound(name, expected_candidates, expected_passing, request):
    """Every candidate passing the more-fibrations hypothesis list must
    verify as a model structure.  Counts were frozen from a first oracle
    run and guard against regressions."""
    from modelcat.census import enumerate_model_structures
    from modelcat.modelstruct import verify_model_structure

    cat = request.getfixturevalue(name)
    census = enumerate_model_structures(cat, "pruned")
    allm = frozenset(range(len(cat.morphisms)))
    total = passing = 0
    for base in census.structures:
        for wx in _subsets(allm - base.W.members):
            W_g = _cls(cat, base.W.members | wx)
            for cx in _subsets(base.C.members - cat.identity_set):
                C_g = _cls(cat, cat.identity_set | cx)
                for fx in _subsets(allm - base.F.members):
                    F_g = _cls(cat, base.F.members | fx)
                    total += 1
                    cand = ExtensionCandidate(base, W_g, C_g, F_g, kind="lm")
                    if check_thm17(cand, stop_at_first=True).passed:
                        passing += 1
                        assert verify_model_structure(
                            cat, W_g, C_g, F_g, stop_at_first=True
                        ).passed
    assert (total, passing) == (expected_candidates, expected_passing)


def _thm12_scan(cat, census, shared):
    """First failing hypothesis (None on a pass) of every ll candidate over
    every census base: W_g = W ∪ any subset of the rest, C_g and F_g the
    identities plus any subset of the non-identity C resp. F.  With
    ``shared`` every member set maps to one MorphClass object, so closure
    verdicts and the base's cofibrant objects come from their caches;
    otherwise every candidate gets fresh classes and a fresh base."""
    classes = {}

    def cls(members):
        if not shared:
            return _cls(cat, members)
        return classes.setdefault(members, _cls(cat, members))

    ids = cat.identity_set
    allm = frozenset(range(len(cat.morphisms)))
    out = []
    for base in census.structures:
        for wx in _subsets(allm - base.W.members):
            for cx in _subsets(base.C.members - ids):
                for fx in _subsets(base.F.members - ids):
                    cand = ExtensionCandidate(
                        base if shared else dataclasses.replace(base),
                        cls(base.W.members | wx), cls(ids | cx), cls(ids | fx),
                    )
                    failure = check_thm12(cand, stop_at_first=True).first_failure()
                    out.append((cand, None if failure is None else failure[0]))
    return out


@pytest.mark.parametrize(
    "name,expected_candidates,expected_passing",
    [("arrow", 12, 4), ("chain2", 932, 17)],
)
def test_thm12_scan_is_sound(name, expected_candidates, expected_passing, request):
    """The Thm 1.2 scan of the benchmark's extend-scan workload: the counts
    match its pins, every passing candidate verifies as a model structure,
    and cached and cold checks name the same first failing hypothesis."""
    from modelcat.modelstruct import verify_model_structure

    cat = request.getfixturevalue(name)
    census = request.getfixturevalue(f"{name}_census")
    warm = _thm12_scan(cat, census, shared=True)
    cold = _thm12_scan(cat, census, shared=False)
    assert [key for _, key in warm] == [key for _, key in cold]
    passing = [cand for cand, key in warm if key is None]
    assert (len(warm), len(passing)) == (expected_candidates, expected_passing)
    for cand in passing:
        assert verify_model_structure(cat, cand.W_g, cand.C_g, cand.F_g).passed


# -- constructive lift --------------------------------------------------


def test_lemma_assumptions(diamond_minimal):
    checks = lemma11_assumptions(
        diamond_minimal.cat, diamond_minimal.W, diamond_minimal.C, diamond_minimal.F
    )
    assert all(c.passed for c in checks.values())


def test_constructive_lift_agrees_with_search(diamond, diamond_minimal):
    ms = diamond_minimal
    trivfib = ms.F.members & ms.W.members
    squares = 0
    for i in sorted(ms.C.members):
        for q in sorted(trivfib):
            for top in diamond.hom(diamond.src(i), diamond.src(q)):
                for bottom in diamond.hom(diamond.tgt(i), diamond.tgt(q)):
                    if diamond.table[q][top] != diamond.table[bottom][i]:
                        continue
                    sq = SquareLiftProblem(diamond, i, q, top, bottom)
                    h = lemma11_lift(diamond, ms.W, ms.C, ms.F, sq)
                    assert diamond.comp(h, i) == top
                    assert diamond.comp(q, h) == bottom
                    assert find_lift(sq) is not None
                    squares += 1
    assert squares > 0


def test_constructive_lift_rejects_bad_legs(diamond, diamond_minimal):
    ms = diamond_minimal
    bot_a = _mid(diamond, "bot_a")
    a_top = _mid(diamond, "a_top")
    sq = SquareLiftProblem(diamond, bot_a, a_top, bot_a, a_top)
    with pytest.raises(HypothesisError):
        # a_top is a fibration but not a weak equivalence here
        lemma11_lift(diamond, ms.W, ms.C, ms.F, sq)


# -- mapping cylinder and factorization ---------------------------------


def test_mapping_cylinder_every_map(diamond, diamond_minimal):
    cand = _self_candidate(diamond_minimal)
    for g in range(len(diamond.morphisms)):
        mc = mapping_cylinder_factorization(cand, g)
        assert diamond.comp(mc.p_g, mc.i_g) == g
        assert diamond.comp(mc.p_g, mc.j_g) == diamond.identities[diamond.tgt(g)]
        assert mc.i_g in cand.C_g.members
        assert mc.p_g in cand.W_g.members
        assert mc.j_g in (cand.C_g.members & cand.W_g.members)


def test_missing_cylinder_is_a_hypothesis_failure(diamond, diamond_minimal):
    """With C_g = ∅ no cofibrant object has a cylinder: hypothesis 5 of
    Thm 1.2 fails, and the mapping cylinder refuses with HypothesisError,
    as every other engine does on a failed hypothesis."""
    base = diamond_minimal
    cand = ExtensionCandidate(base, base.W, MorphClass.empty(diamond), base.F)
    assert not check_thm12(cand).verdicts["5"].passed
    with pytest.raises(HypothesisError, match="no cylinder for bot"):
        mapping_cylinder_factorization(cand, _mid(diamond, "bot_top"))


def test_cofibrant_approximation(diamond, diamond_minimal):
    for f in range(len(diamond.morphisms)):
        sq = cofibrant_approximation_square(diamond_minimal, f)
        trivfib = diamond_minimal.F.members & diamond_minimal.W.members
        assert sq.u in trivfib and sq.v in trivfib
        assert diamond.comp(sq.v, sq.f_tilde) == diamond.comp(f, sq.u)


def test_factor_c_then_trivfib(diamond, diamond_minimal):
    cand = _self_candidate(diamond_minimal)
    for f in range(len(diamond.morphisms)):
        fact, approx, mc = factor_c_then_trivfib(cand, f)
        assert fact.f == f
        assert diamond.comp(fact.right, fact.left) == f
        assert fact.left in cand.C_g.members
        assert fact.right in (cand.F_g.members & cand.W_g.members)
        assert approx.f == f
        assert mc.g == approx.f_tilde


# -- properness, variation, classification ------------------------------


def test_properness(diamond, diamond_minimal, diamond_census):
    assert check_properness(diamond_minimal, "left").passed
    assert check_properness(diamond_minimal, "right").passed
    with pytest.raises(InputError):
        check_properness(diamond_minimal, "sideways")

    # not every structure is proper: W = isos ∪ {bot_a} pushes the weak
    # equivalence bot_a out along the cofibration bot_b to b_top ∉ W
    bad = diamond_census.find(
        diamond.iso_set | {_mid(diamond, "bot_a")},
        frozenset(range(9)) - {_mid(diamond, "bot_a")},
        frozenset(range(9)),
    )
    assert bad is not None
    r = check_properness(bad, "left")
    assert not r.passed
    assert r.witness == {
        "f": _mid(diamond, "bot_a"),
        "along": _mid(diamond, "bot_b"),
        "transfer": _mid(diamond, "b_top"),
    }


def test_prop14_reproduces_base(diamond, diamond_minimal):
    cand, report = prop14_build(diamond_minimal, diamond_minimal.W, diamond_minimal.W)
    assert report.theorem == "1.4" and report.passed
    assert cand is not None
    assert cand.C_g.members == diamond_minimal.C.members
    assert cand.F_g.members == diamond_minimal.F.members


def test_prop14_needs_nested_classes(diamond, diamond_minimal):
    with pytest.raises(HypothesisError):
        prop14_build(
            diamond_minimal,
            MorphClass.all_maps(diamond),
            diamond_minimal.W,  # W' ⊆ W_g violated
        )


@pytest.mark.parametrize("name,expected_pass", [("arrow", 31), ("chain2", 467)])
def test_prop14_scan_is_sound(name, expected_pass, request):
    """Whenever the four hypotheses pass, the lifting-derived triple must
    verify (the builder raises otherwise); pass counts frozen from a first
    oracle run."""
    from modelcat.census import enumerate_model_structures

    cat = request.getfixturevalue(name)
    census = enumerate_model_structures(cat, "pruned")
    allm = frozenset(range(len(cat.morphisms)))
    passed = 0
    for base in census.structures:
        w_opts = [s.W.members for s in census.structures] + [allm]
        for wp in w_opts:
            for wg in w_opts:
                if not (base.W.members <= wp <= wg):
                    continue
                cand, report = prop14_build(base, _cls(cat, wp), _cls(cat, wg))
                if report.passed:
                    assert cand is not None
                    passed += 1
    assert passed == expected_pass


def test_classify(diamond, diamond_minimal, diamond_census):
    same = classify_extension(diamond_minimal, diamond_minimal)
    assert same.kind == "equal" and same.left_bousfield and same.right_bousfield
    assert not same.proper_W

    localized = diamond_census.find(
        frozenset(range(9)), diamond.identity_set, frozenset(range(9))
    )
    assert localized is not None
    up = classify_extension(diamond_minimal, localized)
    assert up.kind == "ll" and up.proper_W
    assert not up.left_bousfield and up.right_bousfield
    down = classify_extension(localized, diamond_minimal)
    assert down.kind == "other"  # W may never shrink

    for ms in diamond_census.structures:
        k = classify_extension(diamond_minimal, ms)
        assert k.kind in ("equal", "ll")  # C and F can only shrink from the top


def test_classify_rejects_other_category(arrow_minimal, diamond_minimal):
    with pytest.raises(InputError):
        classify_extension(arrow_minimal, diamond_minimal)


def test_classify_lm(chain2, chain2_census):
    # find a pair where F properly grows while C shrinks
    found = None
    for a in chain2_census.structures:
        for b in chain2_census.structures:
            k = classify_extension(a, b)
            if k.kind == "lm" and a.F.members < b.F.members:
                found = (a, b, k)
    assert found is not None
    _, _, k = found
    assert not k.left_bousfield and not k.right_bousfield


def test_invariance(diamond):
    alls = MorphClass.all_maps(diamond)
    isos = MorphClass.isos(diamond)
    assert check_invariance(alls, alls, alls).passed
    sub = _cls(diamond, diamond.identity_set | {_mid(diamond, "bot_a")})
    r = check_invariance(sub, alls, alls)
    assert not r.passed
    with pytest.raises(HypothesisError):
        check_invariance(alls, isos, alls)  # sub ⊆ super violated


def test_fibration_transfer_on_census_pairs(arrow_census):
    for base in arrow_census.structures:
        for ext in arrow_census.structures:
            if classify_extension(base, ext).kind in ("equal", "ll"):
                assert check_fibration_transfer(base, ext).passed
