"""Lifting, closure and factorization procedures against brute-force oracles."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelcat import (
    InputError,
    MorphClass,
    SquareLiftProblem,
    closure_check,
    enumerate_factorizations,
    find_lift,
    has_lifting,
    lifting_closure,
)
from modelcat.census import enumerate_model_structures
from modelcat.extend import (
    ExtensionCandidate,
    HypothesisReport,
    check_properness,
    check_thm12,
    check_thm15,
    check_thm17,
)
from modelcat.fincat import build_category, opposite
from modelcat.modelstruct import AxiomReport, ModelStructure, verify_model_structure
from modelcat.morphclass import (
    CheckResult,
    _closure_verdict,
    _least_unfactored,
    _lifting_verdict,
    factor_pairs,
    factorizations,
    factors_all,
    first_factorization,
    lifting_blocks,
    pullback_transfers,
    pushout_transfers,
    retract_pairs,
    unliftable_pairs,
)
from oracles import (
    _closure_loop,
    _search_factor_pairs,
    _search_retract_pairs,
    _search_unliftable_pairs,
)


def _mid(cat, name):
    return next(i for i, m in enumerate(cat.morphisms) if m.name == name)


def _all_squares(cat):
    """Every commuting square (i, p, top, bottom), brute force."""
    n = len(cat.morphisms)
    for i in range(n):
        for p in range(n):
            for top in cat.hom(cat.src(i), cat.src(p)):
                for bottom in cat.hom(cat.tgt(i), cat.tgt(p)):
                    if cat.table[p][top] == cat.table[bottom][i]:
                        yield i, p, top, bottom


def _brute_lift(cat, i, p, top, bottom):
    for h in cat.hom(cat.tgt(i), cat.src(p)):
        if cat.table[h][i] == top and cat.table[p][h] == bottom:
            return h
    return None


# -- class algebra ------------------------------------------------------


def test_class_constructors(arrow):
    assert MorphClass.all_maps(arrow).members == frozenset({0, 1, 2})
    assert MorphClass.identities(arrow).members == frozenset({0, 1})
    assert MorphClass.isos(arrow).members == frozenset({0, 1})
    assert MorphClass.empty(arrow).members == frozenset()
    with pytest.raises(InputError):
        MorphClass.of(arrow, [7])


def test_class_members_must_be_morphism_ids(arrow):
    """Ids 0 to n - 1 make a class; -1 and n are refused."""
    n = len(arrow.morphisms)
    assert MorphClass.of(arrow, [0, n - 1]).members == {0, n - 1}
    for bad in ([-1], [n], [0, n], [-1, 1]):
        with pytest.raises(InputError, match="morphisms of the category"):
            MorphClass.of(arrow, bad)


def test_class_algebra(arrow):
    ids = MorphClass.identities(arrow)
    alls = MorphClass.all_maps(arrow)
    assert ids <= alls and ids < alls
    assert (ids | alls).members == alls.members
    assert (ids & alls).members == ids.members
    assert ids.complement().members == {2}
    assert 2 in alls and 2 not in ids
    assert ids.names() == ("id_0", "id_1")


def test_cross_category_algebra_rejected(arrow, diamond):
    with pytest.raises(InputError):
        MorphClass.identities(arrow) | MorphClass.identities(diamond)


# -- squares and lifts --------------------------------------------------


def test_square_validation(arrow):
    f = _mid(arrow, "f")
    # f against f with identity edges commutes
    sq = SquareLiftProblem(arrow, f, f, arrow.identities[0], arrow.identities[1])
    assert find_lift(sq) is None  # no map 1→0
    with pytest.raises(InputError):
        SquareLiftProblem(arrow, f, f, f, arrow.identities[1])  # bad top endpoints


def test_square_commutativity_enforced(chain2):
    f, g = _mid(chain2, "f"), _mid(chain2, "g")
    with pytest.raises(InputError):
        # top edge g∘f against bottom id would not commute
        SquareLiftProblem(chain2, f, g, chain2.identities[1], chain2.identities[2])


@pytest.mark.parametrize("name", ["chain2", "diamond", "retract"])
def test_find_lift_matches_brute_force(name, request):
    cat = request.getfixturevalue(name)
    for i, p, top, bottom in _all_squares(cat):
        got = find_lift(SquareLiftProblem(cat, i, p, top, bottom))
        want = _brute_lift(cat, i, p, top, bottom)
        assert (got is None) == (want is None)
        if got is not None:
            assert cat.comp(got, i) == top and cat.comp(p, got) == bottom


def test_has_lifting_witness(arrow):
    f = _mid(arrow, "f")
    only_f = MorphClass.of(arrow, [f])
    r = has_lifting(arrow, only_f.mask, only_f.mask)
    assert not r.passed
    assert r.witness == {"i": f, "p": f, "top": arrow.identities[0], "bottom": arrow.identities[1]}
    assert has_lifting(
        arrow, MorphClass.identities(arrow).mask, MorphClass.all_maps(arrow).mask
    ).passed


def test_lifting_closure_small(arrow):
    f = _mid(arrow, "f")
    cls = MorphClass.of(arrow, [f])
    # [DERIVED by the brute-force square oracle above]
    assert lifting_closure(arrow, cls, "rlp").members == {0, 1}
    assert lifting_closure(arrow, cls, "llp").members == {0, 1}
    with pytest.raises(InputError):
        lifting_closure(arrow, cls, "sideways")


@pytest.mark.parametrize("name", ["chain2", "diamond"])
def test_lifting_closure_matches_brute_force(name, request):
    cat = request.getfixturevalue(name)
    unliftable = {
        (i, p)
        for i, p, top, bottom in _all_squares(cat)
        if _brute_lift(cat, i, p, top, bottom) is None
    }
    n = len(cat.morphisms)
    for members in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(3)
    ):
        cls = MorphClass.of(cat, members)
        want_r = frozenset(
            p for p in range(n) if all((i, p) not in unliftable for i in members)
        )
        want_l = frozenset(
            i for i in range(n) if all((i, p) not in unliftable for p in members)
        )
        assert lifting_closure(cat, cls, "rlp").members == want_r
        assert lifting_closure(cat, cls, "llp").members == want_l


@settings(max_examples=60, deadline=None)
@given(members=st.frozensets(st.integers(min_value=0, max_value=8)))
def test_galois_connection_properties(diamond, members):
    cls = MorphClass(diamond, frozenset(members))
    r = lifting_closure(diamond, cls, "rlp")
    lr = lifting_closure(diamond, r, "llp")
    assert cls.members <= lr.members
    # triple application stabilizes
    assert lifting_closure(diamond, lr, "rlp").members == r.members


@settings(max_examples=40, deadline=None)
@given(
    a=st.frozensets(st.integers(min_value=0, max_value=8)),
    b=st.frozensets(st.integers(min_value=0, max_value=8)),
)
def test_lifting_closure_antitone(diamond, a, b):
    small, big = a & b, a | b
    ra = lifting_closure(diamond, MorphClass(diamond, small), "rlp")
    rb = lifting_closure(diamond, MorphClass(diamond, big), "rlp")
    assert rb.members <= ra.members


@settings(max_examples=40, deadline=None)
@given(members=st.frozensets(st.integers(min_value=0, max_value=8)))
def test_llp_classes_are_saturated(diamond, members):
    cls = MorphClass(diamond, frozenset(members))
    left = lifting_closure(diamond, cls, "llp")
    for prop in ("composition", "retracts", "pushouts"):
        assert closure_check(left, prop).passed, prop
    right = lifting_closure(diamond, cls, "rlp")
    for prop in ("composition", "retracts", "pullbacks"):
        assert closure_check(right, prop).passed, prop


# -- closure checks -----------------------------------------------------


def test_two_of_three(arrow, chain2):
    assert closure_check(MorphClass.identities(arrow), "two_of_three").passed
    f, g, gf = _mid(chain2, "f"), _mid(chain2, "g"), _mid(chain2, "gf")
    w = MorphClass.of(chain2, list(chain2.identity_set | {f, g}))
    r = closure_check(w, "two_of_three")
    assert not r.passed and r.witness == {"f": f, "g": g, "composite": gf}


def test_composition_closure(chain2):
    f, g = _mid(chain2, "f"), _mid(chain2, "g")
    c = MorphClass.of(chain2, list(chain2.identity_set | {f, g}))
    r = closure_check(c, "composition")
    assert not r.passed and r.witness["composite"] == _mid(chain2, "gf")
    assert closure_check(MorphClass.all_maps(chain2), "composition").passed


def _retract_relation(cat):
    """Every (f, g) with f a retract of g in the arrow category, brute force."""
    pairs = set()
    for f in range(len(cat.morphisms)):
        for g in range(len(cat.morphisms)):
            if f == g:
                continue
            a, b = cat.src(f), cat.tgt(f)
            a2, b2 = cat.src(g), cat.tgt(g)
            for ia in cat.hom(a, a2):
                for ra in cat.hom(a2, a):
                    for ib in cat.hom(b, b2):
                        for rb in cat.hom(b2, b):
                            if (
                                cat.table[ra][ia] == cat.identities[a]
                                and cat.table[rb][ib] == cat.identities[b]
                                and cat.table[g][ia] == cat.table[ib][f]
                                and cat.table[f][ra] == cat.table[rb][g]
                            ):
                                pairs.add((f, g))
    return pairs


def _isomorphic_pair():
    """Objects a ≅ b (u: a→b, v: b→a) below a top t: a lattice up to
    equivalence that is not a poset, so it has retract pairs."""
    return build_category(
        ["a", "b", "t"],
        [("u", "a", "b"), ("v", "b", "a"), ("p", "a", "t"), ("q", "b", "t")],
        {("v", "u"): "id_a", ("u", "v"): "id_b", ("q", "u"): "p", ("p", "v"): "q"},
    )


def test_retract_closure_witness(retract):
    """On retract.cat, which the library refuses (it is not finitely
    bicomplete), the search oracle finds the brute-force retract relation,
    with id_A a retract of the idempotent e.  On a lattice with isomorphic
    objects the closed form gives the relation, and the closure verdicts
    and witnesses (retracts and the other four properties) equal the
    loop's on every class."""
    id_a = retract.identities[retract.objects.index("A")]
    e = _mid(retract, "e")
    pairs = _retract_relation(retract)
    assert {(f, g) for f, g, _ in _search_retract_pairs(retract)} == pairs
    assert (id_a, e) in pairs  # id_A is a retract of the idempotent
    with pytest.raises(InputError, match="finitely bicomplete"):
        retract_pairs(retract)
    with pytest.raises(InputError, match="finitely bicomplete"):
        closure_check(MorphClass.of(retract, [e]), "retracts")

    cat = _isomorphic_pair()
    assert {(f, g) for f, g, _ in retract_pairs(cat)} == _retract_relation(cat)
    u = _mid(cat, "u")
    r = closure_check(MorphClass.of(cat, [u]), "retracts")
    assert not r.passed and r.witness["f"] == cat.identities[0] and r.witness["g"] == u
    assert closure_check(MorphClass.isos(cat), "retracts").passed
    assert not closure_check(MorphClass.identities(cat), "retracts").passed
    n = len(cat.morphisms)
    for members in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    ):
        cls = MorphClass.of(cat, members)
        for prop in PROPERTIES:
            assert closure_check(cls, prop) == _closure_loop(cls, prop), (members, prop)


def test_pushout_closure(diamond):
    bot_a = _mid(diamond, "bot_a")
    bot_b = _mid(diamond, "bot_b")
    b_top = _mid(diamond, "b_top")
    cls = MorphClass.of(diamond, list(diamond.identity_set | {bot_a}))
    r = closure_check(cls, "pushouts")
    # the cobase change of bot_a along bot_b is b_top
    assert not r.passed
    assert r.witness == {"f": bot_a, "along": bot_b, "transfer": b_top}
    assert closure_check(MorphClass.all_maps(diamond), "pushouts").passed


def test_unknown_property(arrow):
    with pytest.raises(InputError):
        closure_check(MorphClass.identities(arrow), "monoidal")


# -- cached closure verdicts --------------------------------------------

PROPERTIES = ("retracts", "composition", "two_of_three", "pushouts", "pullbacks")


@pytest.mark.parametrize("name", ["pt", "arrow", "chain2", "diamond"])
def test_cached_verdicts_match_uncached(request, name):
    """First and second ``closure_check`` of every subset class agree with
    the uncached body run on a fresh object: verdict, text and witness."""
    cat = request.getfixturevalue(name)
    for r in range(len(cat.morphisms) + 1):
        for members in itertools.combinations(range(len(cat.morphisms)), r):
            cls = MorphClass.of(cat, members)
            for prop in PROPERTIES:
                fresh = _closure_verdict(MorphClass.of(cat, members), prop)
                first = closure_check(cls, prop)
                # CheckResult equality compares passed, description and witness
                assert first == fresh
                assert closure_check(cls, prop) is first
            assert set(cls.verdicts) == set(PROPERTIES)


def test_unknown_property_is_not_cached(arrow):
    cls = MorphClass.identities(arrow)
    with pytest.raises(InputError):
        closure_check(cls, "monoidal")
    assert cls.verdicts == {}


def test_verdict_cache_invisible_to_identity(chain2):
    f, g = _mid(chain2, "f"), _mid(chain2, "g")
    cls = MorphClass.of(chain2, chain2.identity_set | {f, g})
    twin = MorphClass.of(chain2, chain2.identity_set | {f, g})
    before = (hash(cls), repr(cls))
    for prop in PROPERTIES:
        closure_check(cls, prop)
    assert len(cls.verdicts) == len(PROPERTIES) and twin.verdicts == {}
    assert cls == twin and (hash(cls), repr(cls)) == before == (hash(twin), repr(twin))
    copy = dataclasses.replace(cls)
    assert copy == cls and copy.verdicts == {}


@pytest.mark.parametrize("name", ["pt", "arrow", "chain2", "diamond"])
def test_mask_is_the_members_bitmask(request, name):
    """``mask`` sets exactly the member bits of every subset class, and
    reading it changes neither equality, hash, repr nor ``replace``."""
    cat = request.getfixturevalue(name)
    for r in range(len(cat.morphisms) + 1):
        for members in itertools.combinations(range(len(cat.morphisms)), r):
            cls = MorphClass.of(cat, members)
            twin = MorphClass.of(cat, members)
            before = (hash(cls), repr(cls))
            assert cls.mask == sum(1 << f for f in members)
            assert cls.mask is cls.mask
            assert cls == twin and (hash(cls), repr(cls)) == before == (
                hash(twin), repr(twin)
            )
            assert "mask" not in vars(twin)
            copy = dataclasses.replace(cls)
            assert copy == cls and "mask" not in vars(copy)


def test_opposite_class_is_cached(chain2):
    """``opposite`` is the same members over the opposite category, built
    once, and like ``mask`` invisible to ``==``, hashing, ``repr`` and
    ``dataclasses.replace``."""
    members = chain2.identity_set | {_mid(chain2, "f")}
    cls, twin = MorphClass.of(chain2, members), MorphClass.of(chain2, members)
    before = (hash(cls), repr(cls))
    op = cls.opposite
    assert op is cls.opposite and op.cat is opposite(chain2) and op.members == members
    assert cls == twin and (hash(cls), repr(cls)) == before == (hash(twin), repr(twin))
    assert "opposite" not in vars(twin)
    assert "opposite" not in vars(dataclasses.replace(cls))


def test_witness_is_read_only(chain2):
    """Verdicts are shared through the cache, so a witness must not be
    writable by one caller and seen changed by the next."""
    f, g = _mid(chain2, "f"), _mid(chain2, "g")
    cls = MorphClass.of(chain2, chain2.identity_set | {f, g})
    r = closure_check(cls, "two_of_three")
    assert not r.passed
    with pytest.raises(TypeError):
        r.witness["f"] = g
    with pytest.raises(TypeError):
        del r.witness["f"]
    everything = MorphClass.all_maps(chain2).mask
    lift = has_lifting(chain2, everything, everything)
    assert not lift.passed
    with pytest.raises(TypeError):
        lift.witness["i"] = f
    assert closure_check(cls, "two_of_three").witness == {
        "f": f, "g": g, "composite": _mid(chain2, "gf")
    }


# -- cached lifting and factoring verdicts --------------------------------

DESCRIPTIONS = ("no factorization", "morphism admits no factorization")


def _uncached_factors_all(cat, left, right, description):
    """``factors_all`` from its uncached body."""
    f = _least_unfactored(cat, left, right)
    return CheckResult.ok("factorization") if f is None else CheckResult.fail(description, f=f)


@pytest.mark.parametrize("census", ["diamond_census", "bool3_census"])
def test_cached_mask_verdicts_match_uncached_on_census(request, census):
    """The lifting and factorization questions of every census structure,
    (C∩W, F) and (C, W∩F), read from the cache the census filled, are
    answered as the uncached bodies answer them."""
    structures = request.getfixturevalue(census).structures
    cat = structures[0].cat
    for ms in structures:
        W, C, F = ms.W.mask, ms.C.mask, ms.F.mask
        for left, right in ((C & W, F), (C, W & F)):
            assert has_lifting(cat, left, right) == _lifting_verdict(cat, left, right)
            for description in DESCRIPTIONS:
                got = factors_all(cat, left, right, description)
                assert got == _uncached_factors_all(cat, left, right, description)


def test_cached_mask_verdicts_match_uncached(diamond):
    """On 4,000 seeded random pairs of masks, the first call, which
    decides, and the second, which reads the cache, both give the uncached
    body's verdict, description and witness; a factorization failure keeps
    the description of the call that reads it."""
    cat = dataclasses.replace(diamond)  # a fresh copy: empty caches
    rng, n = random.Random(17), len(cat.morphisms)
    failures = 0
    for _ in range(4000):
        left, right = rng.getrandbits(n), rng.getrandbits(n)
        lift = has_lifting(cat, left, right)
        assert lift == _lifting_verdict(cat, left, right)
        assert has_lifting(cat, left, right) is lift
        for description in DESCRIPTIONS:
            factored = factors_all(cat, left, right, description)
            assert factored == _uncached_factors_all(cat, left, right, description)
        failures += (not lift.passed) + (not factored.passed)
    assert 0 < failures < 8000


def test_cached_mask_witnesses_are_read_only(diamond):
    """A cached verdict is shared by every later caller, so neither it nor
    its witness can be changed.  Nor can a report built from the runner's
    verdicts and pass flag (a hypothesis report stores them without the
    frozen dataclass's setattr calls); it equals, with the same ``repr`` and
    ``passed``, the report built from its verdicts alone."""
    cat = dataclasses.replace(diamond)
    everything = (1 << len(cat.morphisms)) - 1
    verdicts = [
        has_lifting(cat, everything, everything),
        factors_all(cat, 0, 0, DESCRIPTIONS[0]),  # nothing factors through no maps
    ]
    verdicts += [has_lifting(cat, everything, everything), factors_all(cat, 0, 0, DESCRIPTIONS[1])]
    for verdict in verdicts:
        assert not verdict.passed
        with pytest.raises(TypeError):
            verdict.witness["f"] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.passed = True
    assert verdicts[2] == _lifting_verdict(cat, everything, everything)
    assert verdicts[3] == _uncached_factors_all(cat, 0, 0, DESCRIPTIONS[1])

    isos, alls = MorphClass.isos(cat), MorphClass.all_maps(cat)
    minimal = ModelStructure.build(cat, isos, alls, alls)
    reports = [
        minimal.report,
        verify_model_structure(cat, isos, alls, isos, stop_at_first=True),
        check_thm12(ExtensionCandidate(minimal, alls, alls, isos)),
        check_thm15(ExtensionCandidate(minimal, alls, alls, isos)),
        check_thm17(ExtensionCandidate(minimal, alls, isos, alls, kind="lm")),
    ]
    for report in reports:
        if isinstance(report, AxiomReport):
            verdicts, public = report.checks, AxiomReport(report.checks)
        else:
            verdicts, public = report.verdicts, HypothesisReport(report.theorem, report.verdicts)
        assert report.passed == public.passed == all(c.passed for c in verdicts.values())
        assert (report, repr(report)) == (public, repr(public))
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.passed = not report.passed
    assert len({(type(report), report.passed) for report in reports}) == 4


def test_mask_verdicts_refuse_a_non_lattice_every_time(retract):
    """A category that is not finitely bicomplete is refused on the first
    call, and no verdict is kept, so every later call is refused too."""
    cat = dataclasses.replace(retract)
    for _ in range(2):
        with pytest.raises(InputError, match="finitely bicomplete"):
            has_lifting(cat, 1, 1)
        with pytest.raises(InputError, match="finitely bicomplete"):
            factors_all(cat, 1, 1, DESCRIPTIONS[0])
    assert not cat.scratch.get("lifting_verdicts") and not cat.scratch.get("unfactored")


# -- factorizations -----------------------------------------------------


def test_factor_pairs_complete(diamond):
    for f in range(len(diamond.morphisms)):
        want = {
            (j, p)
            for j, p, fp in [
                (j, p, diamond.table[p][j])
                for j in range(len(diamond.morphisms))
                for p in range(len(diamond.morphisms))
                if diamond.src(j) == diamond.src(f)
                and diamond.tgt(j) == diamond.src(p)
                and diamond.tgt(p) == diamond.tgt(f)
            ]
            if fp == f
        }
        assert set(factor_pairs(diamond, f)) == want


def test_enumerate_factorizations(arrow):
    f = _mid(arrow, "f")
    alls = MorphClass.all_maps(arrow)
    facts = enumerate_factorizations(arrow, f, alls, alls)
    assert [(x.left, x.middle, x.right) for x in facts] == [
        (arrow.identities[0], 0, f),
        (f, 1, arrow.identities[1]),
    ]
    ids = MorphClass.identities(arrow)
    assert enumerate_factorizations(arrow, f, ids, ids) == []
    only_left = enumerate_factorizations(arrow, f, ids, alls)
    assert [(x.left, x.right) for x in only_left] == [(arrow.identities[0], f)]


@pytest.mark.parametrize("name", ["pt", "arrow", "chain2", "diamond", "bool3"])
def test_factorizations_match_brute_force(request, name):
    """The shared factorization search equals a filter of the composable
    pairs, in (middle object, left, right) order, on every bicomplete
    fixture and for classes with and without the identities."""
    cat = request.getfixturevalue(name)
    n = len(cat.morphisms)
    ids = cat.identity_set
    classes = [
        frozenset(range(n)),
        ids,
        frozenset(range(n)) - ids,
        frozenset(range(0, n, 2)),
        frozenset(range(1, n, 2)),
    ]
    for left, right in itertools.product(classes, repeat=2):
        for f in range(n):
            want = sorted(
                ((j, p) for j, p, gf in cat.composable_pairs
                 if gf == f and j in left and p in right),
                key=lambda jp: (cat.tgt(jp[0]), jp[0], jp[1]),
            )
            masks = MorphClass(cat, left).mask, MorphClass(cat, right).mask
            assert list(factorizations(cat, f, *masks)) == want
            assert first_factorization(cat, f, *masks) == (want[0] if want else None)


# -- bitmask checks against the frozenset loops ---------------------------


def _has_lifting_loop(left, right, bad):
    """Oracle for ``has_lifting``: every (i, p) of the two member sets in
    sorted order, looked up in ``bad``, the unliftable-square search."""
    for i in sorted(left.members):
        for p in sorted(right.members):
            if (i, p) in bad:
                top, bottom = bad[(i, p)]
                return CheckResult.fail(
                    "square with no lift", i=i, p=p, top=top, bottom=bottom
                )
    return CheckResult.ok("lifting")


def _factors_all_loop(factor, left, right, description):
    """Oracle for ``factors_all``: per map f, a scan of ``factor[f]``, the
    factorization search of f."""
    for f, pairs in enumerate(factor):
        if not any(left >> j & 1 and right >> p & 1 for j, p in pairs):
            return CheckResult.fail(description, f=f)
    return CheckResult.ok("factorization")


def test_lifting_blocks_are_the_unliftable_pairs(bool3):
    blocks = lifting_blocks(bool3)
    assert {
        (i, p) for i, b in enumerate(blocks) for p in range(len(blocks)) if b >> p & 1
    } == set(unliftable_pairs(bool3))


def _census_and_random_classes(cat, count):
    """The classes C, F, C∩W and F∩W of every census structure, plus
    ``count`` seeded random subsets, so that both verdicts occur often."""
    rng, n = random.Random(6), len(cat.morphisms)
    pool = {frozenset(rng.sample(range(n), rng.randrange(n + 1))) for _ in range(count)}
    for ms in enumerate_model_structures(cat, "pruned").structures:
        W, C, F = ms.triple()
        pool |= {C, F, C & W, F & W}
    return [MorphClass(cat, members) for members in sorted(pool, key=sorted)]


@pytest.mark.parametrize(
    "name, sample",
    [("arrow", None), ("chain2", None), ("retract", None), ("diamond", 4000), ("bool3", 4000)],
)
def test_mask_checks_match_loops(request, name, sample):
    """``has_lifting`` and ``factors_all`` on bitmasks give the loops'
    verdicts and witnesses on every pair of subset classes (a seeded
    sample of them on diamond; on bool3, whose 27 maps have too many
    subsets, a sample of pairs of census and random classes).  retract.cat
    is not finitely bicomplete, so both refuse every pair there."""
    cat = request.getfixturevalue(name)
    n = len(cat.morphisms)
    if name == "bool3":
        classes = _census_and_random_classes(cat, 200)
    else:
        classes = [
            MorphClass.of(cat, members)
            for r in range(n + 1)
            for members in itertools.combinations(range(n), r)
        ]
    pairs = list(itertools.product(classes, repeat=2))
    if sample is not None:
        pairs = random.Random(6).sample(pairs, sample)
    if name == "retract":
        for left, right in pairs:
            with pytest.raises(InputError, match="finitely bicomplete"):
                has_lifting(cat, left.mask, right.mask)
            with pytest.raises(InputError, match="finitely bicomplete"):
                factors_all(cat, left.mask, right.mask, "no factorization")
        return
    bad = _search_unliftable_pairs(cat)
    factor = [_search_factor_pairs(cat, f) for f in range(n)]
    failures = 0
    for left, right in pairs:
        lift = has_lifting(cat, left.mask, right.mask)
        assert lift == _has_lifting_loop(left, right, bad)
        factored = factors_all(cat, left.mask, right.mask, "no factorization")
        assert factored == _factors_all_loop(factor, left.mask, right.mask, "no factorization")
        failures += (not lift.passed) + (not factored.passed)
    assert 0 < failures < 2 * len(pairs)


# -- closure and transfer scans against the frozenset loops ---------------


def _properness_loop(ms, side):
    """Oracle for ``check_properness``: the transfers of W-maps along C
    (left) or F (right) by frozenset membership, in table order."""
    transfers, along = {
        "left": (pushout_transfers, ms.C.members),
        "right": (pullback_transfers, ms.F.members),
    }[side]
    W = ms.W.members
    for f, g, fp in transfers(ms.cat):
        if f in W and g in along and fp not in W:
            return CheckResult.fail(f"not {side} proper", f=f, along=g, transfer=fp)
    return CheckResult.ok(f"{side} proper")


@pytest.mark.parametrize("name", ["pt", "arrow", "chain2"])
def test_mask_scans_match_loops_on_subset_classes(request, name):
    """``closure_check`` (all five properties) on every subset class, and
    ``check_properness`` (both sides) with W and the class W-maps are
    transferred along ranging over every pair of subset classes, give the
    loops' verdicts and witnesses."""
    cat = request.getfixturevalue(name)
    n = len(cat.morphisms)
    classes = [
        MorphClass.of(cat, members)
        for r in range(n + 1)
        for members in itertools.combinations(range(n), r)
    ]
    failures = checks = 0
    for cls in classes:
        for prop in PROPERTIES:
            got = closure_check(cls, prop)
            assert got == _closure_loop(cls, prop), (cls.members, prop)
            failures += not got.passed
            checks += 1
    for W, along in itertools.product(classes, repeat=2):
        ms = ModelStructure(cat, W, along, along)
        for side in ("left", "right"):
            got = check_properness(ms, side)
            assert got == _properness_loop(ms, side), (W.members, along.members, side)
            failures += not got.passed
            checks += 1
    assert (failures > 0) == (n > 1) and failures < checks


@pytest.mark.parametrize("census", ["diamond_census", "bool3_census"])
def test_mask_scans_match_loops_on_census_structures(request, census):
    """The same comparison on every class and every structure of a census."""
    structures = request.getfixturevalue(census).structures
    classes = {cls.members: cls for ms in structures for cls in (ms.W, ms.C, ms.F)}
    for cls in classes.values():
        for prop in PROPERTIES:
            assert closure_check(cls, prop) == _closure_loop(cls, prop), (cls.members, prop)
    improper = 0
    for ms in structures:
        for side in ("left", "right"):
            got = check_properness(ms, side)
            assert got == _properness_loop(ms, side)
            improper += not got.passed
    assert 0 < improper < 2 * len(structures)

