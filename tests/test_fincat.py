"""Category validation, duality and canonical (co)limits."""

import pytest

from modelcat import (
    InputError,
    MissingLimitError,
    build_category,
    colimit,
    is_finitely_bicomplete,
    is_iso,
    limit,
    opposite,
    validate_category,
)
from modelcat.fincat import FinCat, Morphism
from oracles import diagonal_map, fold_map, point_from_initial, point_to_terminal

ALL_FIXTURES = ("pt", "arrow", "chain2", "diamond", "retract", "bool3")


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixtures_validate(name, request):
    cat = request.getfixturevalue(name)
    report = validate_category(cat)
    assert report.ok, report.violations


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_opposites_validate(name, request):
    cat = request.getfixturevalue(name)
    op = opposite(cat)
    assert validate_category(op).ok
    n = len(cat.morphisms)
    assert all(op.table[g][f] == cat.table[f][g] for f in range(n) for g in range(n))
    # involution on the data that matters
    opop = opposite(op)
    assert opop.table == cat.table
    assert [(m.src, m.tgt) for m in opop.morphisms] == [
        (m.src, m.tgt) for m in cat.morphisms
    ]
    assert op.iso_set == cat.iso_set


def test_missing_composite_detected():
    cat = build_category(
        ["x", "y", "z"],
        [("f", "x", "y"), ("g", "y", "z"), ("gf", "x", "z")],
        {},  # g∘f deliberately left out
    )
    report = validate_category(cat)
    assert not report.ok
    assert {v.kind for v in report.violations} == {"missing-composite"}


def test_broken_associativity_detected(chain2):
    # redirect g∘f to itself-composed-wrong by rebuilding the table
    table = [list(row) for row in chain2.table]
    f = next(i for i, m in enumerate(chain2.morphisms) if m.name == "f")
    g = next(i for i, m in enumerate(chain2.morphisms) if m.name == "g")
    table[g][f] = f  # wrong target type
    broken = FinCat(chain2.objects, chain2.morphisms, chain2.identities, tuple(map(tuple, table)))
    report = validate_category(broken)
    assert not report.ok


def test_unit_violation_detected():
    m = (Morphism("id_x", 0, 0), Morphism("e", 0, 0))
    table = ((0, 1), (1, 0))  # e∘e = id, but id∘e must be e: set id∘e = ... fine
    # break the unit law instead: id∘id = e
    table = ((1, 1), (1, 0))
    broken = FinCat(("x",), m, (0,), table)
    report = validate_category(broken)
    assert not report.ok
    assert any(v.kind == "unit" for v in report.violations)


def test_duplicate_names_detected():
    with pytest.raises(InputError):
        build_category(["x", "x"], [], {})
    with pytest.raises(InputError):
        build_category(["x"], [("f", "x", "x"), ("f", "x", "x")], {"..": "."})


def test_comp_raises_on_noncomposable(arrow):
    f = 2  # the non-identity map 0→1
    assert arrow.name(f) == "f"
    with pytest.raises(InputError):
        arrow.comp(f, f)


def test_hom_and_composable_pairs(diamond):
    bot = diamond.objects.index("bot")
    top = diamond.objects.index("top")
    assert len(diamond.hom(bot, top)) == 1
    assert diamond.hom(top, bot) == ()
    for f, g, gf in diamond.composable_pairs:
        assert diamond.tgt(f) == diamond.src(g)
        assert diamond.src(gf) == diamond.src(f)
        assert diamond.tgt(gf) == diamond.tgt(g)


def test_iso_oracle(retract):
    # brute-force two-sided inverse search, independent of iso_set
    def brute_iso(cat, f):
        return any(
            cat.table[g][f] == cat.identities[cat.src(f)]
            and cat.table[f][g] == cat.identities[cat.tgt(f)]
            for g in cat.hom(cat.tgt(f), cat.src(f))
        )

    for f in range(len(retract.morphisms)):
        assert is_iso(retract, f) == brute_iso(retract, f)
    # s has a one-sided inverse only
    s = next(i for i, m in enumerate(retract.morphisms) if m.name == "s")
    assert not is_iso(retract, s)
    assert retract.iso_set == retract.identity_set


# -- (co)limits ---------------------------------------------------------


def test_diamond_colimits(diamond):
    bot = diamond.objects.index("bot")
    a = diamond.objects.index("a")
    b = diamond.objects.index("b")
    top = diamond.objects.index("top")
    assert colimit(diamond, ("initial",)).apex == bot
    assert limit(diamond, ("terminal",)).apex == top
    assert colimit(diamond, ("coproduct", a, b)).apex == top
    assert limit(diamond, ("product", a, b)).apex == bot

    bot_a = next(i for i, m in enumerate(diamond.morphisms) if m.name == "bot_a")
    bot_b = next(i for i, m in enumerate(diamond.morphisms) if m.name == "bot_b")
    po = colimit(diamond, ("pushout", bot_a, bot_b))
    assert po.exists and po.apex == top
    a_top = next(i for i, m in enumerate(diamond.morphisms) if m.name == "a_top")
    b_top = next(i for i, m in enumerate(diamond.morphisms) if m.name == "b_top")
    assert po.legs == (a_top, b_top)
    pb = limit(diamond, ("pullback", a_top, b_top))
    assert pb.exists and pb.apex == bot


def test_mediators_are_verified(diamond):
    a = diamond.objects.index("a")
    b = diamond.objects.index("b")
    r = colimit(diamond, ("coproduct", a, b))
    for (apex, legs), m in r.mediators.items():
        assert diamond.src(m) == r.apex and diamond.tgt(m) == apex
        for leg, qleg in zip(r.legs, legs):
            assert diamond.comp(m, leg) == qleg
    # the cocone at the apex itself mediates by the identity
    assert r.mediators[(r.apex, r.legs)] == diamond.identities[r.apex]


def test_bool3_lattice_limits(bool3):
    idx = {o: i for i, o in enumerate(bool3.objects)}
    assert len(bool3.objects) == 8 and len(bool3.morphisms) == 27
    assert colimit(bool3, ("initial",)).apex == idx["e"]
    assert limit(bool3, ("terminal",)).apex == idx["xyz"]
    assert colimit(bool3, ("coproduct", idx["x"], idx["y"])).apex == idx["xy"]
    assert limit(bool3, ("product", idx["xy"], idx["yz"])).apex == idx["y"]
    assert is_finitely_bicomplete(bool3).ok


def test_retract_not_bicomplete(retract):
    report = is_finitely_bicomplete(retract)
    assert not report.ok
    kinds = {m[0] for m in report.missing}
    assert "coproduct" in kinds or "product" in kinds


def test_discrete_category_missing_coproduct():
    cat = build_category(["x", "y"], [], {})
    r = colimit(cat, ("coproduct", 0, 1))
    assert not r.exists
    assert not is_finitely_bicomplete(cat).ok
    with pytest.raises(MissingLimitError):
        point_from_initial(cat, 0)


def test_limit_is_dual_colimit(diamond):
    op = opposite(diamond)
    a = diamond.objects.index("a")
    b = diamond.objects.index("b")
    assert limit(diamond, ("product", a, b)).apex == colimit(op, ("coproduct", a, b)).apex
    assert limit(diamond, ("terminal",)).apex == colimit(op, ("initial",)).apex


def test_point_maps_and_fold(diamond, pt):
    top = diamond.objects.index("top")
    bot = diamond.objects.index("bot")
    bot_top = next(i for i, m in enumerate(diamond.morphisms) if m.name == "bot_top")
    assert point_from_initial(diamond, top) == bot_top
    assert point_to_terminal(diamond, bot) == bot_top
    assert point_from_initial(diamond, bot) == diamond.identities[bot]

    # in a poset X⊔X = X and the fold map is the identity
    for x in range(len(diamond.objects)):
        cp, fold = fold_map(diamond, x)
        assert cp.apex == x and fold == diamond.identities[x]
        pr, diag = diagonal_map(diamond, x)
        assert pr.apex == x and diag == diamond.identities[x]
    cp, fold = fold_map(pt, 0)
    assert fold == pt.identities[0]


def test_colimit_shape_errors(diamond):
    with pytest.raises(InputError):
        colimit(diamond, ("coproduct", 0))
    with pytest.raises(InputError):
        colimit(diamond, ("pushout", 0, 99))
    with pytest.raises(InputError):
        colimit(diamond, ("equalizer", 0, 1))
    a_top = next(i for i, m in enumerate(diamond.morphisms) if m.name == "a_top")
    b_top = next(i for i, m in enumerate(diamond.morphisms) if m.name == "b_top")
    with pytest.raises(InputError):
        # cospan, not a span
        colimit(diamond, ("pushout", a_top, b_top))
