"""The preorder view of a thin category, the lattice verdict, and the
closed-form tables read from it, each checked against its search oracle."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelcat import fincat, morphclass
from modelcat.fincat import (
    FinCat,
    InputError,
    Morphism,
    Preorder,
    TheoremViolationError,
    build_category,
    is_finitely_bicomplete,
    opposite,
)
from modelcat.catio import load_fixture
from modelcat.morphclass import (
    factor_pairs,
    lifting_blocks,
    pullback_transfers,
    pushout_transfers,
    retract_pairs,
    unliftable_pairs,
)
from oracles import (
    _opposite_pullbacks,
    _search_factor_pairs,
    _search_pushout_transfers,
    _search_retract_pairs,
    _search_unliftable_pairs,
)


def _preorder_category(elements, leq):
    """The thin category of a finite preorder on named elements: one arrow
    per x ≤ y (``id_x`` when x = y) and every composite spelled out, so
    isomorphic objects are allowed."""

    def name(a, b):
        return f"id_{a}" if a == b else f"{a}_to_{b}"

    morphisms = [
        (name(a, b), a, b) for a in elements for b in elements if a != b and leq(a, b)
    ]
    comps = {
        (name(b, c), name(a, b)): name(a, c)
        for a, b, c in itertools.product(elements, repeat=3)
        if leq(a, b) and leq(b, c)
    }
    return build_category(list(elements), morphisms, comps)


def _lattice(*lengths):
    """The product of chains [l1] × [l2] × ...; bool_k is (1,) * k."""
    points = {
        ".".join(map(str, p)): p
        for p in itertools.product(*(range(n + 1) for n in lengths))
    }
    return _preorder_category(
        list(points),
        lambda a, b: all(x <= y for x, y in zip(points[a], points[b])),
    )


def _closure(elements, pairs):
    """The preorder on ``elements`` generated by ``pairs``."""
    leq = {(x, x) for x in elements} | set(pairs)
    while more := {(a, d) for a, b in leq for c, d in leq if b == c} - leq:
        leq |= more
    return leq


def _relation(pairs):
    """The thin category of the preorder generated by ``pairs`` on the
    elements they name."""
    elements = sorted({x for pair in pairs for x in pair})
    leq = _closure(elements, pairs)
    return _preorder_category(elements, lambda a, b: (a, b) in leq)


def _relabel(cat: FinCat, obj_order, mor_order) -> FinCat:
    """``cat`` with object ``obj_order[i]`` renumbered i and morphism
    ``mor_order[j]`` renumbered j."""
    obj = {x: i for i, x in enumerate(obj_order)}
    mor = {f: j for j, f in enumerate(mor_order)}
    return FinCat(
        tuple(cat.objects[x] for x in obj_order),
        tuple(Morphism(cat.name(f), obj[cat.src(f)], obj[cat.tgt(f)]) for f in mor_order),
        tuple(mor[cat.identities[x]] for x in obj_order),
        tuple(
            tuple(mor[cat.table[g][f]] if cat.table[g][f] >= 0 else -1 for f in mor_order)
            for g in mor_order
        ),
    )


FIXTURES = ("pt", "arrow", "chain2", "diamond", "retract", "bool3")

BUILT = {
    **{f"[{n}]": (lambda n=n: _lattice(n)) for n in range(3, 9)},
    "[1]x[2]": lambda: _lattice(1, 2),
    "[2]x[2]": lambda: _lattice(2, 2),
    "[1]x[3]": lambda: _lattice(1, 3),
    "[2]x[3]": lambda: _lattice(2, 3),
    "bool3": lambda: _lattice(1, 1, 1),
    "bool4": lambda: _lattice(1, 1, 1, 1),
    # posets that are not lattices
    "V": lambda: _relation([("a", "b"), ("a", "c")]),
    "discrete2": lambda: _preorder_category(["a", "b"], lambda x, y: x == y),
    # thin categories that are not posets: a ≅ b, with and without a top
    "iso+top": lambda: _relation([("a", "b"), ("b", "a"), ("a", "t")]),
    "iso,no top": lambda: _relation([("a", "b"), ("b", "a"), ("a", "c"), ("a", "d")]),
}


TABLES = (
    unliftable_pairs, lifting_blocks, retract_pairs, pushout_transfers,
    pullback_transfers, lambda cat: factor_pairs(cat, 0),
)


def _least_bound(cat: FinCat, xs, up: bool):
    """From the hom-sets: the least-index b bounding every x of ``xs``
    from above (``up``) or below, and bounded by every such bound; or None."""
    def le(a, b):
        return bool(cat.hom(a, b) if up else cat.hom(b, a))

    bounds = [b for b in range(len(cat.objects)) if all(le(x, b) for x in xs)]
    return next((b for b in bounds if all(le(b, c) for c in bounds)), None)


def _assert_bounds_match_hom_sets(cat: FinCat) -> None:
    """``join`` and ``meet`` of (), (x,) and (x, y) equal the least bounds
    read from the hom-sets."""
    po = cat.preorder
    objects = range(len(cat.objects))
    for xs in [(), *((x,) for x in objects), *itertools.product(objects, repeat=2)]:
        assert po.join(*xs) == _least_bound(cat, xs, True), xs
        assert po.meet(*xs) == _least_bound(cat, xs, False), xs


def _assert_tables_match_search(cat: FinCat) -> None:
    """The bicompleteness gaps equal their generic search, and on a
    preorder joins and meets equal the hom-sets' least bounds.  On a
    lattice every table equals its search oracle, in the same order and
    with the same witnesses; any other category is refused by every table."""
    assert is_finitely_bicomplete(cat).missing == tuple(fincat._search_bicomplete(cat))
    if cat.preorder is not None:
        _assert_bounds_match_hom_sets(cat)
    searched = _search_unliftable_pairs(cat)
    if not isinstance(cat.lattice, Preorder):
        for table in TABLES:
            with pytest.raises(InputError, match="finitely bicomplete"):
                table(cat)
        return
    assert list(unliftable_pairs(cat).items()) == list(searched.items())
    blocks = [0] * len(cat.morphisms)
    for i, p in searched:
        blocks[i] |= 1 << p
    assert lifting_blocks(cat) == tuple(blocks)
    assert retract_pairs(cat) == _search_retract_pairs(cat)
    assert pushout_transfers(cat) == _search_pushout_transfers(cat)
    assert pullback_transfers(cat) == _search_pushout_transfers(opposite(cat))
    for f in range(len(cat.morphisms)):
        assert factor_pairs(cat, f) == _search_factor_pairs(cat, f)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_tables_match_search(name):
    cat = load_fixture(f"{name}.cat")  # a fresh copy: no cached tables
    assert (cat.preorder is None) == (name == "retract")
    _assert_tables_match_search(cat)


@pytest.mark.parametrize("name", sorted(BUILT))
def test_built_tables_match_search(name):
    cat = BUILT[name]()
    assert cat.preorder is not None
    _assert_tables_match_search(cat)


@pytest.mark.parametrize("name", ["iso+top", "iso,no top"])
def test_relabelled_isomorphs_match_search(name):
    """Every object order of the non-skeletal inputs, so the least-index
    choice among isomorphic joins and meets meets every position."""
    cat = BUILT[name]()
    n = len(cat.morphisms)
    for obj_order in itertools.permutations(range(len(cat.objects))):
        for mor_order in (range(n), range(n - 1, -1, -1)):
            _assert_tables_match_search(_relabel(cat, obj_order, list(mor_order)))


@pytest.mark.parametrize("name", [*FIXTURES, "bool4", "[2]x[3]", "iso+top"])
def test_pullbacks_are_the_opposite_pushouts(name):
    """Base change as one meet per cospan gives the pushout table of the
    opposite category, in the same order, on every fixture, bool4, [2]×[3]
    and every object order of a ≅ b ≤ t, where the least-index meet must be
    the apex the opposite join picks; both refuse a category that is not
    finitely bicomplete."""
    if name in BUILT:
        cat = BUILT[name]()
    else:
        cat = load_fixture(f"{name}.cat")
    if name == "retract":
        for table in (pullback_transfers, _opposite_pullbacks):
            with pytest.raises(InputError, match="finitely bicomplete"):
                table(dataclasses.replace(cat))
        return
    cats = [cat]
    if name == "iso+top":
        n = len(cat.morphisms)
        cats = [
            _relabel(cat, obj_order, mor_order)
            for obj_order in itertools.permutations(range(len(cat.objects)))
            for mor_order in (list(range(n)), list(range(n - 1, -1, -1)))
        ]
    for cat in cats:
        assert pullback_transfers(cat) == _opposite_pullbacks(cat)


def test_non_lattices_have_gaps_and_isomorphs_have_retracts():
    """The extra inputs reach the branches a poset lattice does not:
    missing joins and meets (refused by the tables), and retract pairs
    between isomorphic objects."""
    for name in ("V", "discrete2", "iso,no top"):
        assert not is_finitely_bicomplete(BUILT[name]()).ok
    assert is_finitely_bicomplete(BUILT["iso+top"]()).ok
    assert retract_pairs(BUILT["iso+top"]())
    assert _search_retract_pairs(BUILT["iso,no top"]())


@st.composite
def _relabelled_posets(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    elements = [str(i) for i in range(k)]
    # only pairs i < j, so the closure is antisymmetric
    below = [pair for pair in itertools.combinations(elements, 2) if draw(st.booleans())]
    leq = _closure(elements, below)
    cat = _preorder_category(elements, lambda a, b: (a, b) in leq)
    obj_order = draw(st.permutations(range(k)))
    mor_order = draw(st.permutations(range(len(cat.morphisms))))
    return _relabel(cat, obj_order, mor_order)


@settings(max_examples=60, deadline=None)
@given(cat=_relabelled_posets())
def test_random_relabelled_posets_match_search(cat):
    assert cat.preorder is not None
    _assert_tables_match_search(cat)


def test_thin_categories_never_search(monkeypatch):
    """On a thin category validation and bicompleteness read the closed
    forms, and the tables have no generic search left in the library."""

    def searched(*args):
        raise AssertionError("generic search on a thin category")

    for name in ("_search_unliftable_pairs", "_search_retract_pairs",
                 "_search_pushout_transfers", "_search_factor_pairs"):
        assert not hasattr(morphclass, name)
    monkeypatch.setattr(fincat, "_search_bicomplete", searched)
    monkeypatch.setattr(fincat, "_search_validate", searched)
    cat = _lattice(2, 2)
    assert fincat.validate_category(cat).ok
    assert is_finitely_bicomplete(cat).ok
    assert fincat.require_lattice(cat) is cat.preorder
    unliftable_pairs(cat)
    retract_pairs(cat)
    pullback_transfers(cat)
    for f in range(len(cat.morphisms)):
        factor_pairs(cat, f)


# -- the preorder view itself --------------------------------------------


def test_preorder_reads_the_hom_sets(diamond):
    po = diamond.preorder
    for a, b in itertools.product(range(len(diamond.objects)), repeat=2):
        maps = diamond.hom(a, b)
        assert po.arrow[a][b] == (maps[0] if maps else -1)
        assert (po.up[a] >> b & 1) == (po.down[b] >> a & 1) == bool(maps)
    k = len(diamond.objects)
    assert po.arrows == tuple(
        (a, b, po.arrow[a][b]) for a in range(k) for b in range(k) if po.arrow[a][b] >= 0
    )
    assert sorted(f for _, _, f in po.arrows) == list(range(len(diamond.morphisms)))
    bot, a, b, top = (diamond.objects.index(x) for x in ("bot", "a", "b", "top"))
    assert (po.join(), po.meet()) == (bot, top)
    assert (po.join(a, b), po.meet(a, b)) == (top, bot)


def test_join_picks_the_least_index_isomorph():
    """With two isomorphic joins the view picks the lower index, which is
    the apex the colimit search picks."""
    cat = BUILT["iso+top"]()  # objects a ≅ b ≤ t
    po = cat.preorder
    a, b = cat.objects.index("a"), cat.objects.index("b")
    assert po.join(a, b) == po.join() == po.meet(a, b) == min(a, b)
    assert fincat.colimit(cat, ("coproduct", a, b)).apex == min(a, b)


def test_preorder_is_none_on_retract(retract):
    assert retract.preorder is None


def _entry(cat, g, f, value):
    table = [list(row) for row in cat.table]
    table[g][f] = value
    return dataclasses.replace(cat, table=tuple(map(tuple, table)))


def test_preorder_is_none_on_a_wrong_or_missing_composite():
    cat = _lattice(2)  # 0 → 1 → 2
    f = cat.hom(0, 1)[0]
    g = cat.hom(1, 2)[0]
    assert cat.preorder is not None
    assert _entry(cat, g, f, cat.identities[0]).preorder is None
    assert _entry(cat, g, f, -1).preorder is None
    assert _entry(cat, f, g, cat.hom(0, 2)[0]).preorder is None  # not composable
    # x → y → z with no arrow x → z: hom-sets are small but ≤ is not transitive
    gap = FinCat(
        ("x", "y", "z"),
        (Morphism("id_x", 0, 0), Morphism("id_y", 1, 1), Morphism("id_z", 2, 2),
         Morphism("f", 0, 1), Morphism("g", 1, 2)),
        (0, 1, 2),
        (
            (0, -1, -1, -1, -1),
            (-1, 1, -1, 3, -1),
            (-1, -1, 2, -1, 4),
            (3, -1, -1, -1, -1),
            (-1, 4, -1, -1, -1),
        ),
    )
    assert gap.preorder is None


MALFORMED = {
    "rows": lambda c: dataclasses.replace(c, table=c.table[:-1]),
    "row-short": lambda c: dataclasses.replace(c, table=(c.table[0][:-1],) + c.table[1:]),
    "row-long": lambda c: dataclasses.replace(c, table=(c.table[0] + (-1,),) + c.table[1:]),
    "dangling-entry": lambda c: _entry(c, 0, 0, 99),
    "entry-type": lambda c: _entry(c, 0, 0, "id"),
    "row-type": lambda c: dataclasses.replace(c, table=(5,) + c.table[1:]),
    "identities-short": lambda c: dataclasses.replace(c, identities=c.identities[:-1]),
    "identity-dangling": lambda c: dataclasses.replace(c, identities=(99,) + c.identities[1:]),
    "identity-negative": lambda c: dataclasses.replace(c, identities=(-1,) + c.identities[1:]),
    "src-dangling": lambda c: dataclasses.replace(
        c, morphisms=(Morphism("m", 7, 0),) + c.morphisms[1:]
    ),
    "src-negative": lambda c: dataclasses.replace(
        c, morphisms=(Morphism("m", -1, -1),) + c.morphisms[1:]
    ),
    "src-type": lambda c: dataclasses.replace(
        c, morphisms=(Morphism("m", "a", 0),) + c.morphisms[1:]
    ),
    "morphism-type": lambda c: dataclasses.replace(c, morphisms=(None,) + c.morphisms[1:]),
    "no-identity": lambda c: FinCat(("x",), (), (-1,), ()),
}


@pytest.mark.parametrize("break_it", list(MALFORMED.values()), ids=list(MALFORMED))
def test_preorder_is_none_on_malformed_tables(break_it):
    cat = break_it(_lattice(2))
    assert cat.preorder is None


@pytest.mark.parametrize("break_it", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_tables_are_reported_not_raised(break_it, chain2):
    """Validation checks the type and range of every id before it indexes
    with it, so a malformed table gets a violation, never an exception,
    and the lattice verdict refuses it as invalid input."""
    cat = break_it(chain2)
    assert not fincat.validate_category(cat).ok
    with pytest.raises(InputError, match="does not validate"):
        fincat.require_lattice(cat)


def test_require_lattice_refusals(retract):
    """The lattice verdict checks validity, then bicompleteness, then
    thinness; a category told it is bicomplete without being thin breaks
    the theorem that makes every finitely bicomplete finite category thin."""
    cat = _lattice(2)
    assert fincat.require_lattice(cat) is cat.preorder is cat.lattice
    wrong = _entry(cat, cat.hom(1, 2)[0], cat.hom(0, 1)[0], cat.identities[0])
    with pytest.raises(InputError, match="does not validate"):
        fincat.require_lattice(wrong)
    with pytest.raises(InputError, match="finitely bicomplete"):
        fincat.require_lattice(retract)
    for name in ("V", "discrete2", "iso,no top"):
        with pytest.raises(InputError, match="finitely bicomplete"):
            fincat.require_lattice(BUILT[name]())
    told = dataclasses.replace(retract)  # a fresh copy: no cached verdict
    told.scratch["bicomplete"] = fincat.BicompletenessReport(())
    with pytest.raises(TheoremViolationError, match="has 2 maps"):
        fincat.require_lattice(told)


# -- validation on the preorder view ---------------------------------------


def _renamed(cat, objects=None, names=None):
    """``cat`` with new object or morphism names and the same table."""
    morphisms = cat.morphisms
    if names is not None:
        morphisms = tuple(Morphism(n, m.src, m.tgt) for n, m in zip(names, morphisms))
    return dataclasses.replace(cat, objects=objects or cat.objects, morphisms=morphisms)


def _validation_inputs():
    for name in FIXTURES:
        cat = load_fixture(f"{name}.cat")
        yield name, cat
        yield f"op {name}", opposite(cat)
    for name, build in BUILT.items():
        yield name, build()
    for name, break_it in MALFORMED.items():
        yield name, break_it(_lattice(2))
    chain = _lattice(2)
    first, second = chain.objects[:2]
    yield "same objects", _renamed(chain, objects=(first, first) + chain.objects[2:])
    yield "same maps", _renamed(chain, names=["m"] * len(chain.morphisms))
    yield "same both", _renamed(
        chain, objects=(second,) * len(chain.objects), names=["m"] * len(chain.morphisms)
    )
    f, g = chain.hom(0, 1)[0], chain.hom(1, 2)[0]
    yield "wrong composite", _entry(chain, g, f, chain.identities[0])
    yield "missing composite", _entry(chain, g, f, -1)


def test_validation_matches_search():
    """On a preorder only the names are checked; the report equals the full
    check on the fixtures, their opposites, the built categories, the
    malformed tables and thin categories with repeated names."""
    thin = bad_names = 0
    for name, cat in _validation_inputs():
        got = fincat.validate_category(cat)
        assert got == fincat._search_validate(cat), name
        thin += cat.preorder is not None
        bad_names += cat.preorder is not None and not got.ok
    assert thin == 2 * len(FIXTURES) - 2 + len(BUILT) + 3
    assert bad_names == 3
