"""Axiom verification, cylinders, and the homotopy category."""

import dataclasses

import pytest

from modelcat import (
    InputError,
    MissingLimitError,
    ModelStructure,
    MorphClass,
    boundary_objects,
    find_cylinder,
    homotopy_category,
    minimal_model_structure,
    verify_model_structure,
)
from modelcat.modelstruct import AXIOM_NAMES, left_homotopic, right_homotopic
from modelcat.fincat import TheoremViolationError
import oracles
from oracles import point_from_initial, point_to_terminal


def _mid(cat, name):
    return next(i for i, m in enumerate(cat.morphisms) if m.name == name)


def _triple(cat, W, C, F):
    return MorphClass(cat, frozenset(W)), MorphClass(cat, frozenset(C)), MorphClass(cat, frozenset(F))


def test_report_covers_all_axioms(arrow):
    W, C, F = _triple(arrow, {0, 1}, {0, 1, 2}, {0, 1, 2})
    report = verify_model_structure(arrow, W, C, F)
    assert tuple(report.checks) == AXIOM_NAMES
    assert report.passed and report.first_failure() is None


def test_two_of_three_failure(chain2):
    f, g = _mid(chain2, "f"), _mid(chain2, "g")
    W, C, F = _triple(
        chain2,
        chain2.identity_set | {f, g},
        range(len(chain2.morphisms)),
        range(len(chain2.morphisms)),
    )
    report = verify_model_structure(chain2, W, C, F)
    assert not report.passed
    name, check = report.first_failure()
    assert name == "two_of_three_W"
    assert check.witness["composite"] == _mid(chain2, "gf")


def test_factorization_failure(arrow):
    # W = everything but C = F = identities: f cannot factor
    W, C, F = _triple(arrow, {0, 1, 2}, {0, 1}, {0, 1})
    report = verify_model_structure(arrow, W, C, F)
    assert not report.passed
    assert not report.checks["factor_trivcof_fib"].passed
    assert report.checks["factor_trivcof_fib"].witness == {"f": _mid(arrow, "f")}


def test_lifting_failure(arrow):
    f = _mid(arrow, "f")
    # all three classes full: the (f, f) square has no diagonal
    W, C, F = _triple(arrow, {0, 1, 2}, {0, 1, 2}, {0, 1, 2})
    report = verify_model_structure(arrow, W, C, F)
    assert not report.passed
    check = report.checks["lift_trivcof_fib"]
    assert not check.passed
    assert check.witness == {
        "i": f,
        "p": f,
        "top": arrow.identities[0],
        "bottom": arrow.identities[1],
    }


def test_stop_at_first(chain2):
    f, g = _mid(chain2, "f"), _mid(chain2, "g")
    W, C, F = _triple(
        chain2,
        chain2.identity_set | {f, g},
        range(len(chain2.morphisms)),
        range(len(chain2.morphisms)),
    )
    report = verify_model_structure(chain2, W, C, F, stop_at_first=True)
    assert list(report.checks) == ["two_of_three_W"]


@pytest.mark.parametrize("name", ["pt", "arrow", "chain2", "diamond", "bool3"])
def test_minimal_structure(name, request):
    cat = request.getfixturevalue(name)
    ms = minimal_model_structure(cat)
    assert ms.verified
    assert ms.W.members == cat.iso_set
    assert ms.C.members == ms.F.members == frozenset(range(len(cat.morphisms)))
    assert ms.triple() == (ms.W.members, ms.C.members, ms.F.members)


def test_minimal_requires_bicompleteness(retract):
    with pytest.raises(MissingLimitError):
        minimal_model_structure(retract)


def test_boundary_objects(diamond, diamond_minimal, diamond_census):
    everything = frozenset(range(len(diamond.objects)))
    assert boundary_objects(diamond_minimal, "cofibrant") == everything
    assert boundary_objects(diamond_minimal, "fibrant") == everything
    with pytest.raises(InputError):
        boundary_objects(diamond_minimal, "special")
    # agreement with the defining condition across the whole census
    for ms in diamond_census.structures:
        for x in range(len(diamond.objects)):
            assert (x in boundary_objects(ms, "cofibrant")) == (
                point_from_initial(diamond, x) in ms.C.members
            )
            assert (x in boundary_objects(ms, "fibrant")) == (
                point_to_terminal(diamond, x) in ms.F.members
            )


@pytest.mark.parametrize("name", ["diamond", "bool3"])
def test_boundary_objects_match_point_maps(request, name):
    """The cached boundary sets equal their defining condition on both
    sides for every census structure."""
    cat = request.getfixturevalue(name)
    census = request.getfixturevalue(f"{name}_census")
    objects = range(len(cat.objects))
    for ms in census.structures:
        cofibrant = {x for x in objects if point_from_initial(cat, x) in ms.C.members}
        fibrant = {x for x in objects if point_to_terminal(cat, x) in ms.F.members}
        assert boundary_objects(ms, "cofibrant") == ms.cofibrant == cofibrant
        assert boundary_objects(ms, "fibrant") == ms.fibrant == fibrant


def test_boundary_cache_invisible_to_equality(diamond_census):
    for ms in diamond_census.structures:
        read, unread = dataclasses.replace(ms), dataclasses.replace(ms)
        boundary_objects(read, "cofibrant")
        boundary_objects(read, "fibrant")
        assert {"cofibrant", "fibrant"} <= set(vars(read))
        assert not {"cofibrant", "fibrant"} & set(vars(unread))
        assert read == unread and unread == read and repr(read) == repr(unread)


def test_find_cylinder(diamond, diamond_minimal):
    ms = diamond_minimal
    for x in range(len(diamond.objects)):
        cyl = find_cylinder(diamond, ms.C, ms.W, x, "cylinder")
        # posets have X⊔X = X, so the cylinder collapses to the object itself
        assert cyl is not None and cyl.middle == x
        assert diamond.comp(cyl.collapse, cyl.structure_map) == diamond.identities[x]
        path = find_cylinder(diamond, ms.W, ms.F, x, "path")
        assert path is not None and path.middle == x
    none = find_cylinder(diamond, MorphClass.empty(diamond), ms.W, 0, "cylinder")
    assert none is None
    with pytest.raises(InputError):
        find_cylinder(diamond, ms.C, ms.W, 0, "torus")


def test_homotopy_relations(diamond, diamond_minimal):
    bot_a = _mid(diamond, "bot_a")
    bot_b = _mid(diamond, "bot_b")
    assert left_homotopic(diamond_minimal, bot_a, bot_a)
    assert right_homotopic(diamond_minimal, bot_a, bot_a)
    for relation in (left_homotopic, right_homotopic):
        with pytest.raises(InputError, match="parallel"):
            relation(diamond_minimal, bot_a, bot_b)  # not parallel


def test_homotopy_category_minimal(diamond, diamond_minimal):
    ho = homotopy_category(diamond_minimal)
    assert ho.objects == tuple(range(len(diamond.objects)))
    # with W = isos every class is a singleton
    for (a, b), classes in ho.homs.items():
        assert sum(map(len, classes)) == len(diamond.hom(a, b))
        assert all(len(c) == 1 for c in classes)
    bot_a = _mid(diamond, "bot_a")
    a_top = _mid(diamond, "a_top")
    composed = ho.compose(ho.cls_of(a_top), ho.cls_of(bot_a))
    assert composed == ho.cls_of(_mid(diamond, "bot_top"))


def test_homotopy_category_whole_census(diamond_census):
    # the internal equivalence/compatibility assertions must hold throughout
    for ms in diamond_census.structures:
        ho = homotopy_category(ms)
        for (a, b), classes in ho.homs.items():
            covered = set().union(*classes) if classes else set()
            assert covered == set(ms.cat.hom(a, b))
        for f, m in enumerate(ms.cat.morphisms):  # cls_of refuses the other maps
            if {m.src, m.tgt} <= set(ho.objects):
                assert ho.cls_of(f) == {f}
            else:
                with pytest.raises(InputError):
                    ho.cls_of(f)


def test_homotopy_category_requires_verified(diamond):
    ms = ModelStructure(
        diamond,
        MorphClass.isos(diamond),
        MorphClass.all_maps(diamond),
        MorphClass.all_maps(diamond),
        report=None,
    )
    with pytest.raises(InputError):
        homotopy_category(ms)


def test_homotopy_category_raises_when_homotopies_disagree(diamond_minimal, monkeypatch):
    """The search oracle's consistency checks raise TheoremViolationError,
    which survives ``python -O``, instead of asserting.  The library's
    closed form has no such checks: on a lattice they cannot fire."""
    monkeypatch.setattr(oracles, "_search_right_homotopic", lambda ms, f, g: False)
    with pytest.raises(TheoremViolationError, match="left/right homotopy disagree"):
        oracles._search_homotopy_category(diamond_minimal)
