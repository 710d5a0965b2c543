"""The homotopy layer and the invariance and transfer checks as closed
forms on the lattice view, against their generic searches in ``oracles``.

On a lattice parallel maps are equal, so a homotopy is one cylinder (or
path object) lookup, the homotopy category is the full subcategory on the
cofibrant-fibrant objects with singleton classes, every square commutes,
and a triangle is read per arrow from the one arrow between two objects.
The closed forms must give the searches' verdicts, witnesses and
``HoCategory`` contents, key order included.
"""

import random

import pytest

from modelcat import ModelStructure, MorphClass, load_fixture
from modelcat.census import enumerate_model_structures
from modelcat.extend import HypothesisError, check_fibration_transfer, check_invariance
from modelcat.modelstruct import homotopy_category, left_homotopic, right_homotopic
from oracles import (
    _search_homotopy_category,
    _search_left_homotopic,
    _search_right_homotopic,
    _walked_fibration_transfer,
    _walked_invariance,
)
from test_thin import BUILT, _lattice

CATEGORIES = {
    **{name: (lambda name=name: load_fixture(f"{name}.cat"))
       for name in ("pt", "arrow", "chain2", "diamond")},
    "[4]": lambda: _lattice(4),
    "[1]x[2]": lambda: _lattice(1, 2),
    "a≅b<t": BUILT["iso+top"],
}


@pytest.fixture(scope="module", params=[*CATEGORIES, "bool3"])
def census(request):
    """(category, census structures); bool3's is the session census."""
    if request.param == "bool3":
        result = request.getfixturevalue("bool3_census")
        return result.structures[0].cat, result.structures
    cat = CATEGORIES[request.param]()
    return cat, enumerate_model_structures(cat, "pruned").structures


def _verdict(result):
    return result.passed, result.description, result.witness and list(result.witness.items())


def _random_class(cat, rng, p=0.5):
    return MorphClass(cat, frozenset(f for f in range(len(cat.morphisms)) if rng.random() < p))


def test_homotopy_category_matches_search(census):
    _, structures = census
    for ms in structures:
        ho, oracle = homotopy_category(ms), _search_homotopy_category(ms)
        assert ho.objects == oracle.objects
        assert list(ho.homs.items()) == list(oracle.homs.items())
        assert all(len(c) == 1 for classes in ho.homs.values() for c in classes)


def test_homotopy_relations_match_search(census):
    """On census structures and on seeded triples that are not model
    structures, where a cylinder or path object may be missing; the only
    parallel pairs of a thin category are (f, f)."""
    cat, structures = census
    rng = random.Random(len(cat.morphisms))
    sample = rng.sample(structures, min(len(structures), 40)) + [
        ModelStructure(cat, *(_random_class(cat, rng) for _ in range(3)))
        for _ in range(40)
    ]
    answers = set()
    for ms in sample:
        for f in range(len(cat.morphisms)):
            left, right = left_homotopic(ms, f, f), right_homotopic(ms, f, f)
            assert left == _search_left_homotopic(ms, f, f)
            assert right == _search_right_homotopic(ms, f, f)
            answers |= {left, right}
    assert True in answers
    assert False in answers or len(cat.morphisms) == 1


def test_fibration_transfer_matches_walk(census):
    """All ordered pairs of census structures; a seeded sample of 4,000 on
    bool3, whose 1,026 structures make a million pairs."""
    cat, structures = census
    n = len(structures)
    indices = range(n * n) if n < 1000 else random.Random(7).sample(range(n * n), 4000)
    pairs = [(structures[i // n], structures[i % n]) for i in indices]
    failures = 0
    for base, ext in pairs:
        verdict = _verdict(check_fibration_transfer(base, ext))
        assert verdict == _verdict(_walked_fibration_transfer(base, ext))
        failures += not verdict[0]
    assert failures or len(structures) < 3


def test_invariance_matches_walk(census):
    cat, _ = census
    rng = random.Random(len(cat.morphisms) + 1)
    failures = 0
    for _ in range(150):
        super_ = _random_class(cat, rng, 0.7)
        sub = MorphClass(cat, frozenset(f for f in super_.members if rng.random() < 0.6))
        W = _random_class(cat, rng, 0.6)
        verdict = _verdict(check_invariance(sub, super_, W))
        assert verdict == _verdict(_walked_invariance(sub, super_, W))
        failures += not verdict[0]
    assert failures or len(cat.morphisms) == 1
    if len(cat.morphisms) > 1:
        everything, none = MorphClass.all_maps(cat), MorphClass.empty(cat)
        for check in (check_invariance, _walked_invariance):
            with pytest.raises(HypothesisError):
                check(everything, none, everything)

