"""Functor/adjunction validation and Quillen pair/equivalence checks."""

import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modelcat

from modelcat import (
    Adjunction,
    Functor,
    InputError,
    ModelStructure,
    MorphClass,
    derived_fullfaithful_check,
    is_quillen_equivalence,
    is_quillen_pair,
    validate_adjunction,
)
from modelcat import quillen
from modelcat.catio import fixture_path, load_adjunction, load_fixture
from modelcat.modelstruct import minimal_model_structure
from modelcat.fincat import TheoremViolationError
from modelcat.quillen import validate_functor
from oracles import _walked_functor_issues, hom_bijection_ok
from test_thin import BUILT


def test_identity_functor_validates(diamond):
    assert validate_functor(Functor.identity(diamond)) == []


def test_broken_functor(diamond, arrow):
    fun = Functor.identity(diamond)
    bad = Functor(diamond, diamond, fun.obj_map, tuple(reversed(fun.mor_map)))
    assert validate_functor(bad) != []
    short = Functor(diamond, diamond, (0,), (0,))
    assert validate_functor(short) == ["object/morphism map has wrong length"]


def _lattice(*lengths):
    """The product of chains [l1] × [l2] × ..., elements named by digits."""
    points = ["".join(map(str, p)) for p in itertools.product(*(range(n + 1) for n in lengths))]
    return modelcat.from_poset(points, lambda a, b: all(x <= y for x, y in zip(a, b)))


# the lattices whose identity adjunctions the cli-batch benchmark checks
BATCH_LATTICES = [
    *((n,) for n in range(3, 9)), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 1), (1, 1, 1, 1),
]


def _broken(fun, rng):
    """``fun`` with a few seeded object and morphism images replaced."""
    obj_map, mor_map = list(fun.obj_map), list(fun.mor_map)
    for _ in range(rng.randrange(3)):
        obj_map[rng.randrange(len(obj_map))] = rng.randrange(len(fun.target.objects))
    for _ in range(rng.randrange(1, 4)):
        mor_map[rng.randrange(len(mor_map))] = rng.randrange(len(fun.target.morphisms))
    return Functor(fun.source, fun.target, tuple(obj_map), tuple(mor_map))


@pytest.mark.parametrize("lengths", BATCH_LATTICES, ids=str)
def test_thin_functor_issues_match_the_walk(lengths):
    """Between thin categories the composable pairs are not walked, and the
    issue lists stay those of the walk: empty for the identity adjunction,
    endpoint and identity issues for seeded broken functors."""
    cat = _lattice(*lengths)
    identity = Functor.identity(cat)
    assert validate_functor(identity) == _walked_functor_issues(identity) == []
    assert validate_adjunction(Adjunction.identity(cat)) == []
    rng, broken = random.Random(len(cat.morphisms)), 0
    for _ in range(20):
        fun = _broken(identity, rng)
        assert validate_functor(fun) == _walked_functor_issues(fun)
        broken += validate_functor(fun) != []
    assert broken > 10


def test_non_thin_target_still_walks_the_composable_pairs(retract):
    """Into retract.cat, whose B has two endomorphisms, a functor can keep
    every endpoint and identity and still break composition: with e ↦ id_B
    the image of e = s∘r is id_B, but the composite of the images is e."""
    mid = {m.name: i for i, m in enumerate(retract.morphisms)}
    identity = Functor.identity(retract)
    assert validate_functor(identity) == _walked_functor_issues(identity) == []
    mor_map = list(identity.mor_map)
    mor_map[mid["e"]] = retract.identities[1]
    fun = Functor(retract, retract, identity.obj_map, tuple(mor_map))
    issues = validate_functor(fun)
    assert issues == _walked_functor_issues(fun)
    assert "composition s∘r not preserved" in issues
    assert all(issue.startswith("composition") for issue in issues)
    rng = random.Random(3)
    for _ in range(50):
        fun = _broken(identity, rng)
        assert validate_functor(fun) == _walked_functor_issues(fun)
    diamond = load_fixture("diamond.cat")  # a thin source into a non-thin target
    const = Functor(diamond, retract, (1,) * len(diamond.objects), (mid["e"],) * len(diamond.morphisms))
    assert validate_functor(const) == _walked_functor_issues(const)
    assert validate_functor(const)[0].startswith("identity")


def test_identity_adjunction(diamond, bool3):
    for cat in (diamond, bool3, BUILT["iso+top"]()):  # a ≅ b < t is not a poset
        adj = Adjunction.identity(cat)
        assert validate_adjunction(adj) == []
        assert hom_bijection_ok(adj)


def test_broken_adjunction(diamond):
    adj = Adjunction.identity(diamond)
    bot_a = next(i for i, m in enumerate(diamond.morphisms) if m.name == "bot_a")
    unit = list(adj.unit)
    unit[0] = bot_a  # wrong endpoints for a unit component
    bad = Adjunction(adj.S, adj.T, tuple(unit), adj.counit)
    issues = validate_adjunction(bad)
    assert any("unit component" in s for s in issues)


def test_adjunction_is_validated_once(diamond, diamond_minimal, monkeypatch):
    """A parsed adjunction keeps the issue list its parse computed, so
    Quillen checks do not validate it again; a hand-built one is validated
    on its first check and refused with its first issue."""
    real, calls = quillen.validate_adjunction, []
    monkeypatch.setattr(quillen, "validate_adjunction", lambda adj: calls.append(adj) or real(adj))
    parsed = load_adjunction(fixture_path("diamond_identity.adj"))
    assert len(calls) == 1
    msM = minimal_model_structure(parsed.S.source)
    for _ in range(3):
        assert is_quillen_pair(parsed, msM, msM).passed
    assert len(calls) == 1
    adj = Adjunction.identity(diamond)
    unit = list(adj.unit)
    unit[0] = next(i for i, m in enumerate(diamond.morphisms) if m.name == "bot_a")
    bad = Adjunction(adj.S, adj.T, tuple(unit), adj.counit)
    for _ in range(2):
        with pytest.raises(InputError, match=re.escape(f"invalid adjunction: {real(bad)[0]}")):
            is_quillen_pair(bad, diamond_minimal, diamond_minimal)
    assert calls[1:] == [bad]


def test_quillen_pair_agreement_across_census(diamond, diamond_census):
    """For the identity adjunction, the left condition reduces to class
    containments; the checker also asserts internally that the left and
    right formulations agree."""
    adj = Adjunction.identity(diamond)
    for msM in diamond_census.structures:
        for msN in diamond_census.structures:
            r = is_quillen_pair(adj, msM, msN)
            expected = msM.C.members <= msN.C.members and (
                msM.C.members & msM.W.members
            ) <= (msN.C.members & msN.W.members)
            assert r.passed == expected


def test_quillen_pair_rejects_bad_input(diamond, arrow, diamond_minimal, arrow_minimal):
    adj = Adjunction.identity(diamond)
    with pytest.raises(InputError):
        is_quillen_pair(adj, arrow_minimal, diamond_minimal)


def test_quillen_equivalence_self(diamond, diamond_minimal):
    adj = Adjunction.identity(diamond)
    assert is_quillen_equivalence(adj, diamond_minimal, diamond_minimal).passed


def test_quillen_equivalence_failure(diamond, diamond_minimal, diamond_census):
    adj = Adjunction.identity(diamond)
    localized = diamond_census.find(
        frozenset(range(9)), diamond.identity_set, frozenset(range(9))
    )
    assert localized is not None
    pair = is_quillen_pair(adj, localized, diamond_minimal)
    assert pair.passed
    r = is_quillen_equivalence(adj, localized, diamond_minimal)
    # a non-iso map is a weak equivalence on one side only
    assert not r.passed
    assert r.witness is not None
    g = r.witness["g"]
    assert g in localized.W.members and g not in diamond_minimal.W.members


def test_derived_ff_equal_structures(diamond, diamond_minimal):
    adj = Adjunction.identity(diamond)
    for side in ("left", "right"):
        r = derived_fullfaithful_check(
            adj, diamond_minimal, diamond_minimal, diamond_minimal, diamond_minimal, side
        )
        assert r.passed, side
    with pytest.raises(InputError):
        derived_fullfaithful_check(
            adj, diamond_minimal, diamond_minimal, diamond_minimal, diamond_minimal, "up"
        )


def test_derived_ff_precondition_failure(diamond, diamond_minimal, diamond_census):
    # pick an extension that changes the cofibrant objects of M
    adj = Adjunction.identity(diamond)
    from modelcat.modelstruct import boundary_objects

    target = None
    for ms in diamond_census.structures:
        if boundary_objects(ms, "cofibrant") != boundary_objects(
            diamond_minimal, "cofibrant"
        ):
            target = ms
            break
    if target is None:
        pytest.skip("census has no structure with different cofibrant objects")
    r = derived_fullfaithful_check(adj, diamond_minimal, diamond_minimal, target, target, "right")
    assert not r.passed
    assert "cofibrant" in r.description


def _disagreeing_pair(arrow):
    """Identity adjunction of arrow with M = (isos, all, all) and the
    unverified N = (isos, ids, all): S = id does not carry the
    cofibrations of M into C_N, while T = id preserves every (trivial)
    fibration, so the two Quillen-pair conditions disagree."""
    isos, alls = MorphClass.isos(arrow), MorphClass.all_maps(arrow)
    msM = ModelStructure(arrow, isos, alls, alls)
    msN = ModelStructure(arrow, isos, MorphClass.identities(arrow), alls)
    return Adjunction.identity(arrow), msM, msN


def test_quillen_conditions_disagreeing_raise(arrow):
    with pytest.raises(TheoremViolationError, match="conditions disagree"):
        is_quillen_pair(*_disagreeing_pair(arrow))


def test_quillen_consistency_check_survives_optimize():
    """Under ``python -O`` asserts vanish; the consistency check must not."""
    script = (
        "from modelcat import load_fixture, is_quillen_pair\n"
        "from modelcat.fincat import TheoremViolationError\n"
        "from test_quillen import _disagreeing_pair\n"
        "print('debug' if __debug__ else 'optimized')\n"
        "try:\n"
        "    is_quillen_pair(*_disagreeing_pair(load_fixture('arrow.cat')))\n"
        "except TheoremViolationError:\n"
        "    print('raised')\n"
    )
    src = str(Path(modelcat.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["optimized", "raised"]
