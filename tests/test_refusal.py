"""Refusal of every input outside the theory: ill-formed categories,
categories that are not thin and thin ones that are not finitely
bicomplete.  The library raises :class:`InputError` from every
model-structure entry point and every per-category table
(``minimal_model_structure`` raises :class:`MissingLimitError` on a valid
category that is not finitely bicomplete), and no
structure command of ``mcx`` prints "pass": each exits 2 (``minimal``
exits 1 with its reason on a valid category), never with a traceback."""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelcat import (
    InputError,
    MissingLimitError,
    ModelStructure,
    MorphClass,
    enumerate_factorizations,
    enumerate_model_structures,
    find_cylinder,
    homotopy_category,
    lifting_closure,
    minimal_model_structure,
    parse_category,
    validate_category,
    verify_model_structure,
)
from modelcat.catio import fixture_path
from modelcat.extend import (
    ExtensionCandidate,
    check_fibration_transfer,
    check_invariance,
    cofibrant_approximation_square,
    factor_c_then_trivfib,
    mapping_cylinder_factorization,
)
from modelcat.fincat import Preorder
from modelcat.modelstruct import left_homotopic, right_homotopic
from modelcat.cli import run
from modelcat.morphclass import (
    closure_check,
    factor_pairs,
    factors_all,
    has_lifting,
    lifting_blocks,
    pullback_transfers,
    pushout_transfers,
    retract_pairs,
    unliftable_pairs,
)

# the three inputs on which the library once reported verified=True with
# W = identities and C = F = all maps
ENDOMORPHISM_WITHOUT_SQUARE = {
    "objects": ["x"],
    "morphisms": [{"name": "e", "src": "x", "tgt": "x"}],
}
CHAIN2_WITHOUT_COMPOSITE = {
    "objects": ["0", "1", "2"],
    "morphisms": [
        {"name": "f", "src": "0", "tgt": "1"},
        {"name": "g", "src": "1", "tgt": "2"},
        {"name": "gf", "src": "0", "tgt": "2"},
    ],
}
RETRACT = json.loads(fixture_path("retract.cat").read_text())


def _preorder_spec(k, below):
    """The category file of the preorder on objects 0..k-1 generated by
    the pairs ``below``, with every composite spelled out."""
    leq = {(x, x) for x in range(k)} | set(below)
    while more := {(a, d) for a, b in leq for c, d in leq if b == c} - leq:
        leq |= more

    def name(a, b):
        return f"id_{a}" if a == b else f"m{a}{b}"

    return {
        "objects": [str(x) for x in range(k)],
        "morphisms": [
            {"name": name(a, b), "src": str(a), "tgt": str(b)}
            for a, b in sorted(leq) if a != b
        ],
        "compose": [
            [name(b, c), name(a, b), name(a, c)]
            for (a, b), (b2, c) in itertools.product(sorted(leq), repeat=2)
            if b == b2 and a != b and b != c
        ],
    }


def _monoid_spec(k):
    """The cyclic group of order k as a one-object category."""
    names = ["id_x"] + [f"g{i}" for i in range(1, k)]
    return {
        "objects": ["x"],
        "morphisms": [{"name": n, "src": "x", "tgt": "x"} for n in names[1:]],
        "compose": [
            [names[i], names[j], names[(i + j) % k]]
            for i in range(1, k) for j in range(1, k)
        ],
    }


PARALLEL_PAIR = {
    "objects": ["a", "b"],
    "morphisms": [{"name": "u", "src": "a", "tgt": "b"}, {"name": "v", "src": "a", "tgt": "b"}],
}
IDEMPOTENT = {
    "objects": ["x"],
    "morphisms": [{"name": "e", "src": "x", "tgt": "x"}],
    "compose": [["e", "e", "e"]],
}


@st.composite
def _preorders(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    pairs = [p for p in itertools.permutations(range(k), 2) if draw(st.booleans())]
    return _preorder_spec(k, pairs)


@st.composite
def _ill_formed(draw):
    """A preorder file with one composite entry dropped or pointed at a map
    with the wrong endpoints."""
    spec = draw(_preorders().filter(lambda spec: spec["compose"]))
    entries = spec["compose"]
    g, f, gf = entries.pop(draw(st.integers(0, len(entries) - 1)))
    if draw(st.booleans()):
        wrong = [n for n in [m["name"] for m in spec["morphisms"]] + ["id_0"] if n != gf]
        entries.append([g, f, draw(st.sampled_from(wrong))])
    return spec


def _not_a_lattice(spec):
    """Whether the library's verdict on the file is a refusal."""
    return not isinstance(parse_category(json.dumps(spec)).lattice, Preorder)


OUTSIDE = st.one_of(
    _ill_formed(),
    _preorders().filter(_not_a_lattice),
    st.sampled_from([
        ENDOMORPHISM_WITHOUT_SQUARE, CHAIN2_WITHOUT_COMPOSITE, RETRACT,
        PARALLEL_PAIR, IDEMPOTENT, _monoid_spec(2), _monoid_spec(3),
    ]),
)

TABLES = (
    unliftable_pairs, lifting_blocks, retract_pairs, pushout_transfers, pullback_transfers,
    lambda cat: factor_pairs(cat, 0),
    lambda cat: has_lifting(cat, 1, 1),
    lambda cat: factors_all(cat, 1, 1, "no factorization"),
    *(
        lambda cat, prop=prop: closure_check(MorphClass.all_maps(cat), prop)
        for prop in ("retracts", "composition", "two_of_three", "pushouts", "pullbacks")
    ),
)


def _assert_library_refuses(spec):
    cat = parse_category(json.dumps(spec))
    with pytest.raises(MissingLimitError if validate_category(cat).ok else InputError):
        minimal_model_structure(cat)
    everything = MorphClass.all_maps(cat)
    for W in (MorphClass.identities(cat), MorphClass.isos(cat), everything):
        with pytest.raises(InputError):
            ModelStructure.build(cat, W, everything, everything)
        with pytest.raises(InputError):
            verify_model_structure(cat, W, everything, everything)
    for mode in ("pruned", "naive"):
        with pytest.raises(InputError):
            enumerate_model_structures(cat, mode)
    with pytest.raises(InputError):
        check_invariance(everything, everything, everything)
    unverified = ModelStructure(cat, MorphClass.isos(cat), everything, everything)
    with pytest.raises(InputError):
        check_fibration_transfer(unverified, unverified)
    for table in TABLES:
        with pytest.raises(InputError):
            table(cat)


def _structure_commands(directory, spec):
    """Every structure command on the file of ``spec`` with W = identities
    and C = F = all maps, as in ``tests/test_cli.py``'s retract requests."""
    cat = parse_category(json.dumps(spec))
    path = directory / "c.cat"
    path.write_text(json.dumps(spec))
    ids = list(MorphClass.identities(cat).names())
    everything = list(MorphClass.all_maps(cat).names())
    triple = directory / "t.classes"
    triple.write_text(json.dumps({"W": ids, "C": everything, "F": everything}))
    wg = directory / "wg.classes"
    wg.write_text(json.dumps({"Wg": everything}))
    identity = {"objects": {o: o for o in cat.objects}, "morphisms": {n: n for n in everything}}
    units = {o: cat.name(cat.identities[x]) for x, o in enumerate(cat.objects)}
    adj = directory / "c.adj"
    adj.write_text(json.dumps({
        "source": "c.cat", "target": "c.cat", "left": identity, "right": identity,
        "unit": units, "counit": units,
    }))
    c, t, a = str(path), str(triple), str(adj)
    pair = ["--classes-m", t, "--classes-n", t]
    commands = [["verify", c, t], ["classify", c, t, t], ["census", c], ["minimal", c]]
    commands += [["properness", c, t, "--side", side] for side in ("left", "right")]
    commands += [
        ["extend", c, "--theorem", theorem, "--base", t, "--candidate", t]
        for theorem in ("1.2", "1.5", "1.7")
    ]
    commands.append(["extend", c, "--theorem", "p1.4", "--base", t, "--candidate", str(wg)])
    commands += [["quillen", check, a] + pair for check in ("pair", "equivalence")]
    commands.append(["quillen", "derived-ff", a] + pair + ["--ext-m", t, "--ext-n", t])
    return cat, commands


def _assert_cli_refuses(spec):
    with tempfile.TemporaryDirectory() as tmp:
        cat, commands = _structure_commands(Path(tmp), spec)
        valid = validate_category(cat).ok
        for argv in commands:
            for fmt in ("text", "json"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv + ["--format", fmt])
                want = 1 if argv[0] == "minimal" and valid else 2
                assert code == want, (argv, code, err.getvalue())
                assert "pass" not in out.getvalue(), argv
                assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize(
    "spec",
    [ENDOMORPHISM_WITHOUT_SQUARE, CHAIN2_WITHOUT_COMPOSITE, RETRACT],
    ids=["endomorphism without e∘e", "[2] without g∘f", "retract"],
)
def test_once_verified_inputs_are_refused(spec):
    """W = identities and C = F = all maps passed every axiom check on
    these three; the library now refuses each before any check runs."""
    _assert_library_refuses(spec)
    _assert_cli_refuses(spec)


def test_refusal_reasons():
    """Validation comes first, then bicompleteness."""
    for spec, reason in (
        (ENDOMORPHISM_WITHOUT_SQUARE, "does not validate"),
        (CHAIN2_WITHOUT_COMPOSITE, "does not validate"),
        (RETRACT, "finitely bicomplete"),
        (_preorder_spec(2, []), "finitely bicomplete"),
    ):
        cat = parse_category(json.dumps(spec))
        everything = MorphClass.all_maps(cat)
        with pytest.raises(InputError, match=reason):
            ModelStructure.build(cat, MorphClass.identities(cat), everything, everything)


# requests on a valid structure ``ms`` that name a class over another
# category (``alien``) or an id outside the category: Python indexing would
# raise IndexError on 99 and wrap at -1
ILL_FORMED_REQUESTS = {
    "lifting_closure(foreign)": lambda ms, alien: lifting_closure(ms.cat, alien, "rlp"),
    "enumerate_factorizations(foreign)": lambda ms, alien: enumerate_factorizations(
        ms.cat, 0, ms.C, alien
    ),
    "find_cylinder(foreign)": lambda ms, alien: find_cylinder(ms.cat, ms.C, alien, 0),
    "check_invariance(foreign W)": lambda ms, alien: check_invariance(ms.W, ms.C, alien),
}
for bad in (99, -1):
    ILL_FORMED_REQUESTS |= {
        f"cls_of({bad})": lambda ms, alien, bad=bad: homotopy_category(ms).cls_of(bad),
        f"find_cylinder(x={bad})": lambda ms, alien, bad=bad: find_cylinder(
            ms.cat, ms.C, ms.W, bad
        ),
        f"left_homotopic({bad})": lambda ms, alien, bad=bad: left_homotopic(ms, bad, bad),
        f"right_homotopic({bad})": lambda ms, alien, bad=bad: right_homotopic(ms, bad, bad),
        f"enumerate_factorizations(f={bad})": lambda ms, alien, bad=bad: (
            enumerate_factorizations(ms.cat, bad, ms.C, ms.W)
        ),
        # at -1 these once raised TheoremViolationError on the wrapped map
        f"cofibrant_approximation_square({bad})": lambda ms, alien, bad=bad: (
            cofibrant_approximation_square(ms, bad)
        ),
        f"factor_c_then_trivfib({bad})": lambda ms, alien, bad=bad: factor_c_then_trivfib(
            ExtensionCandidate(ms, ms.W, ms.C, ms.F), bad
        ),
        f"mapping_cylinder_factorization({bad})": lambda ms, alien, bad=bad: (
            mapping_cylinder_factorization(ExtensionCandidate(ms, ms.W, ms.C, ms.F), bad)
        ),
    }


@pytest.mark.parametrize("name", list(ILL_FORMED_REQUESTS))
def test_ill_formed_class_requests_are_refused(name, diamond_minimal, chain2):
    """A class over another category, or a map or object id outside the
    category, is refused with InputError instead of answered about
    another category, map or object."""
    with pytest.raises(InputError, match="different categories|no (morphism|object) with id"):
        ILL_FORMED_REQUESTS[name](diamond_minimal, MorphClass.all_maps(chain2))


@settings(max_examples=40, deadline=None)
@given(spec=OUTSIDE)
def test_library_refuses_inputs_outside_the_theory(spec):
    _assert_library_refuses(spec)


@settings(max_examples=15, deadline=None)
@given(spec=OUTSIDE)
def test_cli_refuses_inputs_outside_the_theory(spec):
    _assert_cli_refuses(spec)
