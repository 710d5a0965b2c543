"""The Thm 1.2 / 1.7 hypothesis tables and the axiom table against the
closure-based checkers they replaced.

The oracles below build the trivial (co)fibration classes as
``MorphClass`` objects, join the descriptions of passing conjunctions with
``combine``, look the point maps up with the generic
``oracles.point_from_initial``, search cylinders with ``find_cylinder``,
decide lifting from member sets and compute ``passed`` from the verdicts.  The tables must give equal reports
on every ll and lm candidate over every census base of arrow, chain2 and
diamond: verdicts, key order, ``passed``, ``first_failure()`` and
witnesses, with and without ``stop_at_first``.
"""

import dataclasses
import functools
import itertools
import operator
import re

import pytest

from modelcat import (
    ExtensionCandidate,
    InputError,
    ModelStructure,
    MorphClass,
    check_thm12,
    check_thm15,
    check_thm17,
)
from modelcat import extend
from modelcat.census import enumerate_model_structures
from modelcat.extend import check_properness
from modelcat.fincat import MissingLimitError, build_category, from_poset
from modelcat.modelstruct import find_cylinder, verify_model_structure
from modelcat.morphclass import (
    CheckResult,
    closure_check,
    factors_all,
    pushout_transfers,
    unliftable_pairs,
)
from oracles import point_from_initial

# -- oracles --------------------------------------------------------------


def _combine(*checks):
    for c in checks:
        if not c.passed:
            return c
    return CheckResult.ok("; ".join(c.description for c in checks if c.description))


def _run_all(checks):
    """Every verdict, or the MissingLimitError a check raised in its place."""
    out = {}
    for name, run in checks:
        try:
            out[name] = run()
        except MissingLimitError as error:
            out[name] = error
    return out


def _has_lifting(left, right):
    bad = unliftable_pairs(left.cat)
    for i in sorted(left.members):
        for p in sorted(right.members):
            if (i, p) in bad:
                top, bottom = bad[(i, p)]
                return CheckResult.fail(
                    "square with no lift", i=i, p=p, top=top, bottom=bottom
                )
    return CheckResult.ok("lifting")


def _once(memo, key, check):
    """``check()``, computed once per key.  The candidates of a scan share
    their base and classes, and a verdict is a function of the objects it
    reads, so the oracles look up what depends on shared objects only:
    hypotheses 4-6 of 1.2 per (base, W_g, C_g), and the lifting and
    factorization hypotheses per (W_g, C_g, F_g).  Keys are object ids,
    valid while the scan holds the objects."""
    if key not in memo:
        memo[key] = check()
    return memo[key]


def _thm12(cand, memo):
    base, cat = cand.base, cand.base.cat
    W_g, C_g, F_g = cand.W_g, cand.C_g, cand.F_g
    cof = base.cofibrant

    def hyp4():
        for x in range(len(cat.objects)):
            if (point_from_initial(cat, x) in C_g.members) != (x in cof):
                return CheckResult.fail(
                    "C_g point maps do not match the cofibrant objects", object=x
                )
        return CheckResult.ok("cofibrant coincidence")

    def hyp5():
        for x in sorted(cof):
            if find_cylinder(cat, C_g, W_g, x, "cylinder") is None:
                return CheckResult.fail("cofibrant object has no cylinder", object=x)
        return CheckResult.ok("cylinders")

    def hyp6():
        for f, g, fp in pushout_transfers(cat):
            if (
                f in base.W.members
                and g in C_g.members
                and cat.src(g) in cof
                and cat.tgt(g) in cof
                and fp not in base.W.members
            ):
                return CheckResult.fail(
                    "W not closed under pushout along a C_g map between "
                    "cofibrant objects",
                    f=f, along=g, transfer=fp,
                )
        return CheckResult.ok("W pushout-stability")

    group = (id(base), id(W_g), id(C_g))
    classes = (id(W_g), id(C_g), id(F_g))
    checks = (
        ("1", lambda: closure_check(W_g, "two_of_three")),
        ("2", lambda: _combine(
            closure_check(W_g, "retracts"),
            closure_check(C_g, "retracts"),
            closure_check(F_g, "retracts"),
        )),
        ("3", lambda: _combine(
            closure_check(C_g, "composition"), closure_check(C_g, "pushouts")
        )),
        ("4", lambda: _once(memo, ("1.2", "4", group), hyp4)),
        ("5", lambda: _once(memo, ("1.2", "5", group), hyp5)),
        ("6", lambda: _once(memo, ("1.2", "6", group), hyp6)),
        ("7", lambda: _once(memo, ("1.2", "7", classes), lambda: _has_lifting(
            MorphClass(cat, C_g.members & W_g.members), F_g
        ))),
        ("8", lambda: _once(memo, ("1.2", "8", classes), lambda: factors_all(
            cat, C_g.mask & W_g.mask, F_g.mask, "no (C_g∩W_g, F_g) factorization"
        ))),
    )
    return _run_all(checks)


def _thm17(cand, memo):
    base, cat = cand.base, cand.base.cat
    W_g, C_g, F_g = cand.W_g, cand.C_g, cand.F_g
    classes = (id(W_g), id(C_g), id(F_g))

    def trivfib_g():
        return MorphClass(cat, F_g.members & W_g.members)

    checks = (
        ("1", lambda: closure_check(W_g, "two_of_three")),
        ("2", lambda: _combine(
            closure_check(W_g, "retracts"),
            closure_check(C_g, "retracts"),
            closure_check(F_g, "retracts"),
        )),
        ("3", lambda: _combine(
            closure_check(F_g, "composition"), closure_check(F_g, "pullbacks")
        )),
        ("4", lambda: _once(memo, ("1.7", "4", classes), lambda: _has_lifting(
            C_g, trivfib_g()
        ))),
        ("5", lambda: _once(memo, ("1.7", "5", classes), lambda: factors_all(
            cat, C_g.mask, trivfib_g().mask, "no (C_g, F_g∩W_g) factorization"
        ))),
        ("6", lambda: check_properness(base, "right")),
    )
    return _run_all(checks)


def _verify(cat, W, C, F):
    trivcof = MorphClass(cat, W.members & C.members)
    trivfib = MorphClass(cat, W.members & F.members)
    no_factorization = "morphism admits no factorization"
    checks = (
        ("two_of_three_W", lambda: closure_check(W, "two_of_three")),
        ("retracts_W", lambda: closure_check(W, "retracts")),
        ("retracts_C", lambda: closure_check(C, "retracts")),
        ("retracts_F", lambda: closure_check(F, "retracts")),
        ("lift_trivcof_fib", lambda: _has_lifting(trivcof, F)),
        ("lift_cof_trivfib", lambda: _has_lifting(C, trivfib)),
        ("factor_trivcof_fib", lambda: factors_all(cat, trivcof.mask, F.mask, no_factorization)),
        ("factor_cof_trivfib", lambda: factors_all(cat, C.mask, trivfib.mask, no_factorization)),
    )
    return _run_all(checks)


# -- the candidates ---------------------------------------------------------


def _subsets(pool):
    pool = sorted(pool)
    for r in range(len(pool) + 1):
        yield from (frozenset(c) for c in itertools.combinations(pool, r))


def _candidates(cat, bases, c_floor=None):
    """Every ll and lm candidate over every base, as in the benchmark's
    extend-scan workload: W_g = W plus any other maps, C_g ``c_floor`` (by
    default the identities) plus any other cofibrations, F_g the identities
    plus any non-identity fibrations (ll) or F plus any other maps (lm).
    Equal member sets share one class, as in a scan."""
    classes = {}

    def cls(members):
        return classes.setdefault(members, MorphClass(cat, members))

    everything = frozenset(range(len(cat.morphisms)))
    ids = cat.identity_set
    c_floor = ids if c_floor is None else c_floor
    for base in bases:
        W, C, F = base.triple()
        for wx, cx in itertools.product(_subsets(everything - W), _subsets(C - c_floor)):
            W_g, C_g = cls(W | wx), cls(c_floor | cx)
            for fx in _subsets(F - ids):
                yield ExtensionCandidate(base, W_g, C_g, cls(ids | fx))
            for fx in _subsets(everything - F):
                yield ExtensionCandidate(base, W_g, C_g, cls(F | fx), kind="lm")


def _census_candidates(request, name, c_floor=None):
    census = request.getfixturevalue(f"{name}_census")
    return _candidates(census.cat, census.structures, c_floor)


def _expected(want, stop_at_first):
    """What the replaced runner gave: the verdicts in key order, up to the
    first failure with ``stop_at_first``, then ``passed`` and
    ``first_failure()``; or the first error raised."""
    kept, failure = {}, None
    for key, verdict in want.items():
        if isinstance(verdict, Exception):
            return None, verdict
        kept[key] = verdict
        if failure is None and not verdict.passed:
            failure = key, verdict
            if stop_at_first:
                break
    return (list(kept), kept, failure is None, failure), None


def _compare(run, verdicts_of, want):
    """``run(stop_at_first)``'s full and stop-at-first reports against the
    oracle's full verdicts ``want``; ``CheckResult`` equality compares
    passed, description and witness.  Returns the failing keys in order."""
    for stop_at_first in (False, True):
        expected, error = _expected(want, stop_at_first)
        if error is not None:
            with pytest.raises(type(error), match=re.escape(str(error))):
                run(stop_at_first)
            continue
        report = run(stop_at_first)
        verdicts = verdicts_of(report)
        got = (list(verdicts), verdicts, report.passed, report.first_failure())
        assert got == expected
    return [k for k, v in want.items() if isinstance(v, CheckResult) and not v.passed]


def _scan(candidates):
    """Compare every candidate's reports with the oracle's; return the
    (candidates, passes) count per kind and the hypotheses that failed."""
    counts = {"ll": [0, 0], "lm": [0, 0]}
    failing = set()
    memo = {}
    verdicts_of = operator.attrgetter("verdicts")
    for cand in candidates:
        if cand.kind == "ll":
            run, want = functools.partial(check_thm12, cand), _thm12(cand, memo)
        else:
            run, want = functools.partial(check_thm17, cand), _thm17(cand, memo)
        failures = _compare(run, verdicts_of, want)
        counts[cand.kind][0] += 1
        counts[cand.kind][1] += not failures and not any(
            isinstance(v, Exception) for v in want.values()
        )
        failing.update(f"{cand.kind} {k}" for k in failures)
    return {kind: tuple(n) for kind, n in counts.items()}, failing


@pytest.mark.parametrize(
    "name, expected, failing",
    [
        # (candidates, passes) per kind, as pinned for the extend-scan
        # workload, and the hypotheses that fail on some candidate; a poset
        # has no retracts, so hypothesis 2 always holds
        ("arrow", {"ll": (12, 4), "lm": (9, 5)}, {"ll 4", "ll 7", "ll 8", "lm 4", "lm 5"}),
        (
            "chain2",
            {"ll": (932, 17), "lm": (373, 29)},
            {"ll 1", "ll 3", "ll 4", "ll 7", "ll 8", "lm 1", "lm 3", "lm 4", "lm 5"},
        ),
        (
            "diamond",
            {"ll": (78112, 41), "lm": (11033, 90)},
            {"ll 1", "ll 3", "ll 4", "ll 6", "ll 7", "ll 8", "lm 1", "lm 3", "lm 4", "lm 5", "lm 6"},
        ),
    ],    ids=["arrow", "chain2", "diamond"],
)
def test_hypothesis_tables_match_oracles(name, expected, failing, request):
    assert _scan(_census_candidates(request, name)) == (expected, failing)


@pytest.mark.parametrize(
    "name, expected, failing",
    [
        (
            "arrow",
            {"ll": (48, 4), "lm": (36, 5)},
            {"ll 3", "ll 4", "ll 5", "ll 7", "ll 8", "lm 4", "lm 5"},
        ),
        (
            "chain2",
            {"ll": (7456, 17), "lm": (2984, 29)},
            {"ll 1", "ll 3", "ll 4", "ll 5", "ll 7", "ll 8", "lm 1", "lm 3", "lm 4", "lm 5"},
        ),
    ],    ids=["arrow", "chain2"],
)
def test_hypothesis_tables_match_oracles_without_identities(name, expected, failing, request):
    """Candidates whose C_g may miss identities, so that a cofibrant
    object's fold map (an identity on a poset) can have no (C_g, W_g)
    factorization and hypothesis 5 fails too."""
    assert _scan(_census_candidates(request, name, frozenset())) == (expected, failing)


def test_hypothesis_tables_match_oracles_off_posets(retract):
    """A lattice that is not a poset (a ≅ b below a top t) has retract
    pairs, so hypothesis 2 fails there too; the tables match the oracles
    on every candidate over its census, with C_g free to miss identities.
    retract.cat is not finitely bicomplete, so no base is built on it."""
    everything = MorphClass.all_maps(retract)
    with pytest.raises(InputError, match="finitely bicomplete"):
        ModelStructure.build(retract, MorphClass.identities(retract), everything, everything)
    cat = build_category(
        ["a", "b", "t"],
        [("u", "a", "b"), ("v", "b", "a"), ("p", "a", "t"), ("q", "b", "t")],
        {("v", "u"): "id_a", ("u", "v"): "id_b", ("q", "u"): "p", ("p", "v"): "q"},
    )
    bases = enumerate_model_structures(cat).structures
    assert _scan(_candidates(cat, bases, frozenset())) == (
        {"ll": (9216, 4), "lm": (1056, 5)},
        {"ll 1", "ll 2", "ll 3", "ll 4", "ll 5", "ll 7", "ll 8", "lm 1", "lm 2", "lm 3",
         "lm 4", "lm 5"},
    )


_LIFT_AND_FACTOR = {"lift_trivcof_fib", "lift_cof_trivfib", "factor_trivcof_fib", "factor_cof_trivfib"}


@pytest.mark.parametrize(
    "name, failing",
    [("arrow", _LIFT_AND_FACTOR), ("chain2", _LIFT_AND_FACTOR | {"two_of_three_W"})],    ids=["arrow", "chain2"],
)
def test_axiom_table_matches_oracle(name, failing, request):
    """verify_model_structure on every candidate triple, read as a triple."""
    cat = request.getfixturevalue(name)
    seen = set()
    for cand in _census_candidates(request, name):
        W, C, F = cand.W_g, cand.C_g, cand.F_g
        run = functools.partial(verify_model_structure, cat, W, C, F)
        seen.update(_compare(run, operator.attrgetter("checks"), _verify(cat, W, C, F)))
    assert seen == failing


def test_classes_over_another_category_are_refused(arrow, chain2, arrow_minimal):
    """The tables read the classes as bitmasks over the base category, so a
    class over another category is refused up front."""
    alien = MorphClass.all_maps(chain2)
    with pytest.raises(InputError, match="different categories"):
        ExtensionCandidate(arrow_minimal, alien, arrow_minimal.C, arrow_minimal.F)
    with pytest.raises(InputError, match="different categories"):
        verify_model_structure(arrow, arrow_minimal.W, arrow_minimal.C, alien)


def test_hypothesis_6_reads_the_cofibrant_sources(request):
    """On [1]×[2], where a cofibration can leave a non-cofibrant object,
    every candidate (W, ids ∪ {g}, F) with g a non-identity cofibration
    matches the oracle, and on some of them hypothesis 6 would fail if it
    pushed W out along every C_g-map instead of those out of cofibrant
    objects."""
    elements = [f"{i}{j}" for i in range(2) for j in range(3)]
    cat = from_poset(elements, lambda a, b: a[0] <= b[0] and a[1] <= b[1])
    bases = enumerate_model_structures(cat).structures
    ids = cat.identity_set
    candidates = [
        ExtensionCandidate(base, base.W, MorphClass(cat, ids | {g}), base.F)
        for base in bases
        for g in sorted(base.C.members - ids)
    ]
    _scan(candidates)
    unguarded = [
        cand for cand in candidates
        if any(
            f in cand.base.W.members and g in cand.C_g.members
            and fp not in cand.base.W.members
            for f, g, fp in pushout_transfers(cat)
        )
    ]
    assert any(check_thm12(cand).verdicts["6"].passed for cand in unguarded)


# -- the per-base verdicts ----------------------------------------------------


def test_per_base_hypotheses_match_their_uncached_functions(diamond_census):
    """Thm 1.2 hypotheses 4-6 and Thm 1.7 hypothesis 6 are decided once per
    base and inputs and kept in ``base.verdicts``.  On every candidate over
    fresh copies of the diamond census bases, so that the first candidate
    with an input decides and the later ones read, each equals its
    uncached function's verdict, and each base keeps one verdict per
    distinct input."""
    bases = [dataclasses.replace(base) for base in diamond_census.structures]
    thm12, thm17 = dict(extend._THM12), dict(extend._THM17)
    inputs = {id(base): set() for base in bases}
    failures = {"ll 4": 0, "ll 5": 0, "ll 6": 0, "lm 6": 0}
    for cand in _candidates(diamond_census.cat, bases):
        base, C_g, W_g = cand.base, cand.C_g.mask, cand.W_g.mask
        if cand.kind == "ll":
            pairs = {
                "ll 4": (thm12["4"](cand), extend._cofibrant_coincidence(base, C_g)),
                "ll 5": (thm12["5"](cand), extend._cylinders(base, C_g, W_g)),
                "ll 6": (thm12["6"](cand), extend._w_pushout_stable(base, C_g)),
            }
            inputs[id(base)] |= {
                (extend._cofibrant_coincidence, C_g),
                (extend._cylinders, C_g, W_g),
                (extend._w_pushout_stable, C_g),
            }
        else:
            pairs = {"lm 6": (thm17["6"](cand), check_properness(base, "right"))}
            inputs[id(base)].add((check_properness, "right"))
        for name, (cached, uncached) in pairs.items():
            assert cached == uncached, name
            failures[name] += not cached.passed
    assert all(set(base.verdicts) == inputs[id(base)] for base in bases)
    # diamond candidates keep identities in C_g, so every cylinder exists
    assert failures["ll 5"] == 0 and failures["ll 4"] and failures["ll 6"] and failures["lm 6"]


def test_per_base_verdicts_are_kept_per_base(diamond_census):
    """Two bases with different cofibrant objects, read through one shared
    C_g class, keep their own hypothesis 4 verdicts."""
    cat = diamond_census.cat
    bases = [dataclasses.replace(base) for base in diamond_census.structures]
    everything, ids = MorphClass.all_maps(cat), MorphClass.identities(cat)
    differ = 0
    for one, other in itertools.combinations(bases, 2):
        if one.cofibrant == other.cofibrant:
            continue
        C_g = MorphClass(cat, one.C.members & other.C.members)
        got = [
            check_thm12(ExtensionCandidate(base, everything, C_g, ids)).verdicts["4"]
            for base in (one, other)
        ]
        assert got == [extend._cofibrant_coincidence(base, C_g.mask) for base in (one, other)]
        differ += got[0] != got[1]
    assert differ


def test_thm15_fills_the_cache_of_the_opposite_base(diamond_minimal):
    """Thm 1.5 runs the 1.2 table on ``base.opposite``, so hypotheses 4-6
    are kept there, under the opposite classes' masks, and a second check
    reads them."""
    base = dataclasses.replace(diamond_minimal)  # nothing cached yet
    everything = base.C  # all maps
    cand = ExtensionCandidate(base, everything, everything, everything)
    report = check_thm15(cand)
    m = everything.mask
    keys = {
        (extend._cofibrant_coincidence, m): "4",
        (extend._cylinders, m, m): "5",
        (extend._w_pushout_stable, m): "6",
    }
    cached = base.opposite.verdicts
    assert set(cached) == set(keys) and base.verdicts == {}
    again = check_thm15(cand)
    for key, name in keys.items():
        assert report.verdicts[name] is cached[key] is again.verdicts[name]
