"""Hypothesis checkers and constructive engines for extending model structures.

The hypotheses of Thm 1.2 and Thm 1.7 are module-level tables
(``_THM12``, ``_THM17``) of private functions of the candidate, and
:func:`check_thm12` / :func:`check_thm17` each walk their table and build
the :class:`HypothesisReport` in one call.  A hypothesis reads a cached
verdict with one lookup and decides only on a miss: closure verdicts on
each class (``MorphClass.verdicts``), :func:`has_lifting` and
:func:`factors_all` per pair of masks, and hypotheses 4-6 of 1.2 and 6 of
1.7 per base and the masks they read (``base.verdicts``): a check builds
no class, and a scan decides each hypothesis once per distinct input.
Thm 1.5 runs the 1.2 table on the opposite base and classes.

Every (co)limit, the point maps ∅→x of hypothesis 4, the fold maps of
hypothesis 5 and the pushouts of the constructive engines, is a join of
the lattice view read in O(1) (:mod:`modelcat.fincat`), so nothing is
cached per category here.

Every constructive path here (lifts, mapping cylinders, factorizations)
re-checks its own output against the exhaustive-search primitives in
:mod:`modelcat.morphclass`; a membership assertion that fails after the
hypotheses passed is evidence against the theorem being exercised and is
raised as :class:`TheoremViolationError` rather than swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from .fincat import FinCat, InputError, Preorder, TheoremViolationError, _bits, require_lattice
from .morphclass import (
    CheckResult,
    Factorization,
    MorphClass,
    SquareLiftProblem,
    closure_check,
    combine,
    factors_all,
    find_lift,
    first_factorization,
    has_lifting,
    lifting_closure,
    pushout_transfers,
    pullback_transfers,
    stable_under_transfers,
)
from .modelstruct import ModelStructure, find_cylinder


class HypothesisError(Exception):
    """A precondition (hypothesis list) of an engine does not hold."""


@dataclass(frozen=True)
class ExtensionCandidate:
    """A base model structure together with a candidate triple.

    kind 'll' requires W ⊆ W_g, C_g ⊆ C, F_g ⊆ F; kind 'lm' reverses the
    fibration containment to F ⊆ F_g.  Containments are non-strict.
    """

    base: ModelStructure
    W_g: MorphClass
    C_g: MorphClass
    F_g: MorphClass
    kind: str = "ll"

    def __post_init__(self):
        if self.kind == "ll":
            inner, outer = self.F_g, self.base.F
        elif self.kind == "lm":
            inner, outer = self.base.F, self.F_g
        else:
            raise InputError("candidate kind must be 'll' or 'lm'")
        if not self.base.verified:
            raise HypothesisError("base model structure is not verified")
        cat = self.base.cat
        for cls in (self.W_g, self.C_g, self.F_g):
            if cls.cat is not cat and cls.cat != cat:
                raise InputError("classes live over different categories")
        if not (self.base.W.members <= self.W_g.members):
            raise HypothesisError("W ⊆ W_g fails")
        if not (self.C_g.members <= self.base.C.members):
            raise HypothesisError("C_g ⊆ C fails")
        if not (inner.members <= outer.members):
            raise HypothesisError("F_g ⊆ F fails" if self.kind == "ll" else "F ⊆ F_g fails")


@dataclass(frozen=True, init=False)
class HypothesisReport:
    """Verdicts by hypothesis number.  ``passed`` is stored: a checker that
    stops at a failure gives False, and otherwise it is computed once here
    from the verdicts.  The fields are stored in the instance dict, without
    the frozen dataclass ``__init__``'s setattr calls."""

    theorem: str  # "1.2" | "1.4" | "1.5" | "1.7"
    verdicts: dict[str, CheckResult]
    passed: bool = field(default=None, repr=False, compare=False)

    def __init__(self, theorem: str, verdicts: dict[str, CheckResult], passed: bool | None = None):
        if passed is None:
            passed = all(c.passed for c in verdicts.values())
        fields = self.__dict__
        fields["theorem"], fields["verdicts"], fields["passed"] = theorem, verdicts, passed

    def first_failure(self) -> tuple[str, CheckResult] | None:
        for k, c in self.verdicts.items():
            if not c.passed:
                return k, c
        return None


# -- the hypothesis tables ------------------------------------------------
#
# A conjunction of closure checks that passes reports its parts'
# descriptions joined by "; ", as :func:`combine` does.

_RETRACTS_OK = CheckResult.ok("retracts; retracts; retracts")
_PUSHOUTS_OK = CheckResult.ok("composition; pushouts")
_PULLBACKS_OK = CheckResult.ok("composition; pullbacks")


def _two_of_three(cand: ExtensionCandidate) -> CheckResult:
    return cand.W_g.verdicts.get("two_of_three") or closure_check(cand.W_g, "two_of_three")


def _retracts(cand: ExtensionCandidate) -> CheckResult:
    for cls in (cand.W_g, cand.C_g, cand.F_g):
        verdict = cls.verdicts.get("retracts") or closure_check(cls, "retracts")
        if not verdict.passed:
            return verdict
    return _RETRACTS_OK


def _c_g_pushouts(cand: ExtensionCandidate) -> CheckResult:
    C_g = cand.C_g
    verdict = C_g.verdicts.get("composition") or closure_check(C_g, "composition")
    if verdict.passed:
        verdict = C_g.verdicts.get("pushouts") or closure_check(C_g, "pushouts")
    return _PUSHOUTS_OK if verdict.passed else verdict


def _f_g_pullbacks(cand: ExtensionCandidate) -> CheckResult:
    F_g = cand.F_g
    verdict = F_g.verdicts.get("composition") or closure_check(F_g, "composition")
    if verdict.passed:
        verdict = F_g.verdicts.get("pullbacks") or closure_check(F_g, "pullbacks")
    return _PULLBACKS_OK if verdict.passed else verdict


def _per_base(base: ModelStructure, key: tuple) -> CheckResult:
    """Decide ``key = (decide, *inputs)`` on the base and keep it in ``base.verdicts``."""
    return base.verdicts.setdefault(key, key[0](base, *key[1:]))


def _point_maps(cand: ExtensionCandidate) -> CheckResult:
    key = (_cofibrant_coincidence, cand.C_g.mask)
    return cand.base.verdicts.get(key) or _per_base(cand.base, key)


def _fold_maps(cand: ExtensionCandidate) -> CheckResult:
    key = (_cylinders, cand.C_g.mask, cand.W_g.mask)
    return cand.base.verdicts.get(key) or _per_base(cand.base, key)


def _w_pushouts(cand: ExtensionCandidate) -> CheckResult:
    key = (_w_pushout_stable, cand.C_g.mask)
    return cand.base.verdicts.get(key) or _per_base(cand.base, key)


def _right_proper(cand: ExtensionCandidate) -> CheckResult:
    key = (check_properness, "right")
    return cand.base.verdicts.get(key) or _per_base(cand.base, key)


def _cofibrant_coincidence(base: ModelStructure, C_g: int) -> CheckResult:
    po, cof = require_lattice(base.cat), base.cofibrant
    for x, point in enumerate(po.arrow[po.join()]):  # the maps ∅→x
        if (C_g >> point & 1) != (x in cof):
            return CheckResult.fail(
                "C_g point maps do not match the cofibrant objects", object=x
            )
    return CheckResult.ok("cofibrant coincidence")


def _cylinders(base: ModelStructure, C_g: int, W_g: int) -> CheckResult:
    """Every cofibrant object's fold map factors as a C_g-map followed by
    a W_g-map, which is what :func:`find_cylinder` searches for."""
    cat, po = base.cat, require_lattice(base.cat)
    for x in sorted(base.cofibrant):
        fold = po.arrow[po.join(x, x)][x]  # X⊔X→X
        if first_factorization(cat, fold, C_g, W_g) is None:
            return CheckResult.fail("cofibrant object has no cylinder", object=x)
    return CheckResult.ok("cylinders")


def _w_pushout_stable(base: ModelStructure, C_g: int) -> CheckResult:
    """W is stable under pushout along every C_g-map g between cofibrant
    objects: one scan of the pushout transfers.  Only the source of g is
    tested: g ∈ C_g ⊆ C and ∅→src(g) ∈ C give ∅→tgt(g) = g∘(∅→src(g)) ∈ C,
    as C is closed under composition."""
    cat, cof = base.cat, base.cofibrant
    from_cof = sum(1 << g for g, m in enumerate(cat.morphisms) if m.src in cof)
    return stable_under_transfers(
        pushout_transfers(cat), base.W.mask, C_g & from_cof,
        "W not closed under pushout along a C_g map between cofibrant objects",
        "W pushout-stability",
    )


_THM12 = (
    ("1", _two_of_three),
    ("2", _retracts),
    ("3", _c_g_pushouts),
    ("4", _point_maps),
    ("5", _fold_maps),
    ("6", _w_pushouts),
    ("7", lambda cand: has_lifting(cand.base.cat, cand.C_g.mask & cand.W_g.mask, cand.F_g.mask)),
    ("8", lambda cand: factors_all(
        cand.base.cat, cand.C_g.mask & cand.W_g.mask, cand.F_g.mask,
        "no (C_g∩W_g, F_g) factorization",
    )),
)

_THM17 = (
    ("1", _two_of_three),
    ("2", _retracts),
    ("3", _f_g_pullbacks),
    ("4", lambda cand: has_lifting(cand.base.cat, cand.C_g.mask, cand.F_g.mask & cand.W_g.mask)),
    ("5", lambda cand: factors_all(
        cand.base.cat, cand.C_g.mask, cand.F_g.mask & cand.W_g.mask,
        "no (C_g, F_g∩W_g) factorization",
    )),
    ("6", _right_proper),
)


def _walks(theorem: str, table, kind: str, dual: bool = False):
    """The checker of ``theorem``, named and documented by the decorated stub:
    one call refuses another kind, walks ``table`` (on the opposite candidate
    if ``dual``) and builds the report, False at a ``stop_at_first`` failure."""

    def checker(stub):
        @wraps(stub)
        def check(cand: ExtensionCandidate, stop_at_first: bool = False) -> HypothesisReport:
            if cand.kind != kind:
                raise HypothesisError(f"theorem {theorem} candidates must have kind '{kind}'")
            if dual:
                cand = _opposite_candidate(cand)
            verdicts = {}
            for name, hypothesis in table:
                verdict = verdicts[name] = hypothesis(cand)
                if not verdict.passed and stop_at_first:
                    return HypothesisReport(theorem, verdicts, False)
            return HypothesisReport(theorem, verdicts)
        return check
    return checker


@_walks("1.2", _THM12, "ll")
def check_thm12(cand: ExtensionCandidate, stop_at_first: bool = False) -> HypothesisReport:
    """The eight hypotheses for (W_g, C_g, F_g) to extend the base structure."""


def _opposite_candidate(cand: ExtensionCandidate) -> ExtensionCandidate:
    """(W_g, F_g, C_g) over the opposite base: Thm 1.5 for ``cand`` as a Thm 1.2 candidate."""
    base_op = cand.base.opposite
    if not base_op.verified:
        raise TheoremViolationError("opposite of a verified model structure failed verification")
    return ExtensionCandidate(base_op, cand.W_g.opposite, cand.F_g.opposite, cand.C_g.opposite)


@_walks("1.5", _THM12, "ll", dual=True)
def check_thm15(cand: ExtensionCandidate, stop_at_first: bool = False) -> HypothesisReport:
    """Dual hypothesis list (path objects, pullbacks): the Thm 1.2 table
    walked on the opposite category with (W, F, C) swapped.  The opposite
    base (``base.opposite``, verified once per base) and classes
    (``MorphClass.opposite``) are shared by every check, with their closure
    verdicts and the tables of the opposite category."""


@_walks("1.7", _THM17, "lm")
def check_thm17(cand: ExtensionCandidate, stop_at_first: bool = False) -> HypothesisReport:
    """Hypotheses for the more-fibrations variant (candidate kind 'lm')."""


def build_extension(cand: ExtensionCandidate) -> ModelStructure:
    """Run the matching hypothesis checker, then independently re-verify the
    resulting triple with the axiom checker.  A verification failure after
    the hypotheses passed would contradict the extension theorem and is
    raised loudly."""
    check = {"ll": check_thm12, "lm": check_thm17}[cand.kind]
    report = check(cand)
    if not report.passed:
        raise HypothesisError(f"hypotheses fail: {report.first_failure()}")
    ms = ModelStructure.build(cand.base.cat, cand.W_g, cand.C_g, cand.F_g)
    if not ms.verified:
        raise TheoremViolationError(
            f"hypotheses passed but the triple is not a model structure: "
            f"{ms.report.first_failure()}"
        )
    if cand.kind == "ll":
        # the constructed structure keeps the same cofibrant objects
        if ms.cofibrant != cand.base.cofibrant:
            raise TheoremViolationError("cofibrant objects changed under extension")
    return ms


# -- Lemma: constructive lift of cofibrations against trivial fibrations


def lemma11_assumptions(
    cat: FinCat, W: MorphClass, C: MorphClass, F: MorphClass
) -> dict[str, CheckResult]:
    return {
        "1": closure_check(W, "two_of_three"),
        "2": combine(
            closure_check(C, "composition"), closure_check(C, "pushouts")
        ),
        "3": has_lifting(cat, C.mask & W.mask, F.mask),
        "4": factors_all(cat, C.mask, F.mask & W.mask, "no factorization"),
    }


def lemma11_lift(
    cat: FinCat,
    W: MorphClass,
    C: MorphClass,
    F: MorphClass,
    square: SquareLiftProblem,
) -> int:
    """Constructive lift of i ∈ C against q ∈ F∩W.

    Follows the proof shape: factor the top edge as C then F∩W, push out
    along i, factor the mediating map, lift the trivial cofibration so
    obtained, and compose.  The result is asserted to commute.
    """
    assumptions = lemma11_assumptions(cat, W, C, F)
    failed = {k: v for k, v in assumptions.items() if not v.passed}
    if failed:
        raise HypothesisError(f"lemma assumptions fail: {failed}")
    if square.i not in C.members:
        raise HypothesisError("left leg is not in C")
    trivfib = F.mask & W.mask
    if not trivfib >> square.p & 1:
        raise HypothesisError("right leg is not in F∩W")

    i, q, top, bottom = square.i, square.p, square.top, square.bottom

    # top: A→X = q1∘j1 with j1 ∈ C, q1 ∈ F∩W
    j1, q1 = first_factorization(cat, top, C.mask, trivfib)
    po, d, b = require_lattice(cat), cat.tgt(j1), cat.tgt(i)
    e = po.join(d, b)  # the pushout of j1 and i
    leg_d, leg_b = po.arrow[d][e], po.arrow[b][e]

    # canonical map E→Y induced by (q∘q1, bottom)
    e_to_y = po.arrow[e][cat.tgt(q)]
    j2, q2 = first_factorization(cat, e_to_y, C.mask, trivfib)
    j = cat.comp(j2, leg_d)  # D→F, lands in C∩W
    if j not in C.members or j not in W.members:
        raise TheoremViolationError("constructed map failed C∩W membership")

    inner = SquareLiftProblem(cat, j, q, q1, q2)
    ell = find_lift(inner)
    if ell is None:
        raise TheoremViolationError("assumption (3) lift does not exist")
    h = cat.comp(ell, cat.comp(j2, leg_b))
    if cat.comp(h, i) != top or cat.comp(q, h) != bottom:
        raise TheoremViolationError("constructive lift does not commute")
    return h


# -- mapping cylinder ---------------------------------------------------


@dataclass(frozen=True)
class MappingCylinder:
    """The pushout diagram factoring g: X→Y as p_g∘i_g through M_g."""

    g: int
    coproduct: int      # X⊔X
    i0: int
    i1: int
    cyl: int            # CylX
    structure_map: int  # i0⊔i1: X⊔X→CylX
    collapse: int       # p: CylX→X
    sum_object: int     # X⊔Y
    sum_map: int        # X⊔g: X⊔X→X⊔Y
    sigma: int          # σ_Y: Y→X⊔Y
    mid: int            # M_g
    pi: int             # π_g: CylX→M_g
    glue: int           # h: X⊔Y→M_g
    i_g: int
    j_g: int
    p_g: int


def mapping_cylinder_factorization(cand: ExtensionCandidate, g: int) -> MappingCylinder:
    """Factor a map between cofibrant objects as C_g-map then W_g-map by
    gluing a cylinder of its source onto its target with pushouts."""
    base, cat = cand.base, cand.base.cat
    x, y = cat.src(g), cat.tgt(g)
    cof = base.cofibrant
    if x not in cof or y not in cof:
        raise HypothesisError("mapping cylinder needs cofibrant endpoints")

    cyl = find_cylinder(cat, cand.C_g, cand.W_g, x, "cylinder")
    if cyl is None:  # hypothesis 5 of Thm 1.2 fails at x
        raise HypothesisError(f"no cylinder for {cat.objects[x]}")
    i0, i1 = cyl.power_legs

    po = require_lattice(cat)
    total = po.join(cyl.power_object, y)  # X⊔Y, the pushout of i0 and g
    sum_map, sigma = po.arrow[cyl.power_object][total], po.arrow[y][total]
    mid = po.join(cyl.middle, total)  # M_g, the pushout of i0⊔i1 and X⊔g
    pi, glue = po.arrow[cyl.middle][mid], po.arrow[total][mid]

    i_g = cat.comp(glue, cat.comp(sum_map, i1))
    j_g = cat.comp(glue, sigma)
    # M_g→Y, induced by (g∘p, X⊔Y→Y) with X⊔Y→Y induced by (g∘fold, id)
    p_g = po.arrow[mid][y]

    if cat.comp(p_g, i_g) != g:
        raise TheoremViolationError("mapping cylinder does not factor g")
    if cat.comp(p_g, j_g) != cat.identities[y]:
        raise TheoremViolationError("p_g∘j_g is not the identity")
    if cat.comp(p_g, pi) != cat.comp(g, cyl.collapse):
        raise TheoremViolationError("mapping cylinder square does not commute")

    if i_g not in cand.C_g.members:
        raise TheoremViolationError("i_g is not in C_g")
    if p_g not in cand.W_g.members:
        raise TheoremViolationError("p_g is not in W_g")
    if j_g not in cand.C_g or j_g not in cand.W_g:
        raise TheoremViolationError("j_g is not in C_g∩W_g")

    return MappingCylinder(
        g=g,
        coproduct=cyl.power_object,
        i0=i0,
        i1=i1,
        cyl=cyl.middle,
        structure_map=cyl.structure_map,
        collapse=cyl.collapse,
        sum_object=total,
        sum_map=sum_map,
        sigma=sigma,
        mid=mid,
        pi=pi,
        glue=glue,
        i_g=i_g,
        j_g=j_g,
        p_g=p_g,
    )


@dataclass(frozen=True)
class CofApproxSquare:
    """A cofibrant approximation square for f: X→Y."""

    f: int
    x_tilde: int
    y_tilde: int
    u: int        # X̃→X, in W
    v: int        # Ỹ→Y, in W
    f_tilde: int  # X̃→Ỹ


def cofibrant_approximation_square(base: ModelStructure, f: int) -> CofApproxSquare:
    """Replace the endpoints of f by cofibrant objects using base
    (C, F∩W) factorizations of the point maps, and lift to fill the square."""
    cat = base.cat
    trivfib = base.F.mask & base.W.mask
    x, y = cat.src(f), cat.tgt(f)
    po = require_lattice(cat)
    points = po.arrow[po.join()]  # the maps ∅→x

    def replace(obj: int) -> tuple[int, int]:
        pair = first_factorization(cat, points[obj], base.C.mask, trivfib)
        if pair is None:
            raise HypothesisError("base factorization axiom failed on a point map")
        return pair

    cx, u = replace(x)
    cy, v = replace(y)
    square = SquareLiftProblem(cat, cx, v, points[cat.tgt(cy)], cat.comp(f, u))
    f_tilde = find_lift(square)
    if f_tilde is None:
        raise TheoremViolationError("base lifting axiom failed on approximation square")
    return CofApproxSquare(f, cat.tgt(cx), cat.tgt(cy), u, v, f_tilde)


def factor_c_then_trivfib(cand: ExtensionCandidate, f: int):
    """Factor an arbitrary map as a C_g-map followed by an F_g∩W_g-map,
    via cofibrant approximation, mapping cylinder, pushout, and one
    (C_g∩W_g, F_g) factorization.  Returns (Factorization, CofApproxSquare,
    MappingCylinder)."""
    base, cat = cand.base, cand.base.cat
    x, y = cat.src(f), cat.tgt(f)

    approx = cofibrant_approximation_square(base, f)
    mc = mapping_cylinder_factorization(cand, approx.f_tilde)

    po = require_lattice(cat)
    d = po.join(mc.mid, x)  # the pushout of i_g and u
    leg_x = po.arrow[x][d]
    d_to_y = po.arrow[d][y]  # induced by (v∘p_g, f)

    pair = first_factorization(cat, d_to_y, cand.C_g.mask & cand.W_g.mask, cand.F_g.mask)
    if pair is None:
        raise HypothesisError("hypothesis (8) factorization unavailable")
    j3, q = pair
    i = cat.comp(j3, leg_x)
    if cat.comp(q, i) != f:
        raise TheoremViolationError("constructed factorization does not compose to f")
    if i not in cand.C_g.members:
        raise TheoremViolationError("left factor is not in C_g")
    if q not in cand.F_g or q not in cand.W_g:
        raise TheoremViolationError("right factor is not in F_g∩W_g")
    return Factorization(cat, f, i, cat.tgt(i), q), approx, mc


# -- properness, variations, classification, invariance -----------------


def check_properness(ms: ModelStructure, side: str) -> CheckResult:
    """left: pushouts of weak equivalences along cofibrations stay weak
    equivalences; right dual."""
    if side == "left":
        transfers, along = pushout_transfers, ms.C.mask
    elif side == "right":
        transfers, along = pullback_transfers, ms.F.mask
    else:
        raise InputError("side must be 'left' or 'right'")
    return stable_under_transfers(
        transfers(ms.cat), ms.W.mask, along, f"not {side} proper", f"{side} proper"
    )


def prop14_build(
    base: ModelStructure, W_prime: MorphClass, W_g: MorphClass
) -> tuple[ExtensionCandidate | None, HypothesisReport]:
    """Derive F_g and C_g from lifting properties against C∩W' and check the
    four hypotheses of the lifting-derived variation; on a full pass the
    triple is additionally verified as a model structure."""
    cat = base.cat
    if not (base.W.members <= W_prime.members <= W_g.members):
        raise HypothesisError("need W ⊆ W' ⊆ W_g")
    F_g = lifting_closure(cat, MorphClass(cat, base.C.members & W_prime.members), "rlp")
    C_g = lifting_closure(cat, MorphClass(cat, F_g.members & W_g.members), "llp")

    verdicts = {
        "1": combine(
            closure_check(W_prime, "two_of_three"),
            closure_check(W_g, "two_of_three"),
        ),
        "2": combine(
            closure_check(W_prime, "retracts"), closure_check(W_g, "retracts")
        ),
        "3": factors_all(cat, base.C.mask & W_prime.mask, F_g.mask, "no factorization"),
        "4": factors_all(cat, C_g.mask, F_g.mask & W_g.mask, "no factorization"),
    }
    report = HypothesisReport("1.4", verdicts)
    if not report.passed:
        return None, report
    cand = ExtensionCandidate(base, W_g, C_g, F_g)
    ms = ModelStructure.build(cat, W_g, C_g, F_g)
    if not ms.verified:
        raise TheoremViolationError(
            f"lifting-derived triple is not a model structure: "
            f"{ms.report.first_failure()}"
        )
    return cand, report


@dataclass(frozen=True)
class ExtensionKind:
    kind: str  # equal | ll | lm | ml | mm | other
    left_bousfield: bool
    right_bousfield: bool
    proper_W: bool


def classify_extension(base: ModelStructure, ext: ModelStructure) -> ExtensionKind:
    """Classify ext against base by the three containments, read on the
    classes' bitmasks (X ⊆ Y iff ``not X & ~Y``).  The per-pair procedure
    of ``mcx classify`` and :func:`modelcat.census.enumerate_extensions`;
    :func:`modelcat.census.extension_graph`, whose test oracle it is, reads
    the same containments for all pairs at once."""
    if base.cat is not ext.cat and base.cat != ext.cat:
        raise InputError("structures live over different categories")
    W, C, F = base.W.mask, base.C.mask, base.F.mask
    Wg, Cg, Fg = ext.W.mask, ext.C.mask, ext.F.mask
    return _KINDS[
        (not W & ~Wg) << 5 | (not Wg & ~W) << 4 | (not C & ~Cg) << 3
        | (not Cg & ~C) << 2 | (not F & ~Fg) << 1 | (not Fg & ~F)
    ]


def _extension_kind(W_up, W_in, C_up, C_in, F_up, F_in) -> ExtensionKind:
    """The kind and flags from the containments X_up (base X ⊆ extension X)
    and X_in (the reverse)."""
    if W_up and W_in and C_up and C_in and F_up and F_in:
        kind = "equal"
    elif W_up and C_in and (F_in or F_up):
        kind = "ll" if F_in else "lm"
    elif W_up and C_up and (F_in or F_up):
        kind = "ml" if F_in else "mm"
    else:
        kind = "other"
    ll = kind in ("equal", "ll")
    return ExtensionKind(kind, ll and bool(C_up), ll and bool(F_up), bool(W_up) and not W_in)


# one shared kind per value of the six containments, as the index bits
# W_up W_in C_up C_in F_up F_in from high to low
_KINDS = tuple(_extension_kind(*(k >> b & 1 for b in range(5, -1, -1))) for k in range(64))


def check_invariance(sub: MorphClass, super_: MorphClass, W: MorphClass) -> CheckResult:
    """sub is invariant inside super under W: along any commuting square
    whose horizontal legs are in W, membership of the vertical legs in sub
    agrees.  On a lattice every square commutes, and its horizontal legs
    are the one arrow between the sources and the one between the targets."""
    po = require_lattice(sub.cat)
    if not (sub.members <= super_.members):
        raise HypothesisError("need sub ⊆ super")
    arrow, ends, members = po.arrow, po.ends, sorted(super_.members)
    for f in members:
        for g in members:
            u, v = arrow[ends[f][0]][ends[g][0]], arrow[ends[f][1]][ends[g][1]]
            if u in W.members and v in W.members and (f in sub.members) != (g in sub.members):
                return CheckResult.fail("membership not invariant", f=f, g=g, u=u, v=v)
    return CheckResult.ok("invariant")


def _least_triangle(po: Preorder, first: int, second: int, composite: int):
    """The least (x, y, y∘x), in ``FinCat.composable_pairs`` order, with x in
    ``first``, y in ``second`` and y∘x in ``composite`` (bitmasks over
    morphism ids); None if there is none.  For x: a→b the y: b→c that
    qualify are the c in (second out of b) & (composite out of a); y is the
    least id among them, as in :func:`composition_failure`."""
    second_out, composite_out = [0] * len(po.up), [0] * len(po.up)
    for a, b, f in po.arrows:
        if second >> f & 1:
            second_out[a] |= 1 << b
        if composite >> f & 1:
            composite_out[a] |= 1 << b
    arrow, ends = po.arrow, po.ends
    for x, (a, b) in enumerate(ends):
        if first >> x & 1 and (bad := second_out[b] & composite_out[a]):
            y = min(arrow[b][c] for c in _bits(bad))
            return x, y, arrow[a][ends[y][1]]
    return None


def check_fibration_transfer(base: ModelStructure, ext: ModelStructure) -> CheckResult:
    """Over an extension pair: in any triangle g∘h = f with f ∈ F, g ∈ F_g
    and h ∈ W, the map f is already in F_g; dual statement for cofibrations."""
    po, W = require_lattice(base.cat), base.W.mask
    if hit := _least_triangle(po, W, ext.F.mask, base.F.mask & ~ext.F.mask):
        h, g, f = hit
        return CheckResult.fail("fibration transfer fails", f=f, g=g, h=h)
    if hit := _least_triangle(po, ext.C.mask, W, base.C.mask & ~ext.C.mask):
        f, h, g = hit
        return CheckResult.fail("cofibration transfer fails", f=f, g=g, h=h)
    return CheckResult.ok("transfer")
