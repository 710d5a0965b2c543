"""Adjunctions between finite categories and Quillen pair/equivalence checks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fincat import FinCat, InputError, TheoremViolationError, _bits, require_lattice
from .morphclass import CheckResult, first_factorization
from .modelstruct import ModelStructure, boundary_objects


@dataclass(frozen=True)
class Functor:
    source: FinCat
    target: FinCat
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]

    def on_obj(self, x: int) -> int:
        return self.obj_map[x]

    def on_mor(self, f: int) -> int:
        return self.mor_map[f]

    @classmethod
    def identity(cls, cat: FinCat) -> "Functor":
        return cls(
            cat,
            cat,
            tuple(range(len(cat.objects))),
            tuple(range(len(cat.morphisms))),
        )


def validate_functor(fun: Functor) -> list[str]:
    src, tgt = fun.source, fun.target
    issues = []
    if len(fun.obj_map) != len(src.objects) or len(fun.mor_map) != len(src.morphisms):
        return ["object/morphism map has wrong length"]
    for f, m in enumerate(src.morphisms):
        fm = fun.mor_map[f]
        if tgt.src(fm) != fun.obj_map[m.src] or tgt.tgt(fm) != fun.obj_map[m.tgt]:
            issues.append(f"image of {src.name(f)} has wrong endpoints")
    for x in range(len(src.objects)):
        if fun.mor_map[src.identities[x]] != tgt.identities[fun.obj_map[x]]:
            issues.append(f"identity of {src.objects[x]} not preserved")
    if not issues and src.preorder is not None and tgt.preorder is not None:
        return issues  # thin: one arrow per pair of objects, so composites agree
    for f, g, gf in src.composable_pairs:
        image = tgt.table[fun.mor_map[g]][fun.mor_map[f]]
        if image != fun.mor_map[gf]:
            issues.append(
                f"composition {src.name(g)}∘{src.name(f)} not preserved"
            )
    return issues


@dataclass(frozen=True)
class Adjunction:
    """S ⊣ T with explicit unit and counit components.

    ``unit[x]`` is the morphism x → TSx in M; ``counit[y]`` is STy → y in N.
    """

    S: Functor  # M → N
    T: Functor  # N → M
    unit: tuple[int, ...]
    counit: tuple[int, ...]

    @classmethod
    def identity(cls, cat: FinCat) -> "Adjunction":
        f = Functor.identity(cat)
        return cls(f, f, cat.identities, cat.identities)

    @cached_property
    def issues(self) -> tuple[str, ...]:
        """:func:`validate_adjunction` of this adjunction, computed once."""
        return tuple(validate_adjunction(self))


def validate_adjunction(adj: Adjunction) -> list[str]:
    issues = validate_functor(adj.S) + validate_functor(adj.T)
    if issues:
        return issues
    M, N = adj.S.source, adj.S.target
    if adj.T.source != N or adj.T.target != M:
        return ["functors do not form a round trip M⇄N"]
    if len(adj.unit) != len(M.objects) or len(adj.counit) != len(N.objects):
        return ["unit/counit component lists have wrong length"]
    for x in range(len(M.objects)):
        e = adj.unit[x]
        if M.src(e) != x or M.tgt(e) != adj.T.on_obj(adj.S.on_obj(x)):
            issues.append(f"unit component at {M.objects[x]} has wrong endpoints")
    for y in range(len(N.objects)):
        e = adj.counit[y]
        if N.src(e) != adj.S.on_obj(adj.T.on_obj(y)) or N.tgt(e) != y:
            issues.append(f"counit component at {N.objects[y]} has wrong endpoints")
    if issues:
        return issues
    for f in range(len(M.morphisms)):
        x, x2 = M.src(f), M.tgt(f)
        lhs = M.comp(adj.unit[x2], f)
        rhs = M.comp(adj.T.on_mor(adj.S.on_mor(f)), adj.unit[x])
        if lhs != rhs:
            issues.append(f"unit not natural at {M.name(f)}")
    for f in range(len(N.morphisms)):
        y, y2 = N.src(f), N.tgt(f)
        lhs = N.comp(f, adj.counit[y])
        rhs = N.comp(adj.counit[y2], adj.S.on_mor(adj.T.on_mor(f)))
        if lhs != rhs:
            issues.append(f"counit not natural at {N.name(f)}")
    for x in range(len(M.objects)):
        sx = adj.S.on_obj(x)
        if N.comp(adj.counit[sx], adj.S.on_mor(adj.unit[x])) != N.identities[sx]:
            issues.append(f"triangle identity fails at S{M.objects[x]}")
    for y in range(len(N.objects)):
        ty = adj.T.on_obj(y)
        if M.comp(adj.T.on_mor(adj.counit[y]), adj.unit[ty]) != M.identities[ty]:
            issues.append(f"triangle identity fails at T{N.objects[y]}")
    return issues


def is_quillen_pair(
    adj: Adjunction, msM: ModelStructure, msN: ModelStructure
) -> CheckResult:
    """Pass iff S preserves cofibrations and trivial cofibrations; the
    classically equivalent right-hand condition on T is computed as well,
    and a disagreement raises :class:`TheoremViolationError`."""
    if adj.issues:
        raise InputError(f"invalid adjunction: {adj.issues[0]}")
    if msM.cat != adj.S.source or msN.cat != adj.S.target:
        raise InputError("model structures do not match the adjunction")

    left = CheckResult.ok("left condition")
    for f in _bits(msM.C.mask):
        sf = adj.S.on_mor(f)
        if sf not in msN.C:
            left = CheckResult.fail("S does not preserve cofibrations", f=f)
            break
        if f in msM.W and sf not in msN.W:
            left = CheckResult.fail("S does not preserve trivial cofibrations", f=f)
            break

    right = CheckResult.ok("right condition")
    for f in _bits(msN.F.mask):
        tf = adj.T.on_mor(f)
        if tf not in msM.F:
            right = CheckResult.fail("T does not preserve fibrations", f=f)
            break
        if f in msN.W and tf not in msM.W:
            right = CheckResult.fail("T does not preserve trivial fibrations", f=f)
            break

    if left.passed != right.passed:
        raise TheoremViolationError("left and right Quillen-pair conditions disagree")
    return left


def _cofibrant_approx_map(ms: ModelStructure, x: int) -> int:
    """Canonical C̃x → x from the first (C, F∩W) factorization of ∅→x."""
    cat, po = ms.cat, require_lattice(ms.cat)
    pair = first_factorization(cat, po.arrow[po.join()][x], ms.C.mask, ms.F.mask & ms.W.mask)
    if pair is None:
        raise InputError("no cofibrant approximation available")
    return pair[1]


def _fibrant_approx_map(ms: ModelStructure, x: int) -> int:
    """Canonical x → F̃x from the first (C∩W, F) factorization of x→∗."""
    cat, po = ms.cat, require_lattice(ms.cat)
    pair = first_factorization(cat, po.arrow[x][po.meet()], ms.C.mask & ms.W.mask, ms.F.mask)
    if pair is None:
        raise InputError("no fibrant approximation available")
    return pair[0]


def derived_fullfaithful_check(
    adj: Adjunction,
    msM: ModelStructure,
    msN: ModelStructure,
    msM_g: ModelStructure,
    msN_g: ModelStructure,
    side: str,
) -> CheckResult:
    """Derived full-faithfulness transfer criterion.

    side='right': for every extension-fibrant X of N, the composite
    S(C̃TX) → STX → X must be a base weak equivalence of N, where C̃TX is
    the canonical cofibrant approximation of TX in the base structure on M;
    requires the extension-cofibrant objects of M to coincide with the
    base-cofibrant ones.  side='left' is dual.
    """
    for pair in ((msM, msN), (msM_g, msN_g)):
        r = is_quillen_pair(adj, *pair)
        if not r.passed:
            raise InputError(f"precondition: not a Quillen pair ({r.description})")
    M, N = adj.S.source, adj.S.target

    if side == "right":
        if boundary_objects(msM_g, "cofibrant") != boundary_objects(msM, "cofibrant"):
            return CheckResult.fail(
                "precondition fails: extension changes the cofibrant objects of M"
            )
        for x in sorted(boundary_objects(msN_g, "fibrant")):
            tx = adj.T.on_obj(x)
            c = _cofibrant_approx_map(msM, tx)  # C̃TX → TX
            composite = N.comp(adj.counit[x], adj.S.on_mor(c))
            if composite not in msN.W:
                return CheckResult.fail(
                    "derived counit is not a weak equivalence", object=x,
                    composite=composite,
                )
        return CheckResult.ok("derived right adjoint stays full and faithful")
    if side == "left":
        if boundary_objects(msN_g, "fibrant") != boundary_objects(msN, "fibrant"):
            return CheckResult.fail(
                "precondition fails: extension changes the fibrant objects of N"
            )
        for a in sorted(boundary_objects(msM_g, "cofibrant")):
            sa = adj.S.on_obj(a)
            r = _fibrant_approx_map(msN, sa)  # SA → F̃SA
            composite = M.comp(adj.T.on_mor(r), adj.unit[a])
            if composite not in msM.W:
                return CheckResult.fail(
                    "derived unit is not a weak equivalence", object=a,
                    composite=composite,
                )
        return CheckResult.ok("derived left adjoint stays full and faithful")
    raise InputError("side must be 'left' or 'right'")


def is_quillen_equivalence(
    adj: Adjunction, msM: ModelStructure, msN: ModelStructure
) -> CheckResult:
    """Adjunct-pair criterion: over every cofibrant A and fibrant X, a map
    A→TX is a weak equivalence iff its adjunct SA→X is."""
    pair = is_quillen_pair(adj, msM, msN)
    if not pair.passed:
        return pair
    M, N = adj.S.source, adj.S.target
    for a in sorted(boundary_objects(msM, "cofibrant")):
        for x in sorted(boundary_objects(msN, "fibrant")):
            tx = adj.T.on_obj(x)
            for g in M.hom(a, tx):
                f = N.comp(adj.counit[x], adj.S.on_mor(g))
                if (g in msM.W) != (f in msN.W):
                    return CheckResult.fail(
                        "adjunct pair disagrees on weak equivalence",
                        a=a, x=x, g=g, adjunct=f,
                    )
    return CheckResult.ok("Quillen equivalence")
