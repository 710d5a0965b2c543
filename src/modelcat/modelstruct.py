"""Model-structure axioms, cylinder/path objects, minimal structure, homotopy category.

The boundary objects, cylinders and path objects read the point, fold
and diagonal maps from the lattice view as joins and meets
(:mod:`modelcat.fincat`), so nothing here searches for a (co)limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .fincat import (
    FinCat,
    InputError,
    MissingLimitError,
    TheoremViolationError,
    is_finitely_bicomplete,
    opposite,
    require_lattice,
    validate_category,
)
from .morphclass import (
    CheckResult,
    MorphClass,
    closure_check,
    escaping_transfers,
    factorizations,
    factors_all,
    first_factorization,
    has_lifting,
    pushout_transfers,
    run_checks,
)

_NO_FACTORIZATION = "morphism admits no factorization"

# The axioms in report order, each a function of (cat, W, C, F); the
# trivial (co)fibrations are read as bitmasks, so no class is built.
_AXIOMS = (
    ("two_of_three_W", lambda cat, W, C, F: closure_check(W, "two_of_three")),
    ("retracts_W", lambda cat, W, C, F: closure_check(W, "retracts")),
    ("retracts_C", lambda cat, W, C, F: closure_check(C, "retracts")),
    ("retracts_F", lambda cat, W, C, F: closure_check(F, "retracts")),
    ("lift_trivcof_fib", lambda cat, W, C, F: has_lifting(cat, W.mask & C.mask, F.mask)),
    ("lift_cof_trivfib", lambda cat, W, C, F: has_lifting(cat, C.mask, W.mask & F.mask)),
    ("factor_trivcof_fib", lambda cat, W, C, F: factors_all(
        cat, W.mask & C.mask, F.mask, _NO_FACTORIZATION
    )),
    ("factor_cof_trivfib", lambda cat, W, C, F: factors_all(
        cat, C.mask, W.mask & F.mask, _NO_FACTORIZATION
    )),
)
AXIOM_NAMES = tuple(name for name, _ in _AXIOMS)


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts by axiom name.  ``passed`` is stored: :func:`run_checks`
    computes it in the walk that fills ``checks``, and a report built from
    verdicts alone computes it once here."""

    checks: dict[str, CheckResult]
    passed: bool = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.passed is None:
            object.__setattr__(
                self, "passed", all(c.passed for c in self.checks.values())
            )

    def first_failure(self) -> tuple[str, CheckResult] | None:
        for name, c in self.checks.items():
            if not c.passed:
                return name, c
        return None


def verify_model_structure(
    cat: FinCat,
    W: MorphClass,
    C: MorphClass,
    F: MorphClass,
    stop_at_first: bool = False,
) -> AxiomReport:
    """Per-axiom verdicts for (W, C, F) being a Quillen model structure.

    Witnesses are minimal in id order, so failures reproduce across runs.
    With ``stop_at_first`` the report only contains checks up to the first
    failure (used by the exhaustive scans).  A category that is not valid
    and finitely bicomplete is refused (:func:`require_lattice`).
    """
    require_lattice(cat)
    if any(cls.cat is not cat and cls.cat != cat for cls in (W, C, F)):
        raise InputError("classes live over different categories")
    return AxiomReport(*run_checks(_AXIOMS, stop_at_first, cat, W, C, F))


@dataclass(frozen=True)
class ModelStructure:
    cat: FinCat
    W: MorphClass
    C: MorphClass
    F: MorphClass
    report: AxiomReport | None = None

    @classmethod
    def build(cls, cat: FinCat, W: MorphClass, C: MorphClass, F: MorphClass) -> "ModelStructure":
        return cls(cat, W, C, F, verify_model_structure(cat, W, C, F))

    @property
    def verified(self) -> bool:
        return self.report is not None and self.report.passed

    def triple(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return (self.W.members, self.C.members, self.F.members)

    # The boundary objects and the opposite structure are computed on first
    # read and kept on the instance, outside the dataclass fields, so
    # equality ignores them.

    @cached_property
    def cofibrant(self) -> frozenset[int]:
        """Objects x with ∅→x a cofibration."""
        po, C = require_lattice(self.cat), self.C.mask
        return frozenset(x for x, point in enumerate(po.arrow[po.join()]) if C >> point & 1)

    @cached_property
    def cofibrant_pushouts(self) -> tuple[tuple[int, int, int], ...]:
        """The pushout transfers (f, g, f') with f ∈ W, f' ∉ W and g out of a
        cofibrant object, which Thm 1.2 hypothesis 6 tests per candidate."""
        cat, cof = self.cat, self.cofibrant
        from_cof = sum(1 << g for g, m in enumerate(cat.morphisms) if m.src in cof)
        return escaping_transfers(pushout_transfers(cat), self.W.mask, from_cof)

    @cached_property
    def fibrant(self) -> frozenset[int]:
        """Objects x with x→∗ a fibration."""
        po, F = require_lattice(self.cat), self.F.mask
        top = po.meet()
        return frozenset(x for x, row in enumerate(po.arrow) if F >> row[top] & 1)

    @cached_property
    def opposite(self) -> "ModelStructure":
        """The dual triple (W, F, C) on the opposite category, built and
        verified once; it is a model structure iff this one is."""
        return ModelStructure.build(
            opposite(self.cat),  # the module-level fincat.opposite
            self.W.opposite,
            self.F.opposite,
            self.C.opposite,
        )


def minimal_model_structure(cat: FinCat) -> ModelStructure:
    """W = isomorphisms, C = F = all maps; verification must pass.  A valid
    category that is not finitely bicomplete raises
    :class:`MissingLimitError` naming the missing (co)limits; an invalid
    one is refused with :class:`InputError`, as by :meth:`ModelStructure.build`."""
    if validate_category(cat).ok and not (bic := is_finitely_bicomplete(cat)).ok:
        raise MissingLimitError(
            f"category is not finitely bicomplete; missing: {bic.missing}"
        )
    ms = ModelStructure.build(
        cat, MorphClass.isos(cat), MorphClass.all_maps(cat), MorphClass.all_maps(cat)
    )
    if not ms.verified:
        raise TheoremViolationError(
            f"minimal structure failed verification: {ms.report.first_failure()}"
        )
    return ms


def boundary_objects(ms: ModelStructure, side: str) -> frozenset[int]:
    """cofibrant: ∅→X is a cofibration; fibrant: X→∗ is a fibration.

    Reads the set cached on the structure (``ms.cofibrant`` / ``ms.fibrant``),
    so repeated calls over one structure cost one lookup."""
    if side == "cofibrant":
        return ms.cofibrant
    if side == "fibrant":
        return ms.fibrant
    raise InputError("side must be 'cofibrant' or 'fibrant'")


@dataclass(frozen=True)
class CylinderObject:
    """Cylinder (or path) data for one object.

    cylinder: X⊔X --structure_map--> Cyl --collapse--> X factors the fold
    map, with structure_map in the left class and collapse in the right.
    path side is dual: X --collapse--> Path --structure_map--> X×X.
    """

    side: str  # "cylinder" | "path"
    x: int
    middle: int
    structure_map: int
    collapse: int
    power_object: int  # X⊔X resp. X×X
    power_legs: tuple[int, int]  # coproduct injections resp. product projections


def find_cylinder(
    cat: FinCat, left: MorphClass, right: MorphClass, x: int, side: str = "cylinder"
) -> CylinderObject | None:
    """First factorization of the fold (resp. diagonal) map of ``x`` whose
    parts land in the given classes; for the path side pass (W, F) and the
    factorization read is diagonal = (right part)∘(left part)."""
    po = require_lattice(cat)
    if side == "cylinder":
        power = po.join(x, x)
        leg, f = po.arrow[x][power], po.arrow[power][x]  # injection, fold map
    elif side == "path":
        power = po.meet(x, x)
        leg, f = po.arrow[power][x], po.arrow[x][power]  # projection, diagonal
    else:
        raise InputError("side must be 'cylinder' or 'path'")
    pair = first_factorization(cat, f, left.mask, right.mask)
    if pair is None:
        return None
    j, p = pair
    structure_map, collapse = (j, p) if side == "cylinder" else (p, j)
    return CylinderObject(side, x, cat.tgt(j), structure_map, collapse, power, (leg, leg))


# -- homotopy category --------------------------------------------------


@dataclass(frozen=True)
class HoCategory:
    """Quotient of the cofibrant-fibrant objects by left homotopy."""

    ms: ModelStructure
    objects: tuple[int, ...]
    homs: dict[tuple[int, int], tuple[frozenset[int], ...]]

    def cls_of(self, f: int) -> frozenset[int]:
        cat = self.ms.cat
        for c in self.homs[(cat.src(f), cat.tgt(f))]:
            if f in c:
                return c
        raise InputError("morphism is not between cofibrant-fibrant objects")

    def compose(self, g_cls: frozenset[int], f_cls: frozenset[int]) -> frozenset[int]:
        cat = self.ms.cat
        f, g = min(f_cls), min(g_cls)
        return self.cls_of(cat.comp(g, f))


def left_homotopic(ms: ModelStructure, f: int, g: int) -> bool:
    """f ~ g via some cylinder object of the shared source."""
    cat = ms.cat
    if cat.src(f) != cat.src(g) or cat.tgt(f) != cat.tgt(g):
        raise InputError("morphisms must be parallel")
    x, y = cat.src(f), cat.tgt(f)
    po = require_lattice(cat)
    power = po.join(x, x)  # X⊔X
    leg, fold = po.arrow[x][power], po.arrow[power][x]  # both injections, fold map
    # every cylinder of x: a (C, W) factorization of the fold map
    for j, p in factorizations(cat, fold, ms.C.mask, ms.W.mask):
        i = cat.comp(j, leg)
        for h in cat.hom(cat.tgt(j), y):
            if cat.table[h][i] == f == g:
                return True
    return False


def right_homotopic(ms: ModelStructure, f: int, g: int) -> bool:
    """f ~ g via some path object of the shared target."""
    cat = ms.cat
    x, y = cat.src(f), cat.tgt(f)
    po = require_lattice(cat)
    power = po.meet(y, y)  # Y×Y
    leg, diag = po.arrow[power][y], po.arrow[y][power]  # both projections, diagonal
    for s, q in factorizations(cat, diag, ms.W.mask, ms.F.mask):
        p = cat.comp(leg, q)
        for h in cat.hom(x, cat.tgt(s)):
            if cat.table[p][h] == f == g:
                return True
    return False


def homotopy_category(ms: ModelStructure) -> HoCategory:
    """Objects: cofibrant-fibrant objects; homs: left-homotopy classes.

    A verified model structure guarantees the relation is an equivalence
    compatible with composition; this is checked, and any violation is
    raised as :class:`TheoremViolationError`.
    """
    if not ms.verified:
        raise InputError("homotopy category requires a verified model structure")
    cat = ms.cat
    objs = tuple(
        sorted(boundary_objects(ms, "cofibrant") & boundary_objects(ms, "fibrant"))
    )
    obj_set = set(objs)
    homs: dict[tuple[int, int], tuple[frozenset[int], ...]] = {}
    for a in objs:
        for b in objs:
            maps = list(cat.hom(a, b))
            rel = {
                (f, g): left_homotopic(ms, f, g) for f in maps for g in maps
            }
            for f in maps:
                if not rel[(f, f)]:
                    raise TheoremViolationError("homotopy relation not reflexive")
                for g in maps:
                    if rel[(f, g)] != rel[(g, f)]:
                        raise TheoremViolationError("homotopy relation not symmetric")
                    if rel[(f, g)] != right_homotopic(ms, f, g):
                        raise TheoremViolationError(
                            "left/right homotopy disagree on cofibrant-fibrant objects"
                        )
                    for h in maps:
                        if rel[(f, g)] and rel[(g, h)] and not rel[(f, h)]:
                            raise TheoremViolationError("homotopy relation not transitive")
            classes: list[frozenset[int]] = []
            seen: set[int] = set()
            for f in maps:
                if f in seen:
                    continue
                c = frozenset(g for g in maps if rel[(f, g)])
                seen |= c
                classes.append(c)
            homs[(a, b)] = tuple(classes)

    # composition must be well-defined on classes
    for f, g, gf in cat.composable_pairs:
        a, b, c = cat.src(f), cat.tgt(f), cat.tgt(g)
        if a in obj_set and b in obj_set and c in obj_set:
            for f2 in cat.hom(a, b):
                for g2 in cat.hom(b, c):
                    if (
                        left_homotopic(ms, f, f2)
                        and left_homotopic(ms, g, g2)
                        and not left_homotopic(ms, gf, cat.comp(g2, f2))
                    ):
                        raise TheoremViolationError(
                            "composition not well-defined on homotopy classes"
                        )
    return HoCategory(ms, objs, homs)
