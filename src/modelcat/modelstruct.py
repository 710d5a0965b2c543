"""Model-structure axioms, cylinder/path objects, minimal structure, homotopy category.

The boundary objects, cylinders and path objects read the point, fold
and diagonal maps from the lattice view as joins and meets
(:mod:`modelcat.fincat`), so nothing here searches for a (co)limit.

The homotopy layer is a closed form on the lattice view: parallel maps
are equal, so two maps are left (right) homotopic iff they are parallel
and their source has a cylinder (their target a path object), and the
homotopy category is the full subcategory on the cofibrant-fibrant
objects, with singleton classes.
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
    factors_all,
    first_factorization,
    has_lifting,
)

_NO_FACTORIZATION = "morphism admits no factorization"

AXIOM_NAMES = ("two_of_three_W", "retracts_W", "retracts_C", "retracts_F", "lift_trivcof_fib",
               "lift_cof_trivfib", "factor_trivcof_fib", "factor_cof_trivfib")


@dataclass(frozen=True, init=False)
class AxiomReport:
    """Verdicts by axiom name, and ``passed``, given by the axiom walk or else
    computed here, both stored in the instance dict without setattr calls."""

    checks: dict[str, CheckResult]
    passed: bool = field(default=None, repr=False, compare=False)

    def __init__(self, checks: dict[str, CheckResult], passed: bool | None = None):
        if passed is None:
            passed = all(c.passed for c in checks.values())
        fields = self.__dict__
        fields["checks"], fields["passed"] = checks, passed

    def first_failure(self) -> tuple[str, CheckResult] | None:
        for name, c in self.checks.items():
            if not c.passed:
                return name, c
        return None


def verify_model_structure(
    cat: FinCat, W: MorphClass, C: MorphClass, F: MorphClass, stop_at_first: bool = False
) -> AxiomReport:
    """Per-axiom verdicts for (W, C, F) being a Quillen model structure, in
    :data:`AXIOM_NAMES` order, from a straight-line walk: each mask is read
    once, a closure verdict is one read of the class's cache, and the
    trivial (co)fibrations are passed on as bitmasks, so no class is built.

    Witnesses are minimal in id order, so failures reproduce across runs.
    With ``stop_at_first`` the report only contains checks up to the first
    failure (used by the exhaustive scans).  A category that is not valid
    and finitely bicomplete is refused (:func:`require_lattice`).
    """
    require_lattice(cat)
    if any(cls.cat is not cat and cls.cat != cat for cls in (W, C, F)):
        raise InputError("classes live over different categories")
    w, c, f = W.mask, C.mask, F.mask
    checks = {}
    v1 = checks["two_of_three_W"] = W.verdicts.get("two_of_three") or closure_check(W, "two_of_three")
    if not v1.passed and stop_at_first:
        return AxiomReport(checks, False)
    v2 = checks["retracts_W"] = W.verdicts.get("retracts") or closure_check(W, "retracts")
    if not v2.passed and stop_at_first:
        return AxiomReport(checks, False)
    v3 = checks["retracts_C"] = C.verdicts.get("retracts") or closure_check(C, "retracts")
    if not v3.passed and stop_at_first:
        return AxiomReport(checks, False)
    v4 = checks["retracts_F"] = F.verdicts.get("retracts") or closure_check(F, "retracts")
    if not v4.passed and stop_at_first:
        return AxiomReport(checks, False)
    v5 = checks["lift_trivcof_fib"] = has_lifting(cat, w & c, f)
    if not v5.passed and stop_at_first:
        return AxiomReport(checks, False)
    v6 = checks["lift_cof_trivfib"] = has_lifting(cat, c, w & f)
    if not v6.passed and stop_at_first:
        return AxiomReport(checks, False)
    v7 = checks["factor_trivcof_fib"] = factors_all(cat, w & c, f, _NO_FACTORIZATION)
    if not v7.passed and stop_at_first:
        return AxiomReport(checks, False)
    v8 = checks["factor_cof_trivfib"] = factors_all(cat, c, w & f, _NO_FACTORIZATION)
    return AxiomReport(checks, v1.passed and v2.passed and v3.passed and v4.passed
                       and v5.passed and v6.passed and v7.passed and v8.passed)


@dataclass(frozen=True)
class ModelStructure:
    cat: FinCat
    W: MorphClass
    C: MorphClass
    F: MorphClass
    report: AxiomReport | None = None
    # the verdicts of the per-structure checks of modelcat.extend, by (check, inputs)
    verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    """The cofibrant-fibrant objects and, per pair, the left-homotopy
    classes of maps between them (:func:`homotopy_category`)."""

    ms: ModelStructure
    objects: tuple[int, ...]
    homs: dict[tuple[int, int], tuple[frozenset[int], ...]]

    def cls_of(self, f: int) -> frozenset[int]:
        cat = self.ms.cat
        for c in self.homs.get((cat.src(f), cat.tgt(f)), ()):
            if f in c:
                return c
        raise InputError("morphism is not between cofibrant-fibrant objects")

    def compose(self, g_cls: frozenset[int], f_cls: frozenset[int]) -> frozenset[int]:
        cat = self.ms.cat
        f, g = min(f_cls), min(g_cls)
        return self.cls_of(cat.comp(g, f))


def left_homotopic(ms: ModelStructure, f: int, g: int) -> bool:
    """f ~ g via some cylinder object of the shared source.  On a lattice
    parallel maps are equal and a cylinder X⊔X → Cyl → X gives the
    homotopy Cyl → X → Y, so this holds iff X has a cylinder."""
    cat = ms.cat
    if cat.src(f) != cat.src(g) or cat.tgt(f) != cat.tgt(g):
        raise InputError("morphisms must be parallel")
    return find_cylinder(cat, ms.C, ms.W, cat.src(f)) is not None


def right_homotopic(ms: ModelStructure, f: int, g: int) -> bool:
    """f ~ g via some path object of the shared target; dual of
    :func:`left_homotopic`, so it holds iff Y has a path object."""
    cat = ms.cat
    if cat.src(f) != cat.src(g) or cat.tgt(f) != cat.tgt(g):
        raise InputError("morphisms must be parallel")
    return find_cylinder(cat, ms.W, ms.F, cat.tgt(f), "path") is not None


def homotopy_category(ms: ModelStructure) -> HoCategory:
    """Objects: cofibrant-fibrant objects; homs: left-homotopy classes.

    On a lattice parallel maps are equal, and a verified structure gives
    every object a cylinder, so this is the full subcategory on the
    cofibrant-fibrant objects: each hom-set is one singleton class or
    empty.
    """
    if not ms.verified:
        raise InputError("homotopy category requires a verified model structure")
    arrow = require_lattice(ms.cat).arrow
    objs = tuple(sorted(ms.cofibrant & ms.fibrant))
    return HoCategory(ms, objs, {
        (a, b): (frozenset({arrow[a][b]}),) if arrow[a][b] >= 0 else ()
        for a in objs for b in objs
    })
