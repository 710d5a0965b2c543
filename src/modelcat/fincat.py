"""Finite categories as explicit composition tables, plus their finite (co)limits.

Objects and morphisms are referred to by integer index everywhere; the
string names only matter for file I/O and report rendering.

A category whose hom-sets hold at most one map, with the table composing
them, is a preorder on its objects; :attr:`FinCat.preorder` reads it once
(up/down object masks, the one arrow a→b, least-index joins and meets)
and is None for any other category, malformed ones included.
:func:`validate_category` and :func:`is_finitely_bicomplete` answer on
any category: on a preorder from closed forms, elsewhere by full search.

The rest of the library decides questions about model structures, which
are stated for finitely bicomplete categories; such a finite category is
thin (k ≥ 2 maps A → B would give kⁿ maps A → Bⁿ), a lattice up to
equivalence.  :attr:`FinCat.lattice` is that verdict, computed once, and
:func:`require_lattice` returns its preorder view or raises.  On that view
every (co)limit a model-structure question reads is a join or a meet, and
every leg or mediator the one arrow between two objects: ∅→x is
``arrow[join()][x]``; X⊔X is ``join(x, x)``, with both injections
``arrow[x][X⊔X]`` and the fold map ``arrow[X⊔X][x]``; a pushout of maps
into p and q is ``join(p, q)``; x→∗, products and pullbacks are the duals
through ``meet``.

:func:`colimit` and :func:`limit` are the general-category search, with
an exhaustively verified universal property and the least object index
(then least leg ids) as the canonical apex; the least-index join is the
apex they pick.  In the library only :func:`is_finitely_bicomplete` calls
them, on a category that is not a preorder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator


class InputError(Exception):
    """Malformed input file or an ill-formed request (bad ids, bad shape)."""


class MissingLimitError(Exception):
    """A construction needed a (co)limit the category does not have."""


class TheoremViolationError(AssertionError):
    """A constructive step or a consistency check contradicted a conclusion
    that its hypotheses (or the model-structure axioms) promise."""


@dataclass(frozen=True)
class Morphism:
    name: str
    src: int
    tgt: int


@dataclass(frozen=True)
class Violation:
    kind: str
    morphisms: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ConeResult:
    """A colimit or limit with its verified mediating-morphism table.

    ``apex is None`` means the (co)limit does not exist; ``failed_apexes``
    then lists every cocone/cone apex that was tried.  ``mediators`` maps
    each competing (apex, legs) pair to the unique mediating morphism.
    """

    side: str  # "colimit" | "limit"
    kind: str  # initial|terminal|coproduct|product|pushout|pullback
    diagram: tuple[int, ...]
    apex: int | None
    legs: tuple[int, ...]
    mediators: dict[tuple[int, tuple[int, ...]], int]
    failed_apexes: tuple[int, ...] = ()

    @property
    def exists(self) -> bool:
        return self.apex is not None


@dataclass(frozen=True)
class FinCat:
    """A finite category: objects, morphisms and a total composition table.

    ``identities[x]`` is the identity morphism of object ``x``.
    ``table[g][f]`` is the composite g∘f, or -1 when tgt(f) != src(g).
    Instances are immutable; every cached analysis lives in ``scratch``.
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identities: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    # -- basic accessors ------------------------------------------------

    def src(self, f: int) -> int:
        return self.morphisms[f].src

    def tgt(self, f: int) -> int:
        return self.morphisms[f].tgt

    def name(self, f: int) -> str:
        return self.morphisms[f].name

    def comp(self, g: int, f: int) -> int:
        """g∘f.  Raises if the pair is not composable."""
        h = self.table[g][f]
        if h < 0:
            raise InputError(
                f"morphisms {self.name(g)} and {self.name(f)} are not composable"
            )
        return h

    def is_identity(self, f: int) -> bool:
        return self.identities[self.src(f)] == f

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        return self.hom_table.get((a, b), ())

    @cached_property
    def hom_table(self) -> dict[tuple[int, int], tuple[int, ...]]:
        homs: dict[tuple[int, int], list[int]] = {}
        for f, m in enumerate(self.morphisms):
            homs.setdefault((m.src, m.tgt), []).append(f)
        return {k: tuple(v) for k, v in homs.items()}

    @cached_property
    def composable_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """All (f, g, g∘f) with tgt(f) = src(g)."""
        out = []
        for f in range(len(self.morphisms)):
            for g in range(len(self.morphisms)):
                h = self.table[g][f]
                if h >= 0:
                    out.append((f, g, h))
        return tuple(out)

    @cached_property
    def identity_set(self) -> frozenset[int]:
        return frozenset(self.identities)

    @cached_property
    def iso_set(self) -> frozenset[int]:
        isos = set()
        for f, m in enumerate(self.morphisms):
            for g in self.hom(m.tgt, m.src):
                if (
                    self.table[g][f] == self.identities[m.src]
                    and self.table[f][g] == self.identities[m.tgt]
                ):
                    isos.add(f)
                    break
        return frozenset(isos)

    @cached_property
    def scratch(self) -> dict:
        """Per-instance cache shared by the analysis modules."""
        return {}

    @cached_property
    def preorder(self) -> Preorder | None:
        """The category as a preorder on its objects, or None unless every
        hom-set holds at most one map and ``table`` is exactly the
        composition of those maps.  A malformed instance (rows of the wrong
        length, dangling ids) gives None, never an exception."""
        try:
            return _read_preorder(self)
        except (AttributeError, IndexError, TypeError):
            return None

    @cached_property
    def lattice(self) -> Preorder | tuple[type[Exception], str]:
        """The preorder view of a valid, finitely bicomplete category;
        otherwise the (error type, message) :func:`require_lattice` raises.
        Validation comes first, then bicompleteness (its cached report);
        thinness follows from the two, so its failure is a theorem
        violation."""
        if not validate_category(self).ok:
            return InputError, "category does not validate; run `mcx validate` first"
        if not is_finitely_bicomplete(self).ok:
            return InputError, "model structures require a finitely bicomplete category"
        if self.preorder is None:
            (a, b), maps = max(self.hom_table.items(), key=lambda hom: len(hom[1]))
            return TheoremViolationError, (
                "a finitely bicomplete finite category must be thin, but "
                f"{self.objects[a]} → {self.objects[b]} has {len(maps)} maps"
            )
        return self.preorder


def require_lattice(cat: FinCat) -> Preorder:
    """``cat``'s preorder view if :attr:`FinCat.lattice` accepts it, else
    raises; every model-structure entry point and table calls it."""
    verdict = cat.lattice
    if isinstance(verdict, Preorder):
        return verdict
    error, message = verdict
    raise error(message)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Preorder:
    """A thin category read as a preorder on its objects.

    ``arrow[a][b]`` is the one arrow a→b, or -1 when a ≰ b; ``arrows``
    lists (a, b, arrow[a][b]) for every a ≤ b in (a, b) order; ``ends[f]``
    is (src f, tgt f); ``up[a]`` and ``down[b]`` are the bitmasks of the
    objects b ≥ a and a ≤ b, and ``first_with_up`` / ``first_with_down``
    map each such mask to the least object that has it.
    """

    arrow: tuple[tuple[int, ...], ...]
    arrows: tuple[tuple[int, int, int], ...]
    ends: tuple[tuple[int, int], ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    first_with_up: dict[int, int] = field(repr=False, compare=False)
    first_with_down: dict[int, int] = field(repr=False, compare=False)

    def join(self, *xs: int) -> int | None:
        """The least-index join of the objects ``xs``, which is the apex
        :func:`colimit` picks (``join()`` is the least object), or None.
        With U the upper bounds of ``xs``, b is a join iff up[b] = U."""
        return self.first_with_up.get(_common(self.up, xs))

    def meet(self, *xs: int) -> int | None:
        """The least-index meet of ``xs`` (``meet()`` is the greatest
        object), or None."""
        return self.first_with_down.get(_common(self.down, xs))


def _common(side: tuple[int, ...], xs: tuple[int, ...]) -> int:
    """The objects in ``side[x]`` for every x of ``xs`` (all for none)."""
    common = (1 << len(side)) - 1
    for x in xs:
        common &= side[x]
    return common


def _read_preorder(cat: FinCat) -> Preorder | None:
    k, n = len(cat.objects), len(cat.morphisms)
    ends = [(m.src, m.tgt) for m in cat.morphisms]
    arrow = [[-1] * k for _ in range(k)]
    for f, (a, b) in enumerate(ends):
        if not (0 <= a < k and 0 <= b < k) or arrow[a][b] >= 0:
            return None
        arrow[a][b] = f
    if len(cat.identities) != k or any(
        arrow[x][x] != i or i < 0 for x, i in enumerate(cat.identities)
    ):
        return None
    up = [sum(1 << b for b in range(k) if row[b] >= 0) for row in arrow]
    down = [sum(1 << a for a in range(k) if arrow[a][b] >= 0) for b in range(k)]
    if any(up[b] & ~up[a] for a, b in ends):  # not transitive
        return None
    # g∘f is the arrow src f → tgt g exactly when tgt f = src g
    into: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for f, (a, b) in enumerate(ends):
        into[b].append((f, a))
    if len(cat.table) != n:
        return None
    for g, (a, b) in enumerate(ends):
        row = [-1] * n
        for f, s in into[a]:
            row[f] = arrow[s][b]
        if list(cat.table[g]) != row:
            return None
    arrows = tuple((a, b, arrow[a][b]) for a in range(k) for b in _bits(up[a]))
    return Preorder(
        tuple(map(tuple, arrow)), arrows, tuple(ends), tuple(up), tuple(down),
        {mask: b for b, mask in reversed(list(enumerate(up)))},
        {mask: b for b, mask in reversed(list(enumerate(down)))},
    )


def is_iso(cat: FinCat, f: int) -> bool:
    return f in cat.iso_set


def validate_category(cat: FinCat) -> ValidationReport:
    """Check unit laws, associativity and well-typedness of the table.

    A category with a :attr:`FinCat.preorder` has a well-typed table that
    composes its one arrow per pair a ≤ b, so it is associative and unital
    by construction and only its names can be at fault; any other category
    gets the full check, ``_search_validate``, which the tests also use as
    the oracle."""
    if cat.preorder is not None:
        return ValidationReport(tuple(_name_violations(cat)))
    return _search_validate(cat)


def _name_violations(cat: FinCat) -> list[Violation]:
    bad: list[Violation] = []
    if len(set(cat.objects)) != len(cat.objects):
        bad.append(Violation("duplicate-object", (), "duplicate object names"))
    if len({m.name for m in cat.morphisms}) != len(cat.morphisms):
        bad.append(Violation("duplicate-morphism", (), "duplicate morphism names"))
    return bad


def _is_id(value, bound: int) -> bool:
    return isinstance(value, int) and 0 <= value < bound


def _search_validate(cat: FinCat) -> ValidationReport:
    """Every check reads only ids whose type and range an earlier check
    has confirmed, so a malformed instance gets a report, never an
    exception."""
    n_obj = len(cat.objects)
    n_mor = len(cat.morphisms)
    for f, m in enumerate(cat.morphisms):
        if not isinstance(m, Morphism):
            return ValidationReport(
                (Violation("morphism-type", (f,), f"morphism {f} is not a Morphism"),)
            )
    bad = _name_violations(cat)
    for f, m in enumerate(cat.morphisms):
        if not (_is_id(m.src, n_obj) and _is_id(m.tgt, n_obj)):
            bad.append(
                Violation("dangling", (f,), f"{m.name} references a missing object")
            )
            return ValidationReport(tuple(bad))
    if len(cat.identities) != n_obj or not all(
        _is_id(i, n_mor) for i in cat.identities
    ):
        bad.append(Violation("identities", (), "identity table malformed"))
        return ValidationReport(tuple(bad))
    for x, i in enumerate(cat.identities):
        if cat.src(i) != x or cat.tgt(i) != x:
            bad.append(
                Violation(
                    "identity-typing",
                    (i,),
                    f"identity of {cat.objects[x]} has wrong endpoints",
                )
            )
    if len(cat.table) != n_mor or not all(
        isinstance(row, (tuple, list)) and len(row) == n_mor for row in cat.table
    ):
        bad.append(Violation("table-shape", (), "composition table is not square"))
        return ValidationReport(tuple(bad))

    # entries exist exactly for composable pairs and are well typed
    for g in range(n_mor):
        for f in range(n_mor):
            h = cat.table[g][f]
            composable = cat.tgt(f) == cat.src(g)
            if not (isinstance(h, int) and h < n_mor):
                bad.append(
                    Violation(
                        "composite-id",
                        (g, f),
                        f"{cat.name(g)}∘{cat.name(f)} = {h!r} is not a morphism id",
                    )
                )
            elif composable and h < 0:
                bad.append(
                    Violation(
                        "missing-composite",
                        (g, f),
                        f"no entry for {cat.name(g)}∘{cat.name(f)}",
                    )
                )
            elif not composable and h >= 0:
                bad.append(
                    Violation(
                        "spurious-composite",
                        (g, f),
                        f"{cat.name(g)}∘{cat.name(f)} is not composable",
                    )
                )
            elif h >= 0 and (cat.src(h) != cat.src(f) or cat.tgt(h) != cat.tgt(g)):
                bad.append(
                    Violation(
                        "composite-typing",
                        (g, f, h),
                        f"{cat.name(g)}∘{cat.name(f)} = {cat.name(h)} has wrong endpoints",
                    )
                )
    if bad:
        return ValidationReport(tuple(bad))

    for f, m in enumerate(cat.morphisms):
        if cat.table[cat.identities[m.tgt]][f] != f:
            bad.append(
                Violation("unit", (f,), f"id∘{cat.name(f)} != {cat.name(f)}")
            )
        if cat.table[f][cat.identities[m.src]] != f:
            bad.append(
                Violation("unit", (f,), f"{cat.name(f)}∘id != {cat.name(f)}")
            )
    for f, g, gf in cat.composable_pairs:
        for h in range(n_mor):
            if cat.src(h) != cat.tgt(g):
                continue
            if cat.table[h][gf] != cat.table[cat.table[h][g]][f]:
                bad.append(
                    Violation(
                        "associativity",
                        (h, g, f),
                        f"{cat.name(h)}∘({cat.name(g)}∘{cat.name(f)}) != "
                        f"({cat.name(h)}∘{cat.name(g)})∘{cat.name(f)}",
                    )
                )
    return ValidationReport(tuple(bad))


def opposite(cat: FinCat) -> FinCat:
    """Same objects and morphism ids, arrows reversed, table transposed."""
    cache = cat.scratch
    if "op" not in cache:
        morphisms = tuple(Morphism(m.name, m.tgt, m.src) for m in cat.morphisms)
        table = tuple(zip(*cat.table))  # row g of the transpose is column g
        cache["op"] = FinCat(cat.objects, morphisms, cat.identities, table)
    return cache["op"]


# -- (co)limits ---------------------------------------------------------

# each limit kind and the colimit kind it is in the opposite category
_DUAL_KIND = {"terminal": "initial", "product": "coproduct", "pullback": "pushout"}


def _check_shape(cat: FinCat, kind: str, diagram: tuple[int, ...]) -> None:
    if kind == "initial":
        if diagram:
            raise InputError("initial takes no diagram data")
    elif kind == "coproduct":
        if len(diagram) != 2 or any(
            not (0 <= x < len(cat.objects)) for x in diagram
        ):
            raise InputError("coproduct takes two object ids")
    elif kind == "pushout":
        if len(diagram) != 2 or any(
            not (0 <= f < len(cat.morphisms)) for f in diagram
        ):
            raise InputError("pushout takes two morphism ids")
        f, g = diagram
        if cat.src(f) != cat.src(g):
            raise InputError("pushout needs a span: the two maps must share a source")
    else:
        raise InputError(f"unknown colimit kind {kind!r}")


def colimit(cat: FinCat, shape: tuple) -> ConeResult:
    """Canonical colimit of a finite shape, with verified universal property.

    ``shape`` is ("initial",), ("coproduct", X, Y) or ("pushout", f, g)
    where (f, g) is a span out of a common source.
    """
    kind, diagram = shape[0], tuple(shape[1:])
    _check_shape(cat, kind, diagram)
    cache = cat.scratch.setdefault("colimits", {})
    key = (kind, diagram)
    if key in cache:
        return cache[key]

    if kind == "initial":
        boundary: tuple[int, ...] = ()
        constraint = lambda legs: True
    elif kind == "coproduct":
        boundary = diagram
        constraint = lambda legs: True
    else:  # pushout
        f, g = diagram
        boundary = (cat.tgt(f), cat.tgt(g))
        constraint = lambda legs: cat.table[legs[0]][f] == cat.table[legs[1]][g]

    cocones: list[tuple[int, tuple[int, ...]]] = []
    for apex in range(len(cat.objects)):
        for legs in itertools.product(*(cat.hom(b, apex) for b in boundary)):
            if constraint(legs):
                cocones.append((apex, legs))

    result = None
    for apex, legs in cocones:
        mediators: dict[tuple[int, tuple[int, ...]], int] = {}
        universal = True
        for q_apex, q_legs in cocones:
            found = [
                m
                for m in cat.hom(apex, q_apex)
                if all(cat.table[m][legs[i]] == q_legs[i] for i in range(len(legs)))
            ]
            if len(found) != 1:
                universal = False
                break
            mediators[(q_apex, q_legs)] = found[0]
        if universal:
            result = ConeResult("colimit", kind, diagram, apex, legs, mediators)
            break
    if result is None:
        failed = tuple(sorted({apex for apex, _ in cocones}))
        result = ConeResult("colimit", kind, diagram, None, (), {}, failed)
    cache[key] = result
    return result


def limit(cat: FinCat, shape: tuple) -> ConeResult:
    """Canonical limit; computed as the colimit of the dual shape in op(cat)."""
    kind, diagram = shape[0], tuple(shape[1:])
    if kind not in _DUAL_KIND:
        raise InputError(f"unknown limit kind {kind!r}")
    r = colimit(opposite(cat), (_DUAL_KIND[kind],) + diagram)
    return ConeResult(
        "limit", kind, diagram, r.apex, r.legs, r.mediators, r.failed_apexes
    )


@dataclass(frozen=True)
class BicompletenessReport:
    missing: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.missing


def is_finitely_bicomplete(cat: FinCat) -> BicompletenessReport:
    """Existence of initial/terminal objects, binary (co)products, pushouts
    and pullbacks, which is all the finite (co)completeness the theorem
    engines consume.

    On a preorder every cocone commutes, so initial and terminal objects
    are a bottom and a top, a coproduct of x and y or a pushout of a span
    into x and y exists iff x and y have a join, and dually for meets;
    the report lists the same gaps, in the same order, as the search."""
    cache = cat.scratch
    if "bicomplete" not in cache:
        po = cat.preorder
        missing = _search_bicomplete(cat) if po is None else _thin_bicomplete(cat, po)
        cache["bicomplete"] = BicompletenessReport(tuple(missing))
    return cache["bicomplete"]


def _thin_bicomplete(cat: FinCat, po: Preorder) -> list[tuple]:
    missing: list[tuple] = []
    if po.join() is None:
        missing.append(("initial",))
    if po.meet() is None:
        missing.append(("terminal",))
    n_obj = len(cat.objects)
    ends_only = len(missing)
    for x in range(n_obj):
        for y in range(x, n_obj):
            if po.join(x, y) is None:
                missing.append(("coproduct", x, y))
            if po.meet(x, y) is None:
                missing.append(("product", x, y))
    if len(missing) == ends_only:  # every pair has a join and a meet
        return missing
    ends = po.ends
    for f, (a, b) in enumerate(ends):
        for g in range(f, len(ends)):
            c, d = ends[g]
            if a == c and po.join(b, d) is None:
                missing.append(("pushout", f, g))
            if b == d and po.meet(a, c) is None:
                missing.append(("pullback", f, g))
    return missing


def _search_bicomplete(cat: FinCat) -> list[tuple]:
    """Every gap :func:`is_finitely_bicomplete` reports, by computing each
    (co)limit; the oracle for the preorder closed form."""
    missing: list[tuple] = []
    if not colimit(cat, ("initial",)).exists:
        missing.append(("initial",))
    if not limit(cat, ("terminal",)).exists:
        missing.append(("terminal",))
    n_obj = len(cat.objects)
    for x in range(n_obj):
        for y in range(x, n_obj):
            if not colimit(cat, ("coproduct", x, y)).exists:
                missing.append(("coproduct", x, y))
            if not limit(cat, ("product", x, y)).exists:
                missing.append(("product", x, y))
    for f in range(len(cat.morphisms)):
        for g in range(f, len(cat.morphisms)):
            if cat.src(f) == cat.src(g) and not colimit(cat, ("pushout", f, g)).exists:
                missing.append(("pushout", f, g))
            if cat.tgt(f) == cat.tgt(g) and not limit(cat, ("pullback", f, g)).exists:
                missing.append(("pullback", f, g))
    return missing


# -- construction helpers ----------------------------------------------


def build_category(
    objects: list[str],
    morphisms: list[tuple[str, str, str]],
    compositions: dict[tuple[str, str], str],
    identity_names: dict[str, str] | None = None,
) -> FinCat:
    """Assemble a FinCat from named data.

    ``morphisms`` lists non-identity morphisms as (name, src, tgt);
    identities are created for every object (named per ``identity_names``
    or ``id_<obj>``) and identity compositions are inferred.
    ``compositions`` maps (g_name, f_name) to the name of g∘f for the
    remaining composable pairs; missing entries surface in validation,
    not here.
    """
    identity_names = identity_names or {}
    obj_index = {o: i for i, o in enumerate(objects)}
    if len(obj_index) != len(objects):
        raise InputError("duplicate object names")

    mors: list[Morphism] = []
    identities: list[int] = []
    for o in objects:
        identities.append(len(mors))
        mors.append(Morphism(identity_names.get(o, f"id_{o}"), obj_index[o], obj_index[o]))
    for name, s, t in morphisms:
        if s not in obj_index:
            raise InputError(f"morphism {name}: unknown source object {s!r}")
        if t not in obj_index:
            raise InputError(f"morphism {name}: unknown target object {t!r}")
        mors.append(Morphism(name, obj_index[s], obj_index[t]))
    mor_index = {m.name: i for i, m in enumerate(mors)}
    if len(mor_index) != len(mors):
        raise InputError("duplicate morphism names")

    n = len(mors)
    table = [[-1] * n for _ in range(n)]
    for x in range(len(objects)):
        i = identities[x]
        for f in range(n):
            if mors[f].tgt == x:
                table[i][f] = f
            if mors[f].src == x:
                table[f][i] = f
    for (g_name, f_name), h_name in compositions.items():
        for nm in (g_name, f_name, h_name):
            if nm not in mor_index:
                raise InputError(f"composition entry references unknown morphism {nm!r}")
        g, f, h = mor_index[g_name], mor_index[f_name], mor_index[h_name]
        if mors[f].tgt != mors[g].src:
            raise InputError(f"composition entry ({g_name},{f_name}) is not composable")
        if table[g][f] not in (-1, h):
            raise InputError(f"conflicting composition entries for ({g_name},{f_name})")
        table[g][f] = h

    return FinCat(
        tuple(objects),
        tuple(mors),
        tuple(identities),
        tuple(tuple(row) for row in table),
    )


def from_poset(elements: list[str], leq) -> FinCat:
    """The thin category of a finite poset: one morphism per pair x ≤ y."""
    below = {
        (a, b) for a in elements for b in elements if leq(a, b)
    }
    morphisms = [
        (f"{a}_to_{b}", a, b) for a in elements for b in elements if a != b and (a, b) in below
    ]
    comps: dict[tuple[str, str], str] = {}
    for a in elements:
        for b in elements:
            for c in elements:
                if a != b and b != c and a != c:
                    if (a, b) in below and (b, c) in below:
                        comps[(f"{b}_to_{c}", f"{a}_to_{b}")] = f"{a}_to_{c}"
    return build_category(list(elements), morphisms, comps)
