"""Morphism classes and the decision procedures every axiom check reduces to.

This module is the only reader of the per-category tables, and each
reader takes its classes as ``int`` bitmasks over morphism ids
(``MorphClass.mask``, or ``C.mask & W.mask`` for C∩W), so a caller builds
no class:

- lifting: :func:`has_lifting`, :func:`llp` and :func:`rlp` (and through
  them :func:`lifting_closure` and the census closure) read
  :func:`lifting_blocks`, per map i the maps p with an (i, p) square that
  has no lift; a failed :func:`has_lifting` reads its witness square from
  :func:`unliftable_pairs`;
- factorization: :func:`factors_all` ANDs per-object masks, and
  :func:`factorizations` filters :func:`factor_pairs`
  (:func:`first_factorization` is its first);
- closure: :func:`closure_check` scans :func:`retract_pairs`, tests
  composition and two-out-of-three per arrow with
  :func:`composition_failure`, and :func:`stable_under_transfers` (the
  first (f, g, f') of :func:`pushout_transfers` or
  :func:`pullback_transfers` with f ∈ X, g ∈ along, f' ∉ X) serves
  closure under pushouts and pullbacks, properness and Thm 1.2
  hypothesis 6 in :mod:`modelcat.extend`.

Each result is cached on the immutable object it describes, so a cache
lives exactly as long as what its caller keeps: the per-category tables
and, per (left, right) pair, the :func:`has_lifting` verdict and the
:func:`factors_all` witness on ``cat.scratch``; closure verdicts
(``MorphClass.verdicts``) and the members as a bitmask (``MorphClass.mask``,
kept as given by :meth:`MorphClass.from_mask`, which the census builds its
classes with) and as a class of the opposite category (``MorphClass.opposite``)
on the class; cofibrant and fibrant objects, the verified opposite
structure and, per input, the verdicts of Thm 1.2
hypotheses 4-6 and Thm 1.7 hypothesis 6 (``ModelStructure.verdicts``) on
the structure.  Cached witnesses are read-only, and :meth:`CheckResult.ok`
returns one shared result per description.

Every table is a closed form on the lattice view
(:func:`modelcat.fincat.require_lattice`) and refuses any category that
is not valid and finitely bicomplete.  On a preorder every square and
every cocone commutes and each hom-set has one element, so the closed
form names the one candidate a generic search would find; those searches
are the differential tests' oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .fincat import (
    FinCat,
    InputError,
    Preorder,
    _bits,
    require_lattice,
)


@dataclass(frozen=True)
class MorphClass:
    """A subset of the morphisms of a fixed category.

    ``verdicts`` caches :func:`closure_check` results by property,
    ``mask`` holds the members as an ``int`` bitmask and ``opposite`` the
    same members over the opposite category; none of them takes part in
    equality, hashing or ``repr``, and ``dataclasses.replace`` starts them
    afresh.
    """

    cat: FinCat
    members: frozenset[int]
    verdicts: dict[str, CheckResult] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        members = self.members
        if members and (min(members) < 0 or max(members) >= len(self.cat.morphisms)):
            raise InputError("class members must be morphisms of the category")

    @cached_property
    def mask(self) -> int:
        """``members`` as a bitmask: bit ``f`` is set iff ``f`` is a member."""
        return sum(1 << f for f in self.members)

    @cached_property
    def opposite(self) -> "MorphClass":
        """The same members as a class of ``opposite(cat)``, built once, so
        its closure verdicts are shared by every reader."""
        from .fincat import opposite  # the one opposite category this module builds
        return MorphClass(opposite(self.cat), self.members)

    # -- constructors ---------------------------------------------------

    @classmethod
    def of(cls, cat: FinCat, members: Iterable[int]) -> "MorphClass":
        return cls(cat, frozenset(members))

    @classmethod
    def from_mask(cls, cat: FinCat, mask: int) -> "MorphClass":
        """The class of the set bits of ``mask``, kept as its ``mask``."""
        if mask < 0:
            raise InputError("class members must be morphisms of the category")
        self = cls(cat, frozenset(_bits(mask)))
        self.__dict__["mask"] = mask  # where the cached property keeps it
        return self

    @classmethod
    def all_maps(cls, cat: FinCat) -> "MorphClass":
        return cls(cat, frozenset(range(len(cat.morphisms))))

    @classmethod
    def identities(cls, cat: FinCat) -> "MorphClass":
        return cls(cat, cat.identity_set)

    @classmethod
    def isos(cls, cat: FinCat) -> "MorphClass":
        return cls(cat, cat.iso_set)

    @classmethod
    def empty(cls, cat: FinCat) -> "MorphClass":
        return cls(cat, frozenset())

    # -- set algebra ----------------------------------------------------

    def __contains__(self, f: int) -> bool:
        return f in self.members

    def __and__(self, other: "MorphClass") -> "MorphClass":
        self._same_cat(other)
        return MorphClass(self.cat, self.members & other.members)

    def __or__(self, other: "MorphClass") -> "MorphClass":
        self._same_cat(other)
        return MorphClass(self.cat, self.members | other.members)

    def __le__(self, other: "MorphClass") -> bool:
        self._same_cat(other)
        return self.members <= other.members

    def __lt__(self, other: "MorphClass") -> bool:
        self._same_cat(other)
        return self.members < other.members

    def complement(self) -> "MorphClass":
        return MorphClass(
            self.cat, frozenset(range(len(self.cat.morphisms))) - self.members
        )

    def names(self) -> tuple[str, ...]:
        return tuple(self.cat.name(f) for f in sorted(self.members))

    def _same_cat(self, other: "MorphClass") -> None:
        if self.cat is not other.cat and self.cat != other.cat:
            raise InputError("classes live over different categories")


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    description: str = ""
    witness: Mapping[str, int] | None = None

    @classmethod
    @lru_cache(maxsize=64)
    def ok(cls, description: str = "") -> "CheckResult":
        """A passing result: one shared object per description."""
        return cls(True, description)

    @classmethod
    def fail(cls, description: str, **witness) -> "CheckResult":
        return cls(False, description, MappingProxyType(witness))


def combine(*checks: CheckResult) -> CheckResult:
    for c in checks:
        if not c.passed:
            return c
    return CheckResult.ok("; ".join(c.description for c in checks if c.description))


@dataclass(frozen=True)
class SquareLiftProblem:
    """A commuting square i: A→B (left), p: X→Y (right), top: A→X, bottom: B→Y."""

    cat: FinCat
    i: int
    p: int
    top: int
    bottom: int

    def __post_init__(self):
        cat = self.cat
        if cat.src(self.top) != cat.src(self.i) or cat.tgt(self.top) != cat.src(self.p):
            raise InputError("top edge of square has wrong endpoints")
        if cat.src(self.bottom) != cat.tgt(self.i) or cat.tgt(self.bottom) != cat.tgt(self.p):
            raise InputError("bottom edge of square has wrong endpoints")
        if cat.comp(self.p, self.top) != cat.comp(self.bottom, self.i):
            raise InputError("square does not commute")


@dataclass(frozen=True)
class Factorization:
    """f = right∘left through ``middle``."""

    cat: FinCat
    f: int
    left: int
    middle: int
    right: int

    def __post_init__(self):
        if self.cat.comp(self.right, self.left) != self.f:
            raise InputError("not a factorization: right∘left != f")


# -- cached per-category analyses ---------------------------------------


def unliftable_pairs(cat: FinCat) -> dict[tuple[int, int], tuple[int, int]]:
    """For each (i, p) that admits some commuting square with no diagonal
    lift, the least such (top, bottom) witness.  On a preorder the only
    square is (a→x, b→y) for i: a→b and p: x→y (see
    :func:`lifting_blocks`)."""
    cache = cat.scratch
    if "unliftable" not in cache:
        po = require_lattice(cat)
        ends, arrow = po.ends, po.arrow
        cache["unliftable"] = {
            (i, p): (arrow[ends[i][0]][ends[p][0]], arrow[ends[i][1]][ends[p][1]])
            for i, block in enumerate(lifting_blocks(cat))
            for p in _bits(block)
        }
    return cache["unliftable"]


def retract_pairs(cat: FinCat) -> tuple[tuple[int, int, tuple[int, int, int, int]], ...]:
    """All (f, g, (i_A, r_A, i_B, r_B)) with f != g exhibiting f as a
    retract of g in the arrow category.  On a preorder r∘i = id forces
    i and r to be inverse, so these are the pairs whose sources and
    targets are isomorphic, and a poset has none."""
    cache = cat.scratch
    if "retracts" not in cache:
        po = require_lattice(cat)
        iso = [up & down for up, down in zip(po.up, po.down)]
        ends, arrow = po.ends, po.arrow
        cache["retracts"] = tuple(
            (f, g, (arrow[a][a2], arrow[a2][a], arrow[b][b2], arrow[b2][b]))
            for f, (a, b) in enumerate(ends)
            if iso[a] & (iso[a] - 1) or iso[b] & (iso[b] - 1)  # else only g = f
            for g, (a2, b2) in enumerate(ends)
            if g != f and iso[a] >> a2 & 1 and iso[b] >> b2 & 1
        )
    return cache["retracts"]


def pushout_transfers(cat: FinCat) -> tuple[tuple[int, int, int], ...]:
    """All (f, g, f') where f' is the pushout (cobase change) of f along g,
    over every span (f, g), in (f, g) order.  On a preorder f' is
    tgt g → join(tgt f, tgt g), the apex :func:`colimit` picks."""
    cache = cat.scratch
    if "pushout_transfers" not in cache:
        po = require_lattice(cat)
        out_of = [[] for _ in po.up]  # per object, (g, tgt g) for the maps out of it
        for g, (a, y) in enumerate(po.ends):
            out_of[a].append((g, y))
        cache["pushout_transfers"] = tuple(
            (f, g, po.arrow[y][po.join(x, y)])
            for f, (a, x) in enumerate(po.ends)
            for g, y in out_of[a]
        )
    return cache["pushout_transfers"]


def pullback_transfers(cat: FinCat) -> tuple[tuple[int, int, int], ...]:
    """Dual of :func:`pushout_transfers`: (f, g, f') with f' the base
    change of f along g, over every cospan (f, g), in (f, g) order.  On a
    preorder f' is meet(src f, src g) → src g."""
    cache = cat.scratch
    if "pullback_transfers" not in cache:
        po = require_lattice(cat)
        into = [[] for _ in po.up]  # per object, (g, src g) for the maps into it
        for g, (y, b) in enumerate(po.ends):
            into[b].append((g, y))
        cache["pullback_transfers"] = tuple(
            (f, g, po.arrow[po.meet(x, y)][y])
            for f, (x, b) in enumerate(po.ends) for g, y in into[b]
        )
    return cache["pullback_transfers"]


def lifting_blocks(cat: FinCat) -> tuple[int, ...]:
    """Per morphism i, the bitmask of the maps p such that some commuting
    (i, p) square has no lift: :func:`unliftable_pairs` as bitmasks.

    On a preorder, i: a→b and p: x→y have a square iff a ≤ x and b ≤ y,
    and it lifts iff b ≤ x, so the blocked p are the maps into up[b] out of
    the objects of up[a] that are not in up[b]."""
    cache = cat.scratch
    if "blocks" not in cache:
        po = require_lattice(cat)
        out_of = [0] * len(po.up)  # per object, the maps out of it
        into = [0] * len(po.up)  # per object, the maps into it
        for a, b, f in po.arrows:
            out_of[a] |= 1 << f
            into[b] |= 1 << f

        def maps(per_object: list[int], objects: int) -> int:
            found = 0
            for x in _bits(objects):
                found |= per_object[x]
            return found

        into_up = [maps(into, up) for up in po.up]
        cache["blocks"] = tuple(
            maps(out_of, po.up[a] & ~po.up[b]) & into_up[b] for a, b in po.ends
        )
    return cache["blocks"]


def factor_pairs(cat: FinCat, f: int) -> tuple[tuple[int, int], ...]:
    """All (j, p) with p∘j = f, ordered by (middle object, j, p).  On a
    preorder that is one pair per middle object m with a ≤ m ≤ b."""
    cache = cat.scratch.setdefault("factor_pairs", {})
    if f not in cache:
        po = require_lattice(cat)
        a, b = po.ends[f]
        cache[f] = tuple(
            (po.arrow[a][m], po.arrow[m][b]) for m in _bits(po.up[a] & po.down[b])
        )
    return cache[f]


# -- operations ---------------------------------------------------------


def find_lift(problem: SquareLiftProblem) -> int | None:
    """Least-id diagonal of a commuting square, by exhaustive search.

    This is the oracle the constructive lifts are validated against.
    """
    cat = problem.cat
    for h in cat.hom(cat.tgt(problem.i), cat.src(problem.p)):
        if (
            cat.table[h][problem.i] == problem.top
            and cat.table[problem.p][h] == problem.bottom
        ):
            return h
    return None


def has_lifting(cat: FinCat, left: int, right: int) -> CheckResult:
    """Pass iff every commuting square (i ∈ left, p ∈ right) has a lift,
    the two classes given as bitmasks over morphism ids.

    The witness is the least i, then the least p, with an unliftable
    square, and that pair's least (top, bottom).  Decided once per (left,
    right) and kept on ``cat.scratch``."""
    cache, key = cat.scratch.setdefault("lifting_verdicts", {}), (left, right)
    return cache.get(key) or cache.setdefault(key, _lifting_verdict(cat, left, right))


def _lifting_verdict(cat: FinCat, left: int, right: int) -> CheckResult:
    blocks = lifting_blocks(cat)
    for i in _bits(left):
        hit = blocks[i] & right
        if hit:
            p = (hit & -hit).bit_length() - 1
            top, bottom = unliftable_pairs(cat)[(i, p)]
            return CheckResult.fail(
                "square with no lift", i=i, p=p, top=top, bottom=bottom
            )
    return CheckResult.ok("lifting")


def llp(cat: FinCat, right: int) -> int:
    """The maps with the left lifting property against every map of
    ``right``, both as bitmasks over morphism ids."""
    return sum(1 << i for i, block in enumerate(lifting_blocks(cat)) if not block & right)


def rlp(cat: FinCat, left: int) -> int:
    """The maps with the right lifting property against every map of
    ``left``, both as bitmasks over morphism ids."""
    blocks = lifting_blocks(cat)
    blocked = 0
    for i in _bits(left):
        blocked |= blocks[i]
    return (1 << len(cat.morphisms)) - 1 & ~blocked


def lifting_closure(cat: FinCat, cls: MorphClass, side: str) -> MorphClass:
    """side='rlp': maps with the right lifting property against cls; 'llp' dual."""
    if side not in ("llp", "rlp"):
        raise InputError("side must be 'llp' or 'rlp'")
    closure = rlp if side == "rlp" else llp
    return MorphClass.from_mask(cat, closure(cat, cls.mask))


def stable_under_transfers(
    transfers: Iterable[tuple[int, int, int]], inside: int, along: int, failure: str, success: str
) -> CheckResult:
    """Pass iff every (f, g, f') of ``transfers`` (:func:`pushout_transfers`
    or :func:`pullback_transfers`) with f in ``inside`` and g in ``along``
    has f' in ``inside``, both classes as bitmasks.  The witness is the
    first failing triple in table order, as (f, along, transfer)."""
    for f, g, fp in transfers:
        if inside >> f & 1 and not inside >> fp & 1 and along >> g & 1:
            return CheckResult.fail(failure, f=f, along=g, transfer=fp)
    return CheckResult.ok(success)


def closure_check(cls: MorphClass, property: str) -> CheckResult:
    """Closure of a class under retracts, composition, pushouts, pullbacks
    or the two-out-of-three rule, with a least-id witness on failure.

    The verdict is computed once per class and property and then read
    from ``cls.verdicts``."""
    verdict = cls.verdicts.get(property)
    if verdict is None:
        verdict = cls.verdicts[property] = _closure_verdict(cls, property)
    return verdict


def _closure_verdict(cls: MorphClass, property: str) -> CheckResult:
    cat = cls.cat
    m = cls.mask
    if property == "retracts":
        for f, g, (ia, ra, ib, rb) in retract_pairs(cat):
            if m >> g & 1 and not m >> f & 1:
                return CheckResult.fail(
                    "not closed under retracts",
                    f=f, g=g, i_A=ia, r_A=ra, i_B=ib, r_B=rb,
                )
        return CheckResult.ok("retracts")
    if property in ("composition", "two_of_three"):
        po = require_lattice(cat)
        out = [0] * len(po.up)
        for a, b, f in po.arrows:
            if m >> f & 1:
                out[a] |= 1 << b
        failure = composition_failure(po, out, property == "two_of_three")
        if failure is None:
            return CheckResult.ok(property)
        f, g, gf = failure
        description = (
            "two-of-three fails" if property == "two_of_three"
            else "not closed under composition"
        )
        return CheckResult.fail(description, f=f, g=g, composite=gf)
    if property in ("pushouts", "pullbacks"):
        transfers = pushout_transfers if property == "pushouts" else pullback_transfers
        return stable_under_transfers(
            transfers(cat), m, (1 << len(cat.morphisms)) - 1,
            f"not closed under {property}", property,
        )
    raise InputError(f"unknown closure property {property!r}")


def factorizations(cat: FinCat, f: int, left: int, right: int) -> Iterator[tuple[int, int]]:
    """Every (j, p) with p∘j = f, j in ``left`` and p in ``right`` (both
    bitmasks over morphism ids), in the scan order of :func:`factor_pairs`."""
    return ((j, p) for j, p in factor_pairs(cat, f) if left >> j & 1 and right >> p & 1)


def first_factorization(cat: FinCat, f: int, left: int, right: int) -> tuple[int, int] | None:
    """The first of :func:`factorizations`, or ``None``."""
    return next(factorizations(cat, f, left, right), None)


def enumerate_factorizations(
    cat: FinCat, f: int, left: MorphClass, right: MorphClass
) -> list[Factorization]:
    """All factorizations f = p∘j with j ∈ left and p ∈ right, in scan order."""
    return [
        Factorization(cat, f, j, cat.tgt(j), p)
        for j, p in factorizations(cat, f, left.mask, right.mask)
    ]


def composition_failure(
    po: Preorder, out: list[int], two_of_three: bool
) -> tuple[int, int, int] | None:
    """The least (f, g, g∘f), in ``FinCat.composable_pairs`` order, on which
    a class of arrows is not closed under composition or, with
    ``two_of_three``, breaks two-out-of-three; None if there is none.

    The class is given per object: ``out[a]`` is the objects b with a→b in
    it.  For f: a→b the composites g∘f, g: b→c, are the arrows a→c with c
    in up[b], so the failing c are ``out[b] & ~out[a]`` (composition, f in
    the class), ``out[b] ^ (out[a] & up[b])`` (two-out-of-three, f in) and
    ``out[b] & out[a]`` (two-out-of-three, f out); g is the least id among
    them.  :func:`closure_check` calls it, and the census oracle in
    ``tests/oracles.py`` reuses it."""
    up, arrow, ends = po.up, po.arrow, po.ends
    for f, (a, b) in enumerate(ends):
        if out[a] >> b & 1:
            bad = out[b] ^ (out[a] & up[b]) if two_of_three else out[b] & ~out[a]
        elif two_of_three:
            bad = out[b] & out[a]
        else:
            continue
        if bad:
            g = min(arrow[b][c] for c in _bits(bad))
            return f, g, arrow[a][ends[g][1]]
    return None


def factors_all(cat: FinCat, left: int, right: int, description: str) -> CheckResult:
    """Pass iff every morphism factors as p∘j with j in ``left`` and p in
    ``right``, both bitmasks over morphism ids; on failure the least
    morphism that does not factor is the witness ``f``.  The witness is
    decided once per (left, right) and kept on ``cat.scratch``."""
    cache = cat.scratch.setdefault("unfactored", {})
    f = cache.get((left, right), -1)  # -1: not decided yet, as ids are >= 0
    if f == -1:
        f = cache[left, right] = _least_unfactored(cat, left, right)
    return CheckResult.ok("factorization") if f is None else CheckResult.fail(description, f=f)


def _least_unfactored(cat: FinCat, left: int, right: int) -> int | None:
    """On a preorder f: a→b factors iff (objects m with a→m in left) &
    (objects m with m→b in right) is not empty."""
    po = require_lattice(cat)
    left_out, right_in = [0] * len(po.up), [0] * len(po.up)
    for a, b, f in po.arrows:
        if left >> f & 1:
            left_out[a] |= 1 << b
        if right >> f & 1:
            right_in[b] |= 1 << a
    return min((f for a, b, f in po.arrows if not left_out[a] & right_in[b]), default=None)
