"""Exhaustive enumeration of model structures on a small category.

The naive mode is the oracle: it verifies every candidate triple.  The
pruned mode uses that a model structure is exactly a pair of weak
factorization systems (C∩W, F) and (C, F∩W) whose composite class
W = (F∩W)∘(C∩W) satisfies two-out-of-three (Joyal–Tierney, *Quasi-categories
vs Segal spaces*, Prop. 7.8).  It enumerates the lifting-closed classes
L = llp(rlp(L)), keeps those whose (L, rlp(L)) factors every map, and pairs
them up a row at a time on ``int`` bitmasks.  Both modes return the same
set, re-verified by :meth:`ModelStructure.build`, and refuse a category
that is not valid and finitely bicomplete (:func:`require_lattice`).

Cached on the category: the tables :func:`llp`, :func:`rlp` and
:func:`factors_all` read, and the answer to each (left, right) question of
:func:`has_lifting` and :func:`factors_all`, so re-verification decides
each wfs once per side.  The pairing yields (W, C, F) as masks, and the
structures share one class per distinct mask, built by
:meth:`MorphClass.from_mask`.  :func:`extension_graph` walks no pairs; its
byte lanes take 8× the memory of bitmasks, and no edge costs a Python step.

``candidates_checked`` counts candidate triples in naive mode and pairs of
weak factorization systems tried in pruned mode.  The budget bounds the
number of candidate triples in naive mode (refused before the scan starts)
and the closure steps plus pairs tried in pruned mode (refused at the end
of the row on which the count passes it).
"""

from __future__ import annotations

import itertools
import time
from itertools import compress, repeat
from dataclasses import dataclass

from .fincat import FinCat, InputError, Preorder, TheoremViolationError, _bits, require_lattice
from .morphclass import MorphClass, factors_all, llp, rlp
from .modelstruct import ModelStructure, verify_model_structure
from .extend import _KINDS, ExtensionKind, classify_extension

DEFAULT_BUDGET = 2**20


class BudgetExceeded(Exception):
    """The census would take more steps than the configured budget."""


@dataclass(frozen=True)
class CensusResult:
    cat: FinCat
    mode: str
    structures: tuple[ModelStructure, ...]
    candidates_checked: int
    elapsed: float

    def triples(self) -> set[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
        return {ms.triple() for ms in self.structures}

    def find(self, W, C, F) -> ModelStructure | None:
        key = (frozenset(W), frozenset(C), frozenset(F))
        return next((ms for ms in self.structures if ms.triple() == key), None)


def _subsets(pool: list[int]):
    for r in range(len(pool) + 1):
        yield from (frozenset(c) for c in itertools.combinations(pool, r))


def weak_factorization_systems(
    cat: FinCat, budget: int = DEFAULT_BUDGET
) -> tuple[list[tuple[int, int]], int]:
    """The weak factorization systems (L, R) of ``cat`` as bitmasks over
    morphism ids, ordered by L, and the number of closure steps taken.

    On a finite category a wfs is a class L = llp(rlp(L)) such that every
    map factors as r∘l with l ∈ L and r ∈ rlp(L).  The closed classes are
    reached from close(∅) by closing L ∪ {f} for every closed L and f ∉ L:
    closure is monotone, so any closed class K is the end of such a chain
    inside K.  A closed class is identified by its right class, since
    rlp(close(X)) = rlp(X); each step costs one right-class update and, for
    a new class, one llp.  Raises :class:`BudgetExceeded` once the steps
    pass ``budget``.
    """
    n = len(cat.morphisms)
    right_of = [rlp(cat, 1 << f) for f in range(n)]  # rlp({f}) per map f
    everything = rlp(cat, 0)
    closed = {everything: llp(cat, everything)}  # right class -> left class
    todo = [everything]
    steps = 1
    while todo:
        R = todo.pop()
        L = closed[R]
        for f in range(n):
            if L >> f & 1:
                continue
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"census exceeds the budget of {budget} steps")
            R2 = R & right_of[f]
            if R2 not in closed:
                closed[R2] = llp(cat, R2)
                todo.append(R2)

    wfs = [(L, R) for R, L in closed.items() if factors_all(cat, L, R, "").passed]
    return sorted(wfs), steps


def _pruned_triples(
    cat: FinCat, thin: Preorder, budget: int
) -> tuple[list[tuple[int, int, int]], int]:
    """Model structures (W, C, F) as bitmasks, from pairs of weak factorization
    systems (L₁, R₁) = (C∩W, F) and (L₂, R₂) = (C, F∩W) with L₁ ⊆ L₂ and
    W = R₂∘L₁ satisfying two-out-of-three, and the number of pairs tried.

    W∩L₂ = L₁ and W∩R₁ = R₂ need no test: for f = r∘l ∈ L₂ with l ∈ L₁ and
    r ∈ R₂, f lifts against r, so f is a retract of l and lies in L₁; the R₁
    side is dual.  A row L₁ tries all L₂ at once as bitmasks over the wfs
    index j: the L₂ ⊇ L₁ are an AND of ``in_L``, the j whose W holds a→c an
    OR of ``in_R[b→c]`` over a→b ∈ L₁, and two-out-of-three fails on
    (x, y, z) = (a→b, b→c, a→c) for the j in z & (x ^ y) | x & y & ~z."""
    wfs, steps = weak_factorization_systems(cat, budget)
    maps = range(len(cat.morphisms))
    in_L, in_R = [0] * len(maps), [0] * len(maps)  # per map f, the j with f ∈ L_j, f ∈ R_j
    for j, (L, R) in enumerate(wfs):
        bit = 1 << j
        for f in _bits(L):
            in_L[f] |= bit
        for f in _bits(R):
            in_R[f] |= bit
    arrow, up = thin.arrow, thin.up
    # per map a→b, (a→c, in_R[b→c]) for every c ≥ b
    onward = [[(arrow[a][c], in_R[arrow[b][c]]) for c in _bits(up[b])] for a, b in thin.ends]
    # the triples with a ≠ b ≠ c: the others hold an identity, and W holds every identity
    triples = [
        (arrow[a][b], arrow[b][c], arrow[a][c])
        for a, b, _ in thin.arrows if a != b for c in _bits(up[b]) if c != b
    ]
    found, pairs = [], 0
    for L1, R1 in wfs:
        row = [f for f in maps if L1 >> f & 1]
        cand = (1 << len(wfs)) - 1
        for f in row:
            cand &= in_L[f]
        pairs += cand.bit_count()
        if steps + pairs > budget:
            raise BudgetExceeded(f"census exceeds the budget of {budget} steps")
        W = [0] * len(maps)  # per map, the j whose W = R_j∘L₁ holds it
        for ab in row:
            for ac, held in onward[ab]:
                W[ac] |= held
        for x, y, z in triples:
            x, y, z = W[x], W[y], W[z]
            cand &= ~(z & (x ^ y) | x & y & ~z)
        # one pass over the row's slices: the maps in every remaining j's W, and the rest
        common, split = 0, []
        for f, held in enumerate(W):
            held &= cand
            if held == cand:
                common |= 1 << f
            elif held:
                split.append((f, held))
        for j in _bits(cand):
            W_j = common
            for f, held in split:
                if held >> j & 1:
                    W_j |= 1 << f
            found.append((W_j, wfs[j][0], R1))
    return found, pairs


def enumerate_model_structures(
    cat: FinCat, mode: str = "pruned", budget: int | None = None
) -> CensusResult:
    """All model structures on ``cat``, deduplicated by exact class equality.

    Identities are forced into all three classes and isomorphisms into W
    (both hold in every model structure), so the naive choices range over
    the remaining morphisms only.
    """
    if mode not in ("naive", "pruned"):
        raise InputError("mode must be 'naive' or 'pruned'")
    thin = require_lattice(cat)
    budget = DEFAULT_BUDGET if budget is None else budget

    t0 = time.monotonic()
    found: list[tuple[int, int, int]] = []  # (W, C, F) as bitmasks

    if mode == "naive":
        ids, isos = cat.identity_set, cat.iso_set
        non_id = [f for f in range(len(cat.morphisms)) if f not in ids]
        non_iso = [f for f in range(len(cat.morphisms)) if f not in isos]
        checked = 2 ** (len(non_iso) + 2 * len(non_id))
        if checked > budget:
            raise BudgetExceeded(f"{checked} candidate triples exceed the budget of {budget}")
        W_s, C_s = [isos | x for x in _subsets(non_iso)], [ids | x for x in _subsets(non_id)]
        for triple in itertools.product(W_s, C_s, C_s):  # (W, C, F), F ranging as C does
            classes = [MorphClass(cat, members) for members in triple]
            if verify_model_structure(cat, *classes, stop_at_first=True).passed:
                found.append(tuple(cls.mask for cls in classes))
    else:
        found, checked = _pruned_triples(cat, thin, budget)

    # one class per distinct mask, ranked by its bits in ascending order (its sorted members)
    masks = sorted(set(itertools.chain(*found)), key=lambda m: list(_bits(m)))
    classes = [MorphClass.from_mask(cat, m) for m in masks]
    rank = {m: k for k, m in enumerate(masks)}
    structures = tuple(
        ModelStructure.build(cat, classes[W], classes[C], classes[F])
        for W, C, F in sorted((rank[W], rank[C], rank[F]) for W, C, F in found)
    )
    for ms in structures:
        if not ms.verified:
            raise TheoremViolationError(
                f"census structure failed independent re-verification: {ms.report.first_failure()}"
            )
    return CensusResult(cat, mode, structures, checked, time.monotonic() - t0)


def enumerate_extensions(
    census: CensusResult, base: ModelStructure, kind: str
) -> list[ModelStructure]:
    """Census structures whose classification against ``base`` matches."""
    if kind not in ("equal", "ll", "lm", "ml", "mm", "other"):
        raise InputError(f"unknown extension kind {kind!r}")
    if base.triple() not in census.triples():
        raise InputError("base structure is not part of the census")
    return [
        ms
        for ms in census.structures
        if classify_extension(base, ms).kind == kind
    ]


@dataclass(frozen=True)
class ExtensionGraph:
    census: CensusResult
    nodes: tuple[ModelStructure, ...]
    edges: tuple[tuple[int, int, ExtensionKind], ...]

    @property
    def minimal_index(self) -> int:
        cat = self.census.cat
        isos, everything = MorphClass.isos(cat).mask, (1 << len(cat.morphisms)) - 1
        for i, ms in enumerate(self.nodes):
            if ms.W.mask == isos and ms.C.mask == ms.F.mask == everything:
                return i
        raise InputError("census does not contain the minimal structure")


def _containments(masks: list[int], n_maps: int) -> list[tuple[int, int]]:
    """Per node, the nodes whose class contains its class and those whose class
    lies inside it, once per distinct class, as byte lanes (byte j is 1 for node j)."""
    nodes_of: dict[int, int] = {}  # per distinct class, the nodes that have it
    for i, m in enumerate(masks):
        nodes_of[m] = nodes_of.get(m, 0) | 1 << 8 * i
    holds = [0] * n_maps  # per morphism, the nodes whose class holds it
    for m, nodes in nodes_of.items():
        for f in _bits(m):
            holds[f] |= nodes
    everyone = int.from_bytes(b"\1" * len(masks), "little")
    around: dict[int, tuple[int, int]] = {}
    for m in nodes_of:
        contains, outside = everyone, 0
        for f, nodes in enumerate(holds):
            if m >> f & 1:
                contains &= nodes
            else:
                outside |= nodes
        around[m] = (contains, everyone & ~outside)
    return [around[m] for m in masks]


def extension_graph(census: CensusResult) -> ExtensionGraph:
    """The edges (i, j, kind), in (i, j) order, of the ordered pairs i ≠ j
    of census structures that :func:`classify_extension` does not call
    ``other``, with its kind and flags.  No pair is walked: per node, the
    nodes whose W, C, F contain (up) or lie inside (in) its own give the
    partners W_up & (C_up | C_in) & (F_up | F_in), and each edge's kind is
    one lookup in the table of kinds by the six containments (W_up = 1).
    On byte lanes a row's flags and kind codes are two ``int.to_bytes``
    calls, and ``itertools`` emits its edges.  The minimal structure must
    ll-reach every node, or :class:`TheoremViolationError` is raised."""
    nodes, n, n_maps = census.structures, len(census.structures), len(census.cat.morphisms)
    W, C, F = (_containments([getattr(ms, X).mask for ms in nodes], n_maps) for X in "WCF")
    mi = ExtensionGraph(census, nodes, ()).minimal_index
    kind_of = _KINDS[32:].__getitem__  # by the code W_in C_up C_in F_up F_in, high to low
    edges = []
    for i, ((W_up, W_in), (C_up, C_in), (F_up, F_in)) in enumerate(zip(W, C, F)):
        partners = W_up & (C_up | C_in) & (F_up | F_in) & ~(1 << 8 * i)
        if i == mi:  # ll: W grows, C and F shrink, not all three equal
            ll = partners & C_in & F_in & ~(W_in & C_up & F_up)
        flags = partners.to_bytes(n, "little")
        codes = (W_in << 4 | C_up << 3 | C_in << 2 | F_up << 1 | F_in).to_bytes(n, "little")
        edges += zip(repeat(i), compress(range(n), flags), map(kind_of, compress(codes, flags)))
    if ll != int.from_bytes(b"\1" * n, "little") & ~(1 << 8 * mi):
        raise TheoremViolationError("minimal structure does not ll-reach every census structure")
    return ExtensionGraph(census, nodes, tuple(edges))
