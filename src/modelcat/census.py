"""Exhaustive enumeration of model structures on a small category.

The naive mode is the oracle: it verifies every candidate triple.  The
pruned mode uses that a model structure is exactly a pair of weak
factorization systems (C∩W, F) and (C, F∩W) whose composite class
W = (F∩W)∘(C∩W) satisfies two-out-of-three (Joyal–Tierney, *Quasi-categories
vs Segal spaces*, Prop. 7.8).  It enumerates the lifting-closed classes
L = llp(rlp(L)), keeps those whose (L, rlp(L)) factors every map, and pairs
them up; it must return exactly the naive set.  Every structure either mode
returns is re-verified by :meth:`ModelStructure.build`.

The census refuses, through :func:`modelcat.fincat.require_lattice`, any
category that is not valid and finitely bicomplete, and reads the rest
as their preorder view (a finitely bicomplete finite category is thin).
The pair loop then works on ``int`` bitmasks only: W's arrows out of each
object are an OR of R₂'s over the objects L₁ reaches, and two-out-of-three
is :func:`composition_failure`, a mask test per arrow.  The closure and
the factorization test read the per-category tables through
:func:`llp`, :func:`rlp` and :func:`factors_all`, which cache them on the
category; the per-wfs object masks live for one census.  Re-verification
shares one :class:`MorphClass` per distinct class; :func:`extension_graph`
walks no pairs.

``candidates_checked`` counts candidate triples in naive mode and pairs of
weak factorization systems tried in pruned mode.  The budget bounds the
number of candidate triples in naive mode (refused before the scan starts)
and the closure steps plus pairs tried in pruned mode (refused as soon as
the count passes it).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .fincat import FinCat, InputError, Preorder, TheoremViolationError, _bits, require_lattice
from .morphclass import MorphClass, composition_failure, factors_all, llp, rlp
from .modelstruct import ModelStructure, verify_model_structure
from .extend import ExtensionKind, _extension_kind, classify_extension

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
        for ms in self.structures:
            if ms.triple() == (frozenset(W), frozenset(C), frozenset(F)):
                return ms
        return None


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
) -> tuple[list[tuple[frozenset[int], frozenset[int], frozenset[int]]], int]:
    """Model structures (W, C, F) from pairs of weak factorization systems
    (L₁, R₁) = (C∩W, F) and (L₂, R₂) = (C, F∩W) with L₁ ⊆ L₂ and
    W = R₂∘L₁ satisfying two-out-of-three, and the number of pairs tried.

    W∩L₂ = L₁ and W∩R₁ = R₂ need no test: for f = r∘l ∈ L₂ with l ∈ L₁ and
    r ∈ R₂, f lifts against r, so f is a retract of l and lies in L₁; the R₁
    side is dual."""
    wfs, steps = weak_factorization_systems(cat, budget)
    # per wfs: the objects L reaches from each object, R's arrows out of each object
    sides = []
    for L, R in wfs:
        L_to = [[] for _ in thin.up]
        R_out = [0] * len(thin.up)
        for a, b, f in thin.arrows:
            if L >> f & 1:
                L_to[a].append(b)
            if R >> f & 1:
                R_out[a] |= 1 << b
        sides.append((L, R, L_to, R_out))
    found = []
    pairs = 0
    for L1, R1, L1_to, _ in sides:
        for L2, R2, _, R2_out in sides:
            if L1 & ~L2:
                continue
            pairs += 1
            if steps + pairs > budget:
                raise BudgetExceeded(f"census exceeds the budget of {budget} steps")
            # a→c ∈ W iff a→b ∈ L₁ and b→c ∈ R₂ for some b
            W_out = []
            for targets in L1_to:
                reach = 0
                for b in targets:
                    reach |= R2_out[b]
                W_out.append(reach)
            if composition_failure(thin, W_out, True) is None:
                W = sum(1 << f for a, c, f in thin.arrows if W_out[a] >> c & 1)
                found.append((W, L2, R1))
    members = {m: frozenset(_bits(m)) for m in set(itertools.chain(*found))}
    return [tuple(members[m] for m in t) for t in found], pairs


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
    checked = 0
    found: list[tuple[frozenset[int], frozenset[int], frozenset[int]]] = []

    if mode == "naive":
        ids = cat.identity_set
        isos = cat.iso_set
        non_id = [f for f in range(len(cat.morphisms)) if f not in ids]
        non_iso = [f for f in range(len(cat.morphisms)) if f not in isos]
        total = 2 ** (len(non_iso) + 2 * len(non_id))
        if total > budget:
            raise BudgetExceeded(
                f"{total} candidate triples exceed the budget of {budget}"
            )
        for w_extra in _subsets(non_iso):
            W = isos | w_extra
            for c_extra in _subsets(non_id):
                C = ids | c_extra
                for f_extra in _subsets(non_id):
                    F = ids | f_extra
                    checked += 1
                    report = verify_model_structure(
                        cat,
                        MorphClass(cat, W),
                        MorphClass(cat, C),
                        MorphClass(cat, F),
                        stop_at_first=True,
                    )
                    if report.passed:
                        found.append((W, C, F))
    else:
        found, checked = _pruned_triples(cat, thin, budget)

    classes: dict[frozenset[int], MorphClass] = {}  # one per distinct class
    structures = tuple(
        ModelStructure.build(cat, *(
            classes.get(m) or classes.setdefault(m, MorphClass(cat, m)) for m in triple
        ))
        for triple in sorted(found, key=lambda t: tuple(map(sorted, t)))
    )
    for ms in structures:
        if not ms.verified:
            raise TheoremViolationError(
                "census structure failed independent re-verification: "
                f"{ms.report.first_failure()}"
            )
    return CensusResult(cat, mode, structures, checked, time.monotonic() - t0)


def enumerate_extensions(
    census: CensusResult, base: ModelStructure, kind: str
) -> list[ModelStructure]:
    """Census structures whose classification against ``base`` matches."""
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
        for i, ms in enumerate(self.nodes):
            if ms.W.members == ms.cat.iso_set and len(ms.C.members) == len(
                ms.cat.morphisms
            ) == len(ms.F.members):
                return i
        raise InputError("census does not contain the minimal structure")


def _containments(masks: list[int], n_maps: int) -> list[tuple[int, int]]:
    """Per node, the nodes whose class contains its class and those whose
    class lies inside it (bitmasks), once per distinct class."""
    nodes_of: dict[int, int] = {}  # per distinct class, the nodes that have it
    for i, m in enumerate(masks):
        nodes_of[m] = nodes_of.get(m, 0) | 1 << i
    holds = [0] * n_maps  # per morphism, the nodes whose class holds it
    for m, nodes in nodes_of.items():
        for f in _bits(m):
            holds[f] |= nodes
    everyone = (1 << len(masks)) - 1
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
    partners W_up & (C_up | C_in) & (F_up | F_in), and each edge's kind
    from the same masks.  The minimal structure must reach every node
    through an ll edge; otherwise :class:`TheoremViolationError` is raised."""
    nodes, n_maps = census.structures, len(census.cat.morphisms)
    W, C, F = (_containments([getattr(ms, X).mask for ms in nodes], n_maps) for X in "WCF")
    edges = []
    for i, ((W_up, W_in), (C_up, C_in), (F_up, F_in)) in enumerate(zip(W, C, F)):
        for j in _bits(W_up & (C_up | C_in) & (F_up | F_in) & ~(1 << i)):
            edges.append((i, j, _extension_kind(
                1, W_in >> j & 1, C_up >> j & 1, C_in >> j & 1, F_up >> j & 1, F_in >> j & 1
            )))
    graph = ExtensionGraph(census, nodes, tuple(edges))
    mi = graph.minimal_index
    reachable = {j for i, j, k in edges if i == mi and k.kind == "ll"}
    if reachable != set(range(len(nodes))) - {mi}:
        raise TheoremViolationError(
            "minimal structure does not ll-reach every census structure"
        )
    return graph
