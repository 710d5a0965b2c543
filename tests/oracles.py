"""Naive reference implementations of the library's decision procedures,
for the differential tests only.

The per-category tables of :mod:`modelcat.morphclass` are closed forms on
a lattice; the searches below compute the same tables on any finite
category by walking hom-sets and, for pushouts, :func:`colimit`.  On a
preorder each search has exactly one candidate wherever it has any, so a
table and its search must agree on every lattice, in the same order and
with the same witnesses.  ``_closure_loop`` is the oracle of
``closure_check``: frozenset membership over the retract and transfer
tables and ``FinCat.composable_pairs``, in table order.

``_pair_loop_triples`` is the census pair loop the bit-sliced pairing
replaced: one pair of weak factorization systems at a time, two-out-of-three
by :func:`composition_failure` on W's out-masks.  ``_frozenset_census`` is
what the census did after the pairing before it ran on masks (frozenset
classes, a sort by sorted member lists), with each structure verified by
``_table_verify``, the axiom walk as a table of lambdas; and
``_rewrapped_thm15`` is Thm 1.5 as a Thm 1.2 report on the opposite
candidate, re-wrapped.  ``_bit_loop_edges`` is the extension graph as it
was emitted before byte lanes: containments as bitmasks over the nodes and
one loop step per edge.  ``_opposite_pullbacks`` is
the base-change table as the pushout table of the opposite category, and
``_walked_functor_issues`` validates a functor by walking every composable
pair, as ``validate_functor`` does on a category that is not thin, and
``hom_bijection_ok`` checks an adjunction's hom-set bijection map by map.

The homotopy searches (``_search_left_homotopic``,
``_search_right_homotopic``, ``_search_homotopy_category``) and the
invariance and transfer walks (``_walked_invariance``,
``_walked_fibration_transfer``) are the generic forms of the closed forms
in :mod:`modelcat.modelstruct` and :mod:`modelcat.extend`: they loop over
hom-sets, cylinder factorizations and ``FinCat.composable_pairs``, and the
homotopy category keeps its consistency checks, which raise
:class:`TheoremViolationError`.

The point, fold and diagonal maps below are the generic constructions
from :func:`colimit` and :func:`limit`: the oracles of the lattice reads
(``arrow[join()][x]``, ``arrow[join(x, x)][x]`` and their duals) of
:mod:`modelcat.modelstruct`, :mod:`modelcat.extend` and
:mod:`modelcat.quillen`.  They answer on any category and raise
:class:`MissingLimitError` where the (co)limit does not exist.
"""

import itertools

from modelcat.census import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    _pruned_triples,
    weak_factorization_systems,
)
from modelcat.extend import (
    _KINDS,
    ExtensionCandidate,
    HypothesisError,
    HypothesisReport,
    check_thm12,
)
from modelcat.fincat import (
    ConeResult,
    FinCat,
    InputError,
    MissingLimitError,
    TheoremViolationError,
    _bits,
    colimit,
    limit,
    opposite,
    require_lattice,
)
from modelcat.modelstruct import (
    _NO_FACTORIZATION,
    AxiomReport,
    HoCategory,
    ModelStructure,
    boundary_objects,
)
from modelcat.morphclass import (
    CheckResult,
    MorphClass,
    closure_check,
    composition_failure,
    factors_all,
    factorizations,
    has_lifting,
    pullback_transfers,
    pushout_transfers,
    retract_pairs,
)


def _search_unliftable_pairs(cat: FinCat) -> dict[tuple[int, int], tuple[int, int]]:
    out: dict[tuple[int, int], tuple[int, int]] = {}
    n = len(cat.morphisms)
    for i in range(n):
        for p in range(n):
            hooks = cat.hom(cat.tgt(i), cat.src(p))
            for top in cat.hom(cat.src(i), cat.src(p)):
                done = False
                for bottom in cat.hom(cat.tgt(i), cat.tgt(p)):
                    if cat.table[p][top] != cat.table[bottom][i]:
                        continue
                    if not any(
                        cat.table[h][i] == top and cat.table[p][h] == bottom
                        for h in hooks
                    ):
                        out[(i, p)] = (top, bottom)
                        done = True
                        break
                if done:
                    break
    return out


def point_from_initial(cat: FinCat, x: int) -> int:
    """The unique map ∅→x."""
    r = colimit(cat, ("initial",))
    if not r.exists:
        raise MissingLimitError("no initial object")
    return r.mediators[(x, ())]


def point_to_terminal(cat: FinCat, x: int) -> int:
    """The unique map x→∗."""
    r = limit(cat, ("terminal",))
    if not r.exists:
        raise MissingLimitError("no terminal object")
    return r.mediators[(x, ())]


def fold_map(cat: FinCat, x: int) -> tuple[ConeResult, int]:
    """The coproduct X⊔X and the fold map X⊔X→X induced by (id, id)."""
    cp = colimit(cat, ("coproduct", x, x))
    if not cp.exists:
        raise MissingLimitError(f"no coproduct {cat.objects[x]}⊔{cat.objects[x]}")
    i = cat.identities[x]
    return cp, cp.mediators[(x, (i, i))]


def diagonal_map(cat: FinCat, x: int) -> tuple[ConeResult, int]:
    """The product X×X and the diagonal X→X×X induced by (id, id)."""
    pr = limit(cat, ("product", x, x))
    if not pr.exists:
        raise MissingLimitError(f"no product {cat.objects[x]}×{cat.objects[x]}")
    i = cat.identities[x]
    return pr, pr.mediators[(x, (i, i))]


def _search_retract_pairs(cat: FinCat) -> tuple:
    out = []
    n = len(cat.morphisms)
    for f in range(n):
        a, b = cat.src(f), cat.tgt(f)
        for g in range(n):
            if f == g:
                continue
            a2, b2 = cat.src(g), cat.tgt(g)
            witness = None
            for ia in cat.hom(a, a2):
                for ra in cat.hom(a2, a):
                    if cat.table[ra][ia] != cat.identities[a]:
                        continue
                    for ib in cat.hom(b, b2):
                        if cat.table[g][ia] != cat.table[ib][f]:
                            continue
                        for rb in cat.hom(b2, b):
                            if cat.table[rb][ib] != cat.identities[b]:
                                continue
                            if cat.table[f][ra] != cat.table[rb][g]:
                                continue
                            witness = (ia, ra, ib, rb)
                            break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                out.append((f, g, witness))
    return tuple(out)


def _search_pushout_transfers(cat: FinCat) -> tuple[tuple[int, int, int], ...]:
    out = []
    n = len(cat.morphisms)
    for f in range(n):
        for g in range(n):
            if cat.src(f) != cat.src(g):
                continue
            r = colimit(cat, ("pushout", f, g))
            if r.exists:
                # legs are (tgt f → P, tgt g → P); the cobase change of
                # f along g is the leg out of tgt(g)
                out.append((f, g, r.legs[1]))
    return tuple(out)


def _search_factor_pairs(cat: FinCat, f: int) -> tuple[tuple[int, int], ...]:
    out = []
    a, b = cat.src(f), cat.tgt(f)
    for mid in range(len(cat.objects)):
        for j in cat.hom(a, mid):
            for p in cat.hom(mid, b):
                if cat.table[p][j] == f:
                    out.append((j, p))
    return tuple(out)


def _closure_loop(cls, property):
    """Oracle for ``closure_check``: frozenset membership tests over the
    retract, composable-pair and transfer tables, in table order."""
    cat, mem = cls.cat, cls.members
    if property == "retracts":
        for f, g, (ia, ra, ib, rb) in retract_pairs(cat):
            if g in mem and f not in mem:
                return CheckResult.fail(
                    "not closed under retracts", f=f, g=g, i_A=ia, r_A=ra, i_B=ib, r_B=rb
                )
        return CheckResult.ok("retracts")
    if property == "composition":
        for f, g, gf in cat.composable_pairs:
            if f in mem and g in mem and gf not in mem:
                return CheckResult.fail("not closed under composition", f=f, g=g, composite=gf)
        return CheckResult.ok("composition")
    if property == "two_of_three":
        for f, g, gf in cat.composable_pairs:
            if (f in mem) + (g in mem) + (gf in mem) == 2:
                return CheckResult.fail("two-of-three fails", f=f, g=g, composite=gf)
        return CheckResult.ok("two_of_three")
    transfers = pushout_transfers if property == "pushouts" else pullback_transfers
    for f, g, fp in transfers(cat):
        if f in mem and fp not in mem:
            return CheckResult.fail(f"not closed under {property}", f=f, along=g, transfer=fp)
    return CheckResult.ok(property)


def _pair_loop_triples(cat: FinCat, budget: int):
    """Oracle for ``census._pruned_triples``: every pair (L₁, R₁), (L₂, R₂)
    with L₁ ⊆ L₂ in wfs order, W's arrows out of each object as an OR of
    R₂'s over the objects L₁ reaches, and two-out-of-three by
    :func:`composition_failure`; the budget is tested per pair."""
    thin = require_lattice(cat)
    wfs, steps = weak_factorization_systems(cat, budget)
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
            W_out = []
            for targets in L1_to:
                reach = 0
                for b in targets:
                    reach |= R2_out[b]
                W_out.append(reach)
            if composition_failure(thin, W_out, True) is None:
                W = sum(1 << f for a, c, f in thin.arrows if W_out[a] >> c & 1)
                found.append((W, L2, R1))
    return found, pairs


def _table_verify(cat: FinCat, W, C, F, stop_at_first: bool = False) -> AxiomReport:
    """Oracle for ``modelstruct.verify_model_structure``: the axioms as a
    table of functions, walked in report order, with ``passed`` computed
    from the verdicts."""
    require_lattice(cat)
    trivcof, trivfib = W.mask & C.mask, W.mask & F.mask
    axioms = (
        ("two_of_three_W", lambda: closure_check(W, "two_of_three")),
        ("retracts_W", lambda: closure_check(W, "retracts")),
        ("retracts_C", lambda: closure_check(C, "retracts")),
        ("retracts_F", lambda: closure_check(F, "retracts")),
        ("lift_trivcof_fib", lambda: has_lifting(cat, trivcof, F.mask)),
        ("lift_cof_trivfib", lambda: has_lifting(cat, C.mask, trivfib)),
        ("factor_trivcof_fib", lambda: factors_all(cat, trivcof, F.mask, _NO_FACTORIZATION)),
        ("factor_cof_trivfib", lambda: factors_all(cat, C.mask, trivfib, _NO_FACTORIZATION)),
    )
    checks = {}
    for name, axiom in axioms:
        verdict = checks[name] = axiom()
        if stop_at_first and not verdict.passed:
            break
    return AxiomReport(checks)


def _frozenset_census(cat: FinCat) -> tuple[tuple[ModelStructure, ...], int]:
    """Oracle for what ``census.enumerate_model_structures`` does after the
    pairing, as it was done on frozensets: every mask of ``_pruned_triples``
    becomes a member frozenset, the triples sort by their sorted member
    lists, each distinct member set gets one class, and each structure is
    verified by :func:`_table_verify`.  Returns the structures and the
    pairs tried."""
    found, pairs = _pruned_triples(cat, require_lattice(cat), DEFAULT_BUDGET)
    members = {m: frozenset(_bits(m)) for m in set(itertools.chain(*found))}
    triples = [tuple(members[m] for m in t) for t in found]
    rank = {m: k for k, m in enumerate(sorted(set(itertools.chain(*triples)), key=sorted))}
    classes = {m: MorphClass(cat, m) for m in rank}
    structures = tuple(
        ModelStructure(cat, *triple, _table_verify(cat, *triple))
        for triple in (
            (classes[W], classes[C], classes[F])
            for W, C, F in sorted(triples, key=lambda t: (rank[t[0]], rank[t[1]], rank[t[2]]))
        )
    )
    return structures, pairs


def _bit_loop_edges(census):
    """Oracle for ``census.extension_graph``'s edges: per node, the
    containments as bitmasks over the nodes, one loop over the maps per
    distinct class, and one step per edge over the partner bits, with the
    kind looked up in ``extend._KINDS``.  Yields the edges in (i, j) order."""
    nodes = census.structures
    everyone = (1 << len(nodes)) - 1

    def containments(masks):
        holds = [0] * len(census.cat.morphisms)  # per map, the nodes whose class holds it
        for i, m in enumerate(masks):
            for f in _bits(m):
                holds[f] |= 1 << i
        around = {}
        for m in set(masks):
            contains, outside = everyone, 0
            for f, held in enumerate(holds):
                if m >> f & 1:
                    contains &= held
                else:
                    outside |= held
            around[m] = (contains, everyone & ~outside)
        return [around[m] for m in masks]

    W, C, F = (containments([getattr(ms, X).mask for ms in nodes]) for X in "WCF")
    for i, ((W_up, W_in), (C_up, C_in), (F_up, F_in)) in enumerate(zip(W, C, F)):
        partners = W_up & (C_up | C_in) & (F_up | F_in) & ~(1 << i)
        for j in _bits(partners):
            bit = 1 << j
            yield i, j, _KINDS[
                32 | bool(W_in & bit) << 4 | bool(C_up & bit) << 3 | bool(C_in & bit) << 2
                | bool(F_up & bit) << 1 | bool(F_in & bit)
            ]


def _rewrapped_thm15(cand, stop_at_first: bool = False) -> HypothesisReport:
    """Oracle for ``extend.check_thm15``: ``check_thm12`` on the opposite
    candidate, its report re-wrapped as a "1.5" report."""
    if cand.kind != "ll":
        raise HypothesisError("theorem 1.5 candidates must have kind 'll'")
    base_op = cand.base.opposite
    if not base_op.verified:
        raise TheoremViolationError("opposite of a verified model structure failed verification")
    cand_op = ExtensionCandidate(
        base_op, cand.W_g.opposite, cand.F_g.opposite, cand.C_g.opposite
    )
    report = check_thm12(cand_op, stop_at_first=stop_at_first)
    return HypothesisReport("1.5", report.verdicts, report.passed)


def _opposite_pullbacks(cat: FinCat) -> tuple[tuple[int, int, int], ...]:
    """Oracle for ``pullback_transfers``: the pushout transfers of the
    opposite category."""
    return pushout_transfers(opposite(cat))


def _walked_functor_issues(fun) -> list[str]:
    """Oracle for ``quillen.validate_functor``: endpoints, identities and
    every composable pair of the source, whatever the categories."""
    src, tgt = fun.source, fun.target
    if len(fun.obj_map) != len(src.objects) or len(fun.mor_map) != len(src.morphisms):
        return ["object/morphism map has wrong length"]
    issues = []
    for f, m in enumerate(src.morphisms):
        fm = fun.mor_map[f]
        if tgt.src(fm) != fun.obj_map[m.src] or tgt.tgt(fm) != fun.obj_map[m.tgt]:
            issues.append(f"image of {src.name(f)} has wrong endpoints")
    for x in range(len(src.objects)):
        if fun.mor_map[src.identities[x]] != tgt.identities[fun.obj_map[x]]:
            issues.append(f"identity of {src.objects[x]} not preserved")
    for f, g, gf in src.composable_pairs:
        if tgt.table[fun.mor_map[g]][fun.mor_map[f]] != fun.mor_map[gf]:
            issues.append(f"composition {src.name(g)}∘{src.name(f)} not preserved")
    return issues


def hom_bijection_ok(adj) -> bool:
    """Do f ↦ T(f)∘η and g ↦ ε∘S(g) invert each other on every hom pair?"""
    M, N = adj.S.source, adj.S.target
    ok = True
    for a in range(len(M.objects)):
        for x in range(len(N.objects)):
            sa, tx = adj.S.on_obj(a), adj.T.on_obj(x)
            for f in N.hom(sa, x):
                g = M.comp(adj.T.on_mor(f), adj.unit[a])
                back = N.comp(adj.counit[x], adj.S.on_mor(g))
                ok = ok and back == f
            for g in M.hom(a, tx):
                f = N.comp(adj.counit[x], adj.S.on_mor(g))
                back = M.comp(adj.T.on_mor(f), adj.unit[a])
                ok = ok and back == g
    return ok


def _search_left_homotopic(ms, f: int, g: int) -> bool:
    """Oracle for ``modelstruct.left_homotopic``: f ~ g via some cylinder
    object of the shared source, over every cylinder and homotopy."""
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


def _search_right_homotopic(ms, f: int, g: int) -> bool:
    """Oracle for ``modelstruct.right_homotopic`` on parallel maps: f ~ g
    via some path object of the shared target."""
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


def _search_homotopy_category(ms) -> HoCategory:
    """Oracle for ``modelstruct.homotopy_category``: the left-homotopy
    classes of every hom-set between cofibrant-fibrant objects, with the
    relation checked to be an equivalence that agrees with right homotopy
    and is compatible with composition; any violation is raised as
    :class:`TheoremViolationError`.
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
                (f, g): _search_left_homotopic(ms, f, g) for f in maps for g in maps
            }
            for f in maps:
                if not rel[(f, f)]:
                    raise TheoremViolationError("homotopy relation not reflexive")
                for g in maps:
                    if rel[(f, g)] != rel[(g, f)]:
                        raise TheoremViolationError("homotopy relation not symmetric")
                    if rel[(f, g)] != _search_right_homotopic(ms, f, g):
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
                        _search_left_homotopic(ms, f, f2)
                        and _search_left_homotopic(ms, g, g2)
                        and not _search_left_homotopic(ms, gf, cat.comp(g2, f2))
                    ):
                        raise TheoremViolationError(
                            "composition not well-defined on homotopy classes"
                        )
    return HoCategory(ms, objs, homs)


def _walked_invariance(sub, super_, W) -> CheckResult:
    """Oracle for ``extend.check_invariance``: every pair of maps of super
    and every pair of W-legs between them that makes the square commute."""
    cat = sub.cat
    if not (sub.members <= super_.members):
        raise HypothesisError("need sub ⊆ super")
    for f in sorted(super_.members):
        for g in sorted(super_.members):
            for u in cat.hom(cat.src(f), cat.src(g)):
                if u not in W.members:
                    continue
                for v in cat.hom(cat.tgt(f), cat.tgt(g)):
                    if v not in W.members:
                        continue
                    if cat.table[g][u] != cat.table[v][f]:
                        continue
                    if (f in sub.members) != (g in sub.members):
                        return CheckResult.fail(
                            "membership not invariant", f=f, g=g, u=u, v=v
                        )
    return CheckResult.ok("invariant")


def _walked_fibration_transfer(base, ext) -> CheckResult:
    """Oracle for ``extend.check_fibration_transfer``: two walks over
    ``FinCat.composable_pairs``, fibrations first."""
    cat = base.cat
    for h, g, f in cat.composable_pairs:
        if (
            f in base.F.members
            and g in ext.F.members
            and h in base.W.members
            and f not in ext.F.members
        ):
            return CheckResult.fail("fibration transfer fails", f=f, g=g, h=h)
    for f, h, g in cat.composable_pairs:
        if (
            f in ext.C.members
            and g in base.C.members
            and h in base.W.members
            and g not in ext.C.members
        ):
            return CheckResult.fail("cofibration transfer fails", f=f, g=g, h=h)
    return CheckResult.ok("transfer")
