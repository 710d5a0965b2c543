"""The (co)limits the model-structure layer reads from the lattice view,
against the generic constructions of ``oracles`` and :func:`colimit`, and
a guard that no model-structure question searches for a (co)limit.

On a lattice the initial object is ``join()``, X⊔X is ``join(x, x)`` and
a pushout of maps into p and q is ``join(p, q)``, each leg and mediator
the one arrow between the objects; dually through ``meet``.  The
least-index join is the apex :func:`colimit` picks, so the reads and the
searches must name the same objects and maps, a ≅ b < t included.
"""

import contextlib
import io
import json

import pytest

import modelcat
from modelcat import (
    ExtensionCandidate,
    MorphClass,
    SquareLiftProblem,
    catio,
    census,
    cli,
    extend,
    fincat,
    modelstruct,
    morphclass,
    quillen,
)
from modelcat.catio import load_fixture, serialize_category, serialize_classes
from modelcat.extend import (
    cofibrant_approximation_square,
    factor_c_then_trivfib,
    lemma11_lift,
    mapping_cylinder_factorization,
)
from modelcat.fincat import colimit, require_lattice
from modelcat.modelstruct import find_cylinder, homotopy_category, minimal_model_structure
from oracles import diagonal_map, fold_map, point_from_initial, point_to_terminal
from test_thin import BUILT, _lattice

LATTICES = {
    **{name: (lambda name=name: load_fixture(f"{name}.cat"))
       for name in ("pt", "arrow", "chain2", "diamond", "bool3")},
    **{f"[{n}]": (lambda n=n: _lattice(n)) for n in range(7)},
    "[1]x[2]": lambda: _lattice(1, 2),
    "[2]x[2]": lambda: _lattice(2, 2),
    "bool4": lambda: _lattice(1, 1, 1, 1),
    "a≅b<t": BUILT["iso+top"],
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_point_fold_and_diagonal_maps_match_oracles(name):
    """∅→x, x→∗, the fold and diagonal maps and their apexes and legs, as
    the reads of ``modelstruct``, ``extend`` and ``quillen`` spell them."""
    cat = LATTICES[name]()
    po = require_lattice(cat)
    everything = MorphClass.all_maps(cat)
    for x in range(len(cat.objects)):
        assert po.arrow[po.join()][x] == point_from_initial(cat, x)
        assert po.arrow[x][po.meet()] == point_to_terminal(cat, x)
        cp, fold = fold_map(cat, x)
        assert (po.join(x, x), po.arrow[po.join(x, x)][x]) == (cp.apex, fold)
        cyl = find_cylinder(cat, everything, everything, x, "cylinder")
        assert (cyl.power_object, cyl.power_legs) == (cp.apex, cp.legs)
        assert cat.comp(cyl.collapse, cyl.structure_map) == fold
        pr, diagonal = diagonal_map(cat, x)
        path = find_cylinder(cat, everything, everything, x, "path")
        assert (path.power_object, path.power_legs) == (pr.apex, pr.legs)
        assert cat.comp(path.structure_map, path.collapse) == diagonal


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_pushouts_are_joins(name):
    """Every span's pushout: apex ``join(p, q)``, legs and every mediator
    the one arrow out of the join, as the constructive engines read them."""
    cat = LATTICES[name]()
    po = require_lattice(cat)
    spans = 0
    for f, (a, p) in enumerate(po.ends):
        for g, (c, q) in enumerate(po.ends):
            if a != c:
                continue
            r = colimit(cat, ("pushout", f, g))
            apex = po.join(p, q)
            assert (r.apex, r.legs) == (apex, (po.arrow[p][apex], po.arrow[q][apex]))
            for (other, _), mediator in r.mediators.items():
                assert mediator == po.arrow[apex][other]
            spans += 1
    assert spans >= len(cat.morphisms)


@pytest.mark.parametrize("name", ["diamond", "bool3", "a≅b<t"])
def test_mapping_cylinder_matches_colimit(name):
    """Both pushouts of the mapping cylinder and the map p_g they induce,
    against the search, for every map of the minimal structure."""
    cat = LATTICES[name]()
    ms = minimal_model_structure(cat)
    cand = ExtensionCandidate(ms, ms.W, ms.C, ms.F)
    for g in range(len(cat.morphisms)):
        x, y = cat.src(g), cat.tgt(g)
        mc = mapping_cylinder_factorization(cand, g)
        po1 = colimit(cat, ("pushout", mc.i0, g))
        assert (mc.sum_object, (mc.sum_map, mc.sigma)) == (po1.apex, po1.legs)
        po2 = colimit(cat, ("pushout", mc.structure_map, mc.sum_map))
        assert (mc.mid, (mc.pi, mc.glue)) == (po2.apex, po2.legs)
        w = po1.mediators[(y, (cat.comp(g, fold_map(cat, x)[1]), cat.identities[y]))]
        assert mc.p_g == po2.mediators[(y, (cat.comp(g, mc.collapse), w))]


# -- no (co)limit search on a lattice ----------------------------------------

MODULES = (modelcat, fincat, morphclass, modelstruct, extend, quillen, census, cli, catio)


def _forbid_search(monkeypatch):
    """Every module attribute bound to :func:`colimit` or :func:`limit`
    now raises."""
    searches = (fincat.colimit, fincat.limit)

    def searched(*args):
        raise AssertionError("(co)limit search on a lattice")

    for module in MODULES:
        for name, value in list(vars(module).items()):
            if any(value is search for search in searches):
                monkeypatch.setattr(module, name, searched)


def _mcx(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv + ["--format", "json"])
    return code, out.getvalue(), err.getvalue()


def _sample(cat):
    """About a dozen census structures, spread over the census."""
    structures = census.enumerate_model_structures(cat).structures
    return structures[:: max(1, len(structures) // 12)]


def _mcx_requests(directory, cat):
    """Every model-structure command of ``mcx`` over the sampled
    structures, with the minimal structure as base; the files they read
    are written to ``directory``."""
    def write(filename, text):
        (directory / filename).write_text(text)
        return str(directory / filename)

    ids = {o: cat.name(cat.identities[x]) for x, o in enumerate(cat.objects)}
    identity = {
        "objects": {o: o for o in cat.objects},
        "morphisms": {m.name: m.name for m in cat.morphisms},
    }
    cat_file = write("cat.cat", serialize_category(cat))
    adj = write("cat.adj", json.dumps({
        "source": "cat.cat", "target": "cat.cat", "left": identity, "right": identity,
        "unit": ids, "counit": ids,
    }))
    ms = minimal_model_structure(cat)
    base = write("minimal.classes", serialize_classes(W=ms.W, C=ms.C, F=ms.F))
    requests = [["minimal", cat_file]]
    for k, ms in enumerate(_sample(cat)):
        s = write(f"{k}.classes", serialize_classes(W=ms.W, C=ms.C, F=ms.F))
        wg = write(f"{k}.wg", serialize_classes(Wg=ms.W))
        requests += [
            ["verify", cat_file, s],
            ["properness", cat_file, s, "--side", "left"],
            ["properness", cat_file, s, "--side", "right"],
            ["classify", cat_file, base, s],
            *(["extend", cat_file, "--theorem", theorem, "--base", base, "--candidate", s]
              for theorem in ("1.2", "1.5", "1.7")),
            ["extend", cat_file, "--theorem", "p1.4", "--base", base, "--candidate", wg],
            ["quillen", "pair", adj, "--classes-m", base, "--classes-n", s],
            ["quillen", "equivalence", adj, "--classes-m", base, "--classes-n", s],
            *(["quillen", "derived-ff", adj, "--classes-m", base, "--classes-n", base,
               "--ext-m", s, "--ext-n", s, "--side", side] for side in ("left", "right")),
        ]
    return requests


def _engine_outcomes(cat):
    """The four constructive engines over the minimal structure, and the
    homotopy category of the sampled structures."""
    ms = minimal_model_structure(cat)
    cand = ExtensionCandidate(ms, ms.W, ms.C, ms.F)
    maps = range(len(cat.morphisms))
    trivfib = ms.F.mask & ms.W.mask
    lifts = []
    for i in sorted(ms.C.members):
        for q in maps:
            if not trivfib >> q & 1:
                continue
            for top in cat.hom(cat.src(i), cat.src(q)):
                for bottom in cat.hom(cat.tgt(i), cat.tgt(q)):
                    if cat.table[q][top] == cat.table[bottom][i]:
                        square = SquareLiftProblem(cat, i, q, top, bottom)
                        lifts.append(lemma11_lift(cat, ms.W, ms.C, ms.F, square))
    return (
        lifts,
        [mapping_cylinder_factorization(cand, g) for g in maps],
        [cofibrant_approximation_square(ms, f) for f in maps],
        [factor_c_then_trivfib(cand, f) for f in maps],
        [homotopy_category(s).homs for s in _sample(cat)],
    )


@pytest.mark.parametrize("name", ["diamond", "bool3", "a≅b<t"])
def test_no_colimit_search_on_a_lattice(name, tmp_path, monkeypatch):
    """With :func:`colimit` and :func:`limit` raising, every
    model-structure command and engine gives the results it gives with
    them.  Each run starts from fresh categories (``mcx`` reloads its
    files), so no cached (co)limit is read."""
    requests = _mcx_requests(tmp_path, LATTICES[name]())

    def outcomes():
        return [_mcx(argv) for argv in requests], _engine_outcomes(LATTICES[name]())

    expected = outcomes()
    assert {code for code, _, _ in expected[0]} >= {0, 1}
    _forbid_search(monkeypatch)
    with pytest.raises(AssertionError, match="search on a lattice"):
        fincat.colimit(LATTICES[name](), ("initial",))
    assert outcomes() == expected
