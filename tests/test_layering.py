"""The layer boundaries of the library, read from its source with ``ast``.

- Only ``fincat`` searches for (co)limits: every other module reads them
  from the lattice view (joins and meets of ``require_lattice(cat)``), so
  none may name :func:`colimit`, :func:`limit` or a deleted search helper.
  The package root re-exports ``colimit`` and ``limit`` from ``fincat`` as
  public API, and that import is the one exception.
- Only ``fincat`` and ``morphclass`` keep caches on ``cat.scratch``.
- ``morphclass`` builds an opposite category only for
  ``MorphClass.opposite``: its transfer tables are joins and meets.
- Only ``fincat``, ``catio`` and ``quillen`` name
  ``FinCat.composable_pairs`` (``quillen`` for ``validate_functor``'s walk
  on a category that is not thin), and ``modelstruct`` and ``extend``
  name no hom-set: on a lattice they read the one arrow between two
  objects from the lattice view.
- Thm 1.2 hypothesis 6 is decided once per base and C_g mask, so no
  pre-filtered list of pushout transfers (``escaping_transfers``,
  ``ModelStructure.cofibrant_pushouts``) is kept under it, and
  ``first_factorization`` is the first of ``factorizations``, not a loop
  of its own.
"""

import ast
from pathlib import Path

import modelcat
from modelcat import fincat, morphclass
from modelcat.modelstruct import ModelStructure

SRC = Path(modelcat.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))

PUBLIC_SEARCHES = {"colimit", "limit"}
DELETED = {
    "pushout", "pullback", "initial_object", "terminal_object",
    "point_from_initial", "point_to_terminal", "fold_map", "diagonal_map",
}


def _references(path: Path):
    """(name, line) for every name the module reads, binds, defines or
    imports, and every attribute it reads."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                reexport = (
                    path.name == "__init__.py"
                    and node.module == "fincat"
                    and alias.name in PUBLIC_SEARCHES
                )
                if not reexport:
                    yield alias.name, node.lineno
                    yield alias.asname, node.lineno


def _offenders(allowed: set[str], names: set[str]) -> list[str]:
    return [
        f"{path.name}:{line} {name}"
        for path in MODULES
        if path.stem not in allowed
        for name, line in _references(path)
        if name in names
    ]


def test_the_source_is_read():
    """The reader sees the searches and caches where they are."""
    assert {path.stem for path in MODULES} >= {"fincat", "morphclass", "modelstruct", "extend"}
    assert _offenders(set(), PUBLIC_SEARCHES)  # fincat itself
    assert _offenders(set(), {"scratch"})
    assert _offenders(set(), {"composable_pairs"})  # fincat itself


def test_only_fincat_searches_for_colimits():
    assert _offenders({"fincat"}, PUBLIC_SEARCHES | DELETED) == []


def test_the_deleted_search_helpers_are_gone():
    assert [name for name in sorted(DELETED) if hasattr(fincat, name)] == []
    assert _offenders(set(), DELETED) == []


def test_the_hypothesis_6_prefilter_is_gone():
    assert not hasattr(morphclass, "escaping_transfers")
    assert not hasattr(ModelStructure, "cofibrant_pushouts")
    assert _offenders(set(), {"escaping_transfers", "cofibrant_pushouts"}) == []
    path = SRC / "morphclass.py"
    first = next(
        node for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "first_factorization"
    )
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(first))


def test_only_fincat_and_morphclass_touch_scratch():
    assert _offenders({"fincat", "morphclass"}, {"scratch"}) == []


def test_only_fincat_catio_and_quillen_walk_the_composable_pairs():
    assert _offenders({"fincat", "catio", "quillen"}, {"composable_pairs"}) == []


def test_modelstruct_and_extend_read_no_hom_sets():
    allowed = {path.stem for path in MODULES} - {"modelstruct", "extend"}
    assert _offenders(allowed, {"hom", "hom_table"}) == []


def test_morphclass_builds_opposites_only_for_the_opposite_class():
    path = SRC / "morphclass.py"
    morphclass = next(
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "MorphClass"
    )
    method = next(
        node for node in morphclass.body
        if isinstance(node, ast.FunctionDef) and node.name == "opposite"
    )
    lines = [line for name, line in _references(path) if name == "opposite"]
    assert method.lineno in lines and len(lines) > 1
    assert [line for line in lines if not method.lineno <= line <= method.end_lineno] == []
