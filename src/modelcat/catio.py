"""Parsing and serialization of category, class and adjunction files.

All formats are JSON.  Category files list objects, non-identity
morphisms, an optional identity-name map and the non-inferable
composition entries; class files name morphisms of an accompanying
category file.  Parse errors raise :class:`InputError` with enough
context to locate the offending field.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .fincat import FinCat, InputError, build_category
from .morphclass import MorphClass
from .quillen import Adjunction, Functor


def _load_json(text: str, what: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{what}: not valid JSON ({e})") from e
    if not isinstance(data, dict):
        raise InputError(f"{what}: top level must be an object")
    return data


def parse_category(text: str) -> FinCat:
    data = _load_json(text, "category file")
    if "objects" not in data or "morphisms" not in data:
        raise InputError("category file needs 'objects' and 'morphisms'")
    objects = data["objects"]
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise InputError("'objects' must be a list of names")
    if not isinstance(data["morphisms"], list):
        raise InputError("'morphisms' must be a list")
    morphisms = []
    for k, m in enumerate(data["morphisms"]):
        if not isinstance(m, dict) or not {"name", "src", "tgt"} <= m.keys():
            raise InputError(f"morphism #{k} needs 'name', 'src' and 'tgt'")
        for key in ("name", "src", "tgt"):
            if not isinstance(m[key], str):
                raise InputError(f"morphism #{k}: {key!r} must be a string")
        morphisms.append((m["name"], m["src"], m["tgt"]))
    identities = data.get("identities", {})
    if not isinstance(identities, dict):
        raise InputError("'identities' must be an object→name map")
    for o, name in identities.items():
        if o not in objects:
            raise InputError(f"identity entry for unknown object {o!r}")
        if not isinstance(name, str):
            raise InputError(f"'identities' entry for {o!r} must be a string")
    if not isinstance(data.get("compose", []), list):
        raise InputError("'compose' must be a list of [g, f, gf] entries")
    compositions = {}
    for k, entry in enumerate(data.get("compose", [])):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InputError(f"compose entry #{k} must be [g, f, gf]")
        if not all(isinstance(name, str) for name in entry):
            raise InputError(f"compose entry #{k}: [g, f, gf] must be strings")
        g, f, h = entry
        if (g, f) in compositions:
            raise InputError(f"duplicate compose entry for ({g}, {f})")
        compositions[(g, f)] = h
    return build_category(objects, morphisms, compositions, identities)


def serialize_category(cat: FinCat) -> str:
    ids = cat.identity_set
    data = {
        "objects": list(cat.objects),
        "morphisms": [
            {"name": m.name, "src": cat.objects[m.src], "tgt": cat.objects[m.tgt]}
            for f, m in enumerate(cat.morphisms)
            if f not in ids
        ],
        "identities": {
            cat.objects[x]: cat.name(i) for x, i in enumerate(cat.identities)
        },
        "compose": [
            [cat.name(g), cat.name(f), cat.name(gf)]
            for f, g, gf in cat.composable_pairs
            if f not in ids and g not in ids
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def class_from_names(cat: FinCat, names: list[str]) -> MorphClass:
    index = {m.name: i for i, m in enumerate(cat.morphisms)}
    members = set()
    for n in names:
        if n not in index:
            raise InputError(f"class names unknown morphism {n!r}")
        members.add(index[n])
    return MorphClass.of(cat, members)


def parse_classes(text: str, cat: FinCat) -> dict[str, MorphClass]:
    """Every key of the file becomes a MorphClass (W/C/F usually, but
    variation engines read extra keys such as 'Wprime')."""
    data = _load_json(text, "class file")
    out = {}
    for key, names in data.items():
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise InputError(f"class {key!r} must be a list of morphism names")
        out[key] = class_from_names(cat, names)
    return out


def serialize_classes(**classes: MorphClass) -> str:
    return json.dumps({k: list(v.names()) for k, v in classes.items()}, indent=2) + "\n"


def parse_adjunction(text: str, base_dir: Path) -> Adjunction:
    """Adjunction file: paths to the two category files plus object and
    morphism maps for both functors and unit/counit component lists."""
    data = _load_json(text, "adjunction file")
    for key in ("source", "target", "left", "right", "unit", "counit"):
        if key not in data:
            raise InputError(f"adjunction file misses {key!r}")
    src_path, tgt_path = base_dir / data["source"], base_dir / data["target"]
    src = load_category(src_path)
    # one category file read once: both functors then share its FinCat
    # and every table cached on it
    tgt = src if src_path.resolve() == tgt_path.resolve() else load_category(tgt_path)

    def functor(spec: dict, a: FinCat, b: FinCat, tag: str) -> Functor:
        if not isinstance(spec, dict) or not {"objects", "morphisms"} <= spec.keys():
            raise InputError(f"functor {tag!r} needs 'objects' and 'morphisms' maps")
        obj_index = {o: i for i, o in enumerate(b.objects)}
        mor_index = {m.name: i for i, m in enumerate(b.morphisms)}
        try:
            obj_map = tuple(obj_index[spec["objects"][o]] for o in a.objects)
            mor_map = tuple(mor_index[spec["morphisms"][m.name]] for m in a.morphisms)
        except KeyError as e:
            raise InputError(f"functor {tag!r}: missing or unknown entry {e}") from e
        return Functor(a, b, obj_map, mor_map)

    S = functor(data["left"], src, tgt, "left")
    T = functor(data["right"], tgt, src, "right")
    mor_src = {m.name: i for i, m in enumerate(src.morphisms)}
    mor_tgt = {m.name: i for i, m in enumerate(tgt.morphisms)}
    try:
        unit = tuple(mor_src[data["unit"][o]] for o in src.objects)
        counit = tuple(mor_tgt[data["counit"][o]] for o in tgt.objects)
    except KeyError as e:
        raise InputError(f"unit/counit: missing or unknown entry {e}") from e
    adj = Adjunction(S, T, unit, counit)
    if adj.issues:
        raise InputError(f"adjunction invalid: {adj.issues[0]}")
    return adj


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def load_category(path: str | Path) -> FinCat:
    return parse_category(_read(Path(path)))


def load_classes(path: str | Path, cat: FinCat) -> dict[str, MorphClass]:
    return parse_classes(_read(Path(path)), cat)


def load_adjunction(path: str | Path) -> Adjunction:
    path = Path(path)
    return parse_adjunction(_read(path), path.parent)


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file (pt.cat, diamond.cat, ...)."""
    return Path(str(resources.files("modelcat") / "fixtures" / name))


def load_fixture(name: str) -> FinCat:
    return load_category(fixture_path(name))
