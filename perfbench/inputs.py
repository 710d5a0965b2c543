"""Seeded benchmark inputs and the known answers they are checked against.

Every category is produced as the JSON text of a ``.cat`` file, so the
same data can be parsed in-process or written to disk for ``mcx``.  The
seed only relabels: objects and morphisms get random names and appear in
random order, which permutes the integer ids the library works with.
Every known answer below is invariant under such a relabelling.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "modelcat" / "fixtures"


def chain_structures(n: int) -> int:
    """Model structures on the chain [n] = {0 < 1 < ... < n}: C(2n+1, n)
    (Balchin-Ormsby-Osorno-Roitzheim, Model structures on finite total
    orders).  Taken from the closed form, never from census output."""
    return math.comb(2 * n + 1, n)


# Census counts for the non-chain inputs, pinned by the repository's own
# tests (criterion 6 and the chain2 census pin).
PINNED_STRUCTURES = {"arrow": 3, "chain2": 10, "diamond": 23}

# Theorem 1.2 (kind ll) and 1.7 (kind lm) hypothesis scans over every census
# base: (candidates, passes).  Candidate counts follow from the census by
# counting subsets; pass counts were pinned from the first benchmark run
# on the commit the benchmark was introduced at, and every pass is also
# re-verified as a model structure after the timed phase.  The arrow and
# chain2 lm rows equal the pins in the repository's thm17 scan test.
PINNED_SCAN = {
    ("pt", "ll"): (1, 1),
    ("pt", "lm"): (1, 1),
    ("arrow", "ll"): (12, 4),
    ("arrow", "lm"): (9, 5),
    ("chain2", "ll"): (932, 17),
    ("chain2", "lm"): (373, 29),
    ("diamond", "ll"): (78112, 41),
    ("diamond", "lm"): (11033, 90),
}


def lattice_spec(lengths: tuple[int, ...]) -> dict:
    """The product of chains [l1] x [l2] x ... as a thin category: one
    morphism per pair x < y, and every composite spelled out."""
    elements = list(itertools.product(*(range(n + 1) for n in lengths)))
    name = {e: ".".join(map(str, e)) for e in elements}

    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    arrow = {
        (a, b): f"{name[a]}<{name[b]}"
        for a in elements for b in elements if a != b and leq(a, b)
    }
    compose = [
        [arrow[b, c], arrow[a, b], arrow[a, c]]
        for (a, b) in arrow for (b2, c) in arrow if b2 == b
    ]
    return {
        "objects": [name[e] for e in elements],
        "morphisms": [
            {"name": m, "src": name[a], "tgt": name[b]} for (a, b), m in arrow.items()
        ],
        "compose": compose,
    }


def fixture_spec(filename: str) -> dict:
    return json.loads((FIXTURES / filename).read_text())


def relabel(spec: dict, rng: random.Random) -> dict:
    """Same category under fresh random names, objects, morphisms and
    composition entries listed in random order."""
    objects = list(spec["objects"])
    rng.shuffle(objects)
    obj = {o: f"v{k}_{rng.randrange(10**6)}" for k, o in enumerate(objects)}
    morphisms = list(spec["morphisms"])
    rng.shuffle(morphisms)
    mor = {m["name"]: f"m{k}_{rng.randrange(10**6)}" for k, m in enumerate(morphisms)}
    compose = [[mor[g], mor[f], mor[h]] for g, f, h in spec["compose"]]
    rng.shuffle(compose)
    return {
        "objects": [obj[o] for o in objects],
        "morphisms": [
            {"name": mor[m["name"]], "src": obj[m["src"]], "tgt": obj[m["tgt"]]}
            for m in morphisms
        ],
        "compose": compose,
    }


def census_inputs(rng: random.Random) -> list[tuple[str, str, int]]:
    """(label, category JSON text, known number of model structures)."""
    out = [
        (f"[{n}]", json.dumps(relabel(lattice_spec((n,)), rng)), chain_structures(n))
        for n in range(5)
    ]
    for name in ("chain2", "diamond"):
        spec = relabel(fixture_spec(f"{name}.cat"), rng)
        out.append((name, json.dumps(spec), PINNED_STRUCTURES[name]))
    return out


def scan_inputs(rng: random.Random) -> list[tuple[str, str]]:
    """(fixture name, relabelled category JSON text) for the extension scan.
    The point adds a 37th base structure, so that the median request is
    one base rather than the mean of two unlike ones."""
    return [
        (name, json.dumps(relabel(fixture_spec(f"{name}.cat"), rng)))
        for name in ("pt", "arrow", "chain2", "diamond")
    ]


# Lattices for the CLI batch: chains [3]..[8], products [a]x[b], and the
# Boolean lattices bool3 = [1]^3 and bool4 = [1]^4 (81 morphisms).
CLI_LATTICES = (
    [(f"chain{n}", (n,)) for n in range(3, 9)]
    + [("prod1x2", (1, 2)), ("prod2x2", (2, 2)), ("prod1x3", (1, 3)), ("prod2x3", (2, 3))]
    + [("bool3", (1, 1, 1)), ("bool4", (1, 1, 1, 1))]
)

# Chains whose census the CLI batch requests, small enough to stay cheap.
CLI_CENSUS_CHAINS = (1, 2, 3)


def cli_lattices(rng: random.Random) -> list[tuple[str, dict]]:
    """(label, relabelled spec); the seed also draws the factor order of
    each product, which is one more relabelling of the same lattice."""
    out = []
    for label, lengths in CLI_LATTICES:
        lengths = tuple(rng.sample(lengths, len(lengths)))
        out.append((label, relabel(lattice_spec(lengths), rng)))
    return out
