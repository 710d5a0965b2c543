"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``: ``rounds``
holds several request lists, each over its own random relabelling of the
same categories, and pass ``i`` of the closed loop sends the requests of
round ``i mod len(rounds)`` one after another.  Every round asks the same
questions, so every known answer holds on every pass, while a run
averages over several relabellings instead of depending on one.

``call`` returns an :class:`Outcome` whose verdicts have already been
compared with a known answer; ``end_pass`` and ``final_check`` add the
checks that need a whole pass or run after the timed phase.  None of
these checks relies on an ``assert`` inside the package, so they hold
under ``python -O`` too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import random
import shutil
from collections import Counter
from pathlib import Path

# Layer functions are looked up on their modules at call time, so the
# tracer's wrappers see every call the benchmark makes.
from modelcat import catio, census, cli, extend, fincat, modelstruct, morphclass

import inputs


@dataclasses.dataclass
class Outcome:
    verdicts: int  # answers compared with a known answer
    wrong: int  # of those, how many disagreed
    structures: int  # model structures the request established
    candidates: int  # candidate triples or structure pairs it ruled on


def _subsets(pool):
    pool = sorted(pool)
    for r in range(len(pool) + 1):
        yield from (frozenset(c) for c in itertools.combinations(pool, r))


def _reverify(cat, W, C, F) -> bool:
    return modelstruct.verify_model_structure(cat, W, C, F).passed


class Workload:
    """Defaults for the checks and clean-up a workload does not need."""

    rounds: list[list]

    def materialize(self) -> None:
        """Untimed step after the last set-up: write what set-up built."""

    def end_pass(self) -> tuple[int, int]:
        """(verdicts, wrong) checked once a pass is complete."""
        return 0, 0

    def final_check(self) -> tuple[int, int]:
        """(verdicts, wrong) checked after the timed phase."""
        return 0, 0

    def close(self) -> None:
        pass


class CensusWorkload(Workload):
    """Pruned census plus extension graph, one request per category."""

    name = "census"
    ROUNDS = 6

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.rounds = [
            [
                (label, catio.parse_category(text), expected)
                for label, text, expected in inputs.census_inputs(rng)
            ]
            for _ in range(self.ROUNDS)
        ]
        # first census of each input category; later passes must match it
        self.first = {}

    def call(self, request) -> Outcome:
        label, cat, expected = request
        # a field-for-field copy starts with an empty cache, as `mcx census` does
        result = census.enumerate_model_structures(dataclasses.replace(cat), "pruned")
        graph = census.extension_graph(result)
        n = len(result.structures)
        triples = result.triples()
        first = self.first.setdefault(id(cat), (result, triples))[1]
        wrong = (n != expected or len(triples) != n or triples != first)
        wrong += not _ll_reaches_all(graph)
        return Outcome(2, wrong, n, n * (n - 1))

    def final_check(self) -> tuple[int, int]:
        checked = [
            _reverify(ms.cat, ms.W, ms.C, ms.F)
            for result, _ in self.first.values()
            for ms in result.structures
        ]
        return len(checked), checked.count(False)


def _ll_reaches_all(graph) -> bool:
    """The minimal structure (W = isos, C = F = all) has an ll edge to
    every other census structure."""
    nodes = graph.nodes
    cat = graph.census.cat
    everything = frozenset(range(len(cat.morphisms)))
    minimal = [
        i for i, ms in enumerate(nodes)
        if ms.triple() == (cat.iso_set, everything, everything)
    ]
    if len(minimal) != 1:
        return False
    reached = {j for i, j, kind in graph.edges if i == minimal[0] and kind.kind == "ll"}
    return reached == set(range(len(nodes))) - {minimal[0]}


class ExtendScanWorkload(Workload):
    """Every Thm 1.2 (ll) and Thm 1.7 (lm) candidate over each census base,
    checked with ``stop_at_first`` against warm per-category tables.  One
    request decides every candidate over one base structure."""

    name = "extend-scan"
    ROUNDS = 3

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.rounds = [self._round(rng) for _ in range(self.ROUNDS)]
        self.candidates = Counter(
            (label, cand.kind) for label, candidates in self.rounds[0] for cand in candidates
        )
        self.passes = Counter()
        self.passing = {}

    @staticmethod
    def _round(rng: random.Random) -> list:
        requests = []
        for label, text in inputs.scan_inputs(rng):
            cat = catio.parse_category(text)
            bases = census.enumerate_model_structures(cat, "pruned").structures
            _warm_tables(cat)
            classes = {}

            def cls(members):
                if members not in classes:
                    classes[members] = morphclass.MorphClass(cat, members)
                return classes[members]

            everything = frozenset(range(len(cat.morphisms)))
            ids = cat.identity_set
            for base in bases:
                W, C, F = base.triple()
                candidates = []
                for wx, cx in itertools.product(_subsets(everything - W), _subsets(C - ids)):
                    W_g, C_g = cls(W | wx), cls(ids | cx)
                    candidates += [
                        extend.ExtensionCandidate(base, W_g, C_g, cls(ids | fx))
                        for fx in _subsets(F - ids)
                    ]
                    candidates += [
                        extend.ExtensionCandidate(base, W_g, C_g, cls(F | fx), kind="lm")
                        for fx in _subsets(everything - F)
                    ]
                requests.append((label, candidates))
        return requests

    def call(self, request) -> Outcome:
        label, candidates = request
        passed = 0
        for cand in candidates:
            check = extend.check_thm12 if cand.kind == "ll" else extend.check_thm17
            if check(cand, stop_at_first=True).passed:
                passed += 1
                self.passes[label, cand.kind] += 1
                self.passing[id(cand)] = cand
        return Outcome(len(candidates), 0, passed, len(candidates))

    def end_pass(self) -> tuple[int, int]:
        """Candidate and pass counts per (category, kind) against the pins;
        a count that is off by k means at least k wrong verdicts."""
        wrong = sum(
            abs(self.candidates[key] - candidates) + abs(self.passes[key] - passes)
            for key, (candidates, passes) in inputs.PINNED_SCAN.items()
        )
        self.passes = Counter()
        return 0, wrong

    def final_check(self) -> tuple[int, int]:
        checked = [
            _reverify(c.base.cat, c.W_g, c.C_g, c.F_g) for c in self.passing.values()
        ]
        return len(checked), checked.count(False)


def _warm_tables(cat) -> None:
    morphclass.unliftable_pairs(cat)
    morphclass.retract_pairs(cat)
    morphclass.pushout_transfers(cat)
    morphclass.pullback_transfers(cat)
    for f in range(len(cat.morphisms)):
        morphclass.factor_pairs(cat, f)


class CliBatchWorkload(Workload):
    """Seeded ``mcx`` requests; every request re-reads its files, so every
    request starts with cold per-category caches."""

    name = "cli-batch"
    ROUNDS = 2

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        """Builds the requests and the text of every input file in memory,
        and parses and validates every generated category through the
        library.  Writing the files is left to ``materialize``: creating
        many small files is slow, and its speed drifts with the host's
        file system, not with the code under test."""
        rng = random.Random(seed)
        self.files: dict[Path, str] = {}
        self.rounds = []
        for k in range(self.ROUNDS):
            self.directory = self.workdir / f"round{k}"
            requests = []
            for label, spec in inputs.cli_lattices(rng):
                requests += self._lattice_requests(label, spec)
            for n in inputs.CLI_CENSUS_CHAINS:
                spec = inputs.relabel(inputs.lattice_spec((n,)), rng)
                path = self._add_file(f"census{n}.cat", spec)
                requests.append(
                    (["census", path, "--format", "json"], 0, inputs.chain_structures(n))
                )
            broken = self._add_file("malformed.cat", None)
            requests.append((["validate", broken], 2, None))
            rng.shuffle(requests)
            self.rounds.append(requests)
        # every generated category must parse and validate before it is used
        for path, text in self.files.items():
            if path.suffix == ".cat" and path.name != "malformed.cat":
                if not fincat.validate_category(catio.parse_category(text)).ok:
                    raise RuntimeError(f"generated input {path.name} is not a category")

    def materialize(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def _add_file(self, filename: str, data) -> str:
        path = self.directory / filename
        if data is None:  # truncated JSON
            self.files[path] = '{"objects": ["a", "b"], "morphisms": ['
        else:
            self.files[path] = json.dumps(data)
        return str(path)

    def _lattice_requests(self, label: str, spec: dict) -> list:
        """Requests whose exit codes follow from the theory on any lattice
        that is not discrete (all of ours have a least and a greatest
        element and at least two objects)."""
        cat = self._add_file(f"{label}.cat", spec)
        ids = [f"id_{o}" for o in spec["objects"]]
        everything = ids + [m["name"] for m in spec["morphisms"]]
        # in a poset the isomorphisms are the identities
        minimal = self._add_file(f"{label}.min.classes", {"W": ids, "C": everything, "F": everything})
        triv_f = self._add_file(f"{label}.trivf.classes", {"W": everything, "C": everything, "F": ids})
        triv_c = self._add_file(f"{label}.trivc.classes", {"W": everything, "C": ids, "F": everything})
        bad = self._add_file(f"{label}.bad.classes", {"W": ids, "C": everything, "F": ids})
        p14 = self._add_file(f"{label}.p14.classes", {"Wg": everything, "Wprime": everything})
        identity = {"objects": {o: o for o in spec["objects"]}, "morphisms": {m: m for m in everything}}
        adj = self._add_file(
            f"{label}.adj",
            {
                "source": f"{label}.cat", "target": f"{label}.cat",
                "left": identity, "right": identity,
                "unit": {o: f"id_{o}" for o in spec["objects"]},
                "counit": {o: f"id_{o}" for o in spec["objects"]},
            },
        )
        quillen = ["quillen"]

        def pair_of(m, n):
            return ["--classes-m", m, "--classes-n", n]

        return [
            (["validate", cat], 0, None),
            (["bicomplete", cat], 0, None),
            (["minimal", cat], 0, None),
            (["verify", cat, minimal], 0, None),
            (["verify", cat, triv_f], 0, None),
            (["verify", cat, triv_c], 0, None),
            (["verify", cat, bad], 1, None),  # (isos, all, isos) cannot factor a non-iso
            (["extend", cat, "--theorem", "1.2", "--base", minimal, "--candidate", triv_f], 0, None),
            (["extend", cat, "--theorem", "1.5", "--base", minimal, "--candidate", triv_c], 0, None),
            (["extend", cat, "--theorem", "1.7", "--base", minimal, "--candidate", triv_c], 0, None),
            (["extend", cat, "--theorem", "p1.4", "--base", minimal, "--candidate", p14], 0, None),
            (["properness", cat, minimal, "--side", "left"], 0, None),
            (["properness", cat, triv_f, "--side", "right"], 0, None),
            (["classify", cat, minimal, triv_f, "--format", "json"], 0, "ll"),
            (quillen + ["pair", adj] + pair_of(minimal, minimal), 0, None),
            # the identity does not carry all maps into the isomorphisms
            (quillen + ["pair", adj] + pair_of(triv_f, minimal), 1, None),
            (quillen + ["equivalence", adj] + pair_of(minimal, minimal), 0, None),
            # Ho(M) is the lattice, Ho(N) is a point
            (quillen + ["equivalence", adj] + pair_of(minimal, triv_f), 1, None),
            (quillen + ["derived-ff", adj] + pair_of(minimal, minimal)
             + ["--ext-m", triv_f, "--ext-n", triv_f, "--side", "right"], 0, None),
            # the extension shrinks the fibrant objects of N to the top
            (quillen + ["derived-ff", adj] + pair_of(minimal, minimal)
             + ["--ext-m", triv_f, "--ext-n", triv_f, "--side", "left"], 1, None),
        ]

    def call(self, request) -> Outcome:
        argv, expected_code, expected_payload = request
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        wrong = code != expected_code
        structures = int(code == 0 and argv[0] in ("minimal", "verify"))
        if argv[0] == "census":
            count = json.loads(out.getvalue())["payload"]["count"]
            wrong = wrong or count != expected_payload
            structures = count
        elif argv[0] == "classify":
            wrong = wrong or json.loads(out.getvalue())["payload"]["kind"] != expected_payload
        rules_on_triple = argv[0] in ("verify", "extend", "properness", "classify", "quillen")
        return Outcome(1, int(wrong), structures, int(rules_on_triple))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
