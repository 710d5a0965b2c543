"""CLI exit-code contract, report payloads, and file round-trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelcat import load_fixture, parse_category, serialize_category
from modelcat.catio import fixture_path, load_adjunction, load_classes, serialize_classes
import modelcat
from modelcat.cli import build_parser, run
from modelcat.morphclass import MorphClass

FIX = {
    name: str(fixture_path(name))
    for name in (
        "pt.cat",
        "arrow.cat",
        "chain2.cat",
        "diamond.cat",
        "retract.cat",
        "bool3.cat",
        "arrow_all.classes",
        "arrow_minimal.classes",
        "diamond_minimal.classes",
        "diamond_identity.adj",
    )
}


def _json_run(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- exit code 0: passing commands --------------------------------------


def test_validate_pass(capsys):
    code, report = _json_run(capsys, ["validate", FIX["diamond.cat"]])
    assert code == 0
    assert report["verdict"] == "pass" and report["payload"]["violations"] == []


def test_bicomplete_pass(capsys):
    code, report = _json_run(capsys, ["bicomplete", FIX["bool3.cat"]])
    assert code == 0 and report["payload"]["missing"] == []


def test_verify_pass(capsys):
    code, report = _json_run(
        capsys, ["verify", FIX["arrow.cat"], FIX["arrow_minimal.classes"]]
    )
    assert code == 0
    assert all(c["passed"] for c in report["payload"].values())


def test_minimal_pass(capsys):
    code, report = _json_run(capsys, ["minimal", FIX["diamond.cat"]])
    assert code == 0
    assert set(report["payload"]["W"]) == {"id_bot", "id_a", "id_b", "id_top"}
    assert len(report["payload"]["C"]) == 9


def test_properness_pass(capsys):
    for side in ("left", "right"):
        code, _ = _json_run(
            capsys,
            ["properness", FIX["diamond.cat"], FIX["diamond_minimal.classes"], "--side", side],
        )
        assert code == 0


def test_classify_pass(capsys, tmp_path):
    cat = load_fixture("arrow.cat")
    ext = tmp_path / "loc.classes"
    ext.write_text(
        serialize_classes(
            W=MorphClass.all_maps(cat),
            C=MorphClass.identities(cat),
            F=MorphClass.all_maps(cat),
        )
    )
    code, report = _json_run(
        capsys,
        ["classify", FIX["arrow.cat"], FIX["arrow_minimal.classes"], str(ext)],
    )
    assert code == 0
    assert report["payload"]["kind"] == "ll"
    assert report["payload"]["proper_W"] is True
    assert report["payload"]["right_bousfield"] is True


def test_classify_rejects_non_structure(capsys):
    code, report = _json_run(
        capsys,
        [
            "classify",
            FIX["arrow.cat"],
            FIX["arrow_minimal.classes"],
            FIX["arrow_all.classes"],
        ],
    )
    # (W, C, F) = (all, all, all) fails the lifting axiom on the arrow
    assert code == 1
    assert "extension" in report["payload"]["reason"]


def test_quillen_pass(capsys):
    base = [
        "quillen",
        "pair",
        FIX["diamond_identity.adj"],
        "--classes-m",
        FIX["diamond_minimal.classes"],
        "--classes-n",
        FIX["diamond_minimal.classes"],
    ]
    assert run(base + ["--format", "json"]) == 0
    capsys.readouterr()
    base[1] = "equivalence"
    assert run(base) == 0
    capsys.readouterr()
    base[1] = "derived-ff"
    code, report = _json_run(
        capsys,
        base
        + [
            "--ext-m",
            FIX["diamond_minimal.classes"],
            "--ext-n",
            FIX["diamond_minimal.classes"],
            "--side",
            "left",
        ],
    )
    assert code == 0 and report["verdict"] == "pass"


def test_census_pass(capsys):
    code, report = _json_run(capsys, ["census", FIX["pt.cat"]])
    assert code == 0
    assert report["payload"]["count"] == 1
    assert report["payload"]["structures"] == [
        {"W": ["id_x"], "C": ["id_x"], "F": ["id_x"]}
    ]


def test_extend_p14_pass(capsys, tmp_path):
    cat = load_fixture("diamond.cat")
    wg = tmp_path / "wg.classes"
    wg.write_text(serialize_classes(Wg=MorphClass.all_maps(cat)))
    code, report = _json_run(
        capsys,
        [
            "extend",
            FIX["diamond.cat"],
            "--theorem",
            "p1.4",
            "--base",
            FIX["diamond_minimal.classes"],
            "--candidate",
            str(wg),
        ],
    )
    assert code == 0
    assert "structure" in report["payload"]


# -- exit code 1: failing with witness ----------------------------------


def test_minimal_fail_missing_limits(capsys):
    code, report = _json_run(capsys, ["minimal", FIX["retract.cat"]])
    assert code == 1
    assert "bicomplete" in report["payload"]["reason"]


def test_minimal_refuses_an_invalid_category(capsys, tmp_path):
    """A file that is not a category is an input error (exit 2) for
    ``minimal`` as for ``bicomplete``, not a failed bicompleteness check."""
    spec = json.loads(Path(FIX["chain2.cat"]).read_text())
    spec["compose"].remove(["g", "f", "gf"])
    broken = tmp_path / "broken.cat"
    broken.write_text(json.dumps(spec))
    assert run(["validate", str(broken)]) == 1
    capsys.readouterr()
    for command in ("minimal", "bicomplete"):
        for fmt in ("text", "json"):
            assert run([command, str(broken), "--format", fmt]) == 2, (command, fmt)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "does not validate" in captured.err


def test_quillen_equivalence_witness_names_objects(capsys, tmp_path):
    """The identity adjunction on the arrow from (isos, all, all) to
    (all, all, ids) is a Quillen pair but not an equivalence; the witness
    names the objects a and x as objects and g and its adjunct as maps."""
    cat = load_fixture("arrow.cat")
    adj = _write_identity_adjunction(tmp_path / "arrow_identity.adj", "arrow.cat")
    m = _write_classes(tmp_path / "m.classes", cat, W="ids", C="all", F="all")
    n = _write_classes(tmp_path / "n.classes", cat, W="all", C="all", F="ids")
    code = run(["quillen", "equivalence", adj, "--classes-m", m, "--classes-n", n])
    assert code == 1
    assert capsys.readouterr().out == (
        "quillen equivalence: fail\n"
        "  passed: False\n"
        "  description: adjunct pair disagrees on weak equivalence\n"
        "  witness:\n"
        "    a: 0\n"
        "    x: 1\n"
        "    g: f\n"
        "    adjunct: f\n"
    )


def _write_galois_connection(tmp_path):
    """S ⊣ T between M = {p < q} and N = {x0 < x1 < x2}: S sends p, q to
    x0, x1 and T sends x0 to p and x1, x2 to q, so the counit at x2 is
    b: x1 → x2.  Returns the adjunction file and the minimal structures
    (W = identities, C = F = all maps) on M and N."""
    specs = {
        "m.cat": {"objects": ["p", "q"], "morphisms": [{"name": "s", "src": "p", "tgt": "q"}]},
        "n.cat": {
            "objects": ["x0", "x1", "x2"],
            "morphisms": [
                {"name": "a", "src": "x0", "tgt": "x1"},
                {"name": "b", "src": "x1", "tgt": "x2"},
                {"name": "ba", "src": "x0", "tgt": "x2"},
            ],
            "compose": [["b", "a", "ba"]],
        },
    }
    cats = {}
    for name, spec in specs.items():
        (tmp_path / name).write_text(json.dumps(spec))
        cats[name] = parse_category(json.dumps(spec))
    S = {"objects": {"p": "x0", "q": "x1"},
         "morphisms": {"id_p": "id_x0", "id_q": "id_x1", "s": "a"}}
    T = {"objects": {"x0": "p", "x1": "q", "x2": "q"},
         "morphisms": {"id_x0": "id_p", "id_x1": "id_q", "id_x2": "id_q",
                       "a": "s", "b": "id_q", "ba": "s"}}
    adj = tmp_path / "mn.adj"
    adj.write_text(json.dumps({
        "source": "m.cat", "target": "n.cat", "left": S, "right": T,
        "unit": {"p": "id_p", "q": "id_q"},
        "counit": {"x0": "id_x0", "x1": "id_x1", "x2": "b"},
    }))
    m = _write_classes(tmp_path / "m.classes", cats["m.cat"], W="ids", C="all", F="all")
    n = _write_classes(tmp_path / "n.classes", cats["n.cat"], W="ids", C="all", F="all")
    return str(adj), m, n


def test_quillen_witnesses_name_each_field_in_its_category(capsys, tmp_path):
    """Between two different lattices a witness names a and g in M, and x,
    the adjunct, and the object and composite of right derived
    full-faithfulness in N."""
    adj, m, n = _write_galois_connection(tmp_path)
    pair = ["--classes-m", m, "--classes-n", n]
    assert run(["quillen", "pair", adj] + pair) == 0
    capsys.readouterr()
    assert run(["quillen", "equivalence", adj] + pair) == 1
    assert capsys.readouterr().out == (
        "quillen equivalence: fail\n"
        "  passed: False\n"
        "  description: adjunct pair disagrees on weak equivalence\n"
        "  witness:\n"
        "    a: q\n"
        "    x: x2\n"
        "    g: id_q\n"
        "    adjunct: b\n"
    )
    ext = ["--ext-m", m, "--ext-n", n]
    code, report = _json_run(capsys, ["quillen", "derived-ff", adj] + pair + ext)
    assert code == 1
    assert report["payload"] == {
        "passed": False,
        "description": "derived counit is not a weak equivalence",
        "witness": {"object": "x2", "composite": "b"},
    }
    code, report = _json_run(
        capsys, ["quillen", "derived-ff", adj] + pair + ext + ["--side", "left"]
    )
    assert (code, report["payload"]["passed"]) == (0, True)


def test_extend_fail_with_named_witness(capsys):
    code, report = _json_run(
        capsys,
        [
            "extend",
            FIX["arrow.cat"],
            "--theorem",
            "1.2",
            "--base",
            FIX["arrow_minimal.classes"],
            "--candidate",
            FIX["arrow_all.classes"],
        ],
    )
    assert code == 1
    hyp7 = report["payload"]["hypotheses"]["7"]
    assert not hyp7["passed"]
    assert hyp7["witness"] == {"i": "f", "p": "f", "top": "id_0", "bottom": "id_1"}


def test_verify_fail(capsys, tmp_path):
    cat = load_fixture("arrow.cat")
    bad = tmp_path / "bad.classes"
    ids = MorphClass.identities(cat)
    bad.write_text(serialize_classes(W=MorphClass.all_maps(cat), C=ids, F=ids))
    code, report = _json_run(capsys, ["verify", FIX["arrow.cat"], str(bad)])
    assert code == 1
    assert not report["payload"]["factor_trivcof_fib"]["passed"]


def test_validate_fail(capsys, tmp_path):
    broken = tmp_path / "broken.cat"
    broken.write_text(
        json.dumps(
            {
                "objects": ["x", "y", "z"],
                "morphisms": [
                    {"name": "f", "src": "x", "tgt": "y"},
                    {"name": "g", "src": "y", "tgt": "z"},
                    {"name": "h", "src": "x", "tgt": "z"},
                ],
                "compose": [],
            }
        )
    )
    code, report = _json_run(capsys, ["validate", str(broken)])
    assert code == 1
    kinds = {v["kind"] for v in report["payload"]["violations"]}
    assert kinds == {"missing-composite"}


def _write_classes(path, cat, **names):
    """A class file whose classes are given by morphism names; ``"all"``
    stands for every morphism and ``"ids"`` for the identities."""
    shorthand = {
        "all": MorphClass.all_maps(cat).names(),
        "ids": MorphClass.identities(cat).names(),
    }
    path.write_text(
        json.dumps({k: list(shorthand[v] if isinstance(v, str) else v)
                    for k, v in names.items()})
    )
    return str(path)


def test_verify_fail_pins_factorization_description(capsys, tmp_path):
    cat = load_fixture("arrow.cat")
    triple = _write_classes(tmp_path / "t.classes", cat, W="ids", C="all", F="ids")
    code, report = _json_run(capsys, ["verify", FIX["arrow.cat"], triple])
    assert code == 1
    assert report["payload"]["factor_trivcof_fib"] == {
        "passed": False,
        "description": "morphism admits no factorization",
        "witness": {"f": "f"},
    }


def _extend(capsys, theorem, category, base, candidate):
    argv = ["extend", category, "--theorem", theorem, "--base", base, "--candidate", candidate]
    return _json_run(capsys, argv)


def test_thm12_pins_hypothesis_8_description(capsys, tmp_path):
    cat = load_fixture("arrow.cat")
    cand = _write_classes(tmp_path / "c.classes", cat, W="ids", C="all", F="ids")
    code, report = _extend(capsys, "1.2", FIX["arrow.cat"], FIX["arrow_minimal.classes"], cand)
    assert code == 1
    assert report["payload"]["hypotheses"]["8"] == {
        "passed": False,
        "description": "no (C_g∩W_g, F_g) factorization",
        "witness": {"f": "f"},
    }


def test_thm17_pins_hypothesis_5_description(capsys, tmp_path):
    cat = load_fixture("arrow.cat")
    cand = _write_classes(tmp_path / "c.classes", cat, W="ids", C="ids", F="all")
    code, report = _extend(capsys, "1.7", FIX["arrow.cat"], FIX["arrow_minimal.classes"], cand)
    assert code == 1
    assert report["payload"]["hypotheses"]["5"] == {
        "passed": False,
        "description": "no (C_g, F_g∩W_g) factorization",
        "witness": {"f": "f"},
    }


def test_thm12_pins_pushout_closure_message(capsys, tmp_path):
    cat = load_fixture("arrow.cat")
    cand = _write_classes(tmp_path / "c.classes", cat, W="all", C=["id_0", "f"], F="all")
    code, report = _extend(capsys, "1.2", FIX["arrow.cat"], FIX["arrow_minimal.classes"], cand)
    assert code == 1
    assert report["payload"]["hypotheses"]["3"] == {
        "passed": False,
        "description": "not closed under pushouts",
        "witness": {"f": "id_0", "along": "f", "transfer": "id_1"},
    }


def test_thm17_pins_pullback_closure_message(capsys, tmp_path):
    cat = load_fixture("diamond.cat")
    base = _write_classes(tmp_path / "b.classes", cat, W="all", C="all", F="ids")
    ids = list(MorphClass.identities(cat).names())
    cand = _write_classes(tmp_path / "c.classes", cat, W="all", C="all", F=ids + ["a_top"])
    code, report = _extend(capsys, "1.7", FIX["diamond.cat"], base, cand)
    assert code == 1
    assert report["payload"]["hypotheses"]["3"] == {
        "passed": False,
        "description": "not closed under pullbacks",
        "witness": {"f": "a_top", "along": "b_top", "transfer": "bot_b"},
    }


def test_properness_fail_pins_message(capsys, tmp_path):
    cat = load_fixture("diamond.cat")
    ids = list(MorphClass.identities(cat).names())
    rest = ["bot_b", "a_top", "b_top", "bot_top"]
    triple = _write_classes(
        tmp_path / "t.classes", cat, W=ids + ["bot_a"], C=ids + rest, F="all"
    )
    code, report = _json_run(
        capsys, ["properness", FIX["diamond.cat"], triple, "--side", "left"]
    )
    assert code == 1
    assert report["payload"] == {
        "passed": False,
        "description": "not left proper",
        "witness": {"f": "bot_a", "along": "bot_b", "transfer": "b_top"},
    }


# -- exit code 2: input and usage errors --------------------------------


def _write_identity_adjunction(path, fixture):
    """An adjunction file for the identity adjunction on a fixture."""
    cat = load_fixture(fixture)
    identity = {
        "objects": {o: o for o in cat.objects},
        "morphisms": {m.name: m.name for m in cat.morphisms},
    }
    ids = {o: cat.name(cat.identities[x]) for x, o in enumerate(cat.objects)}
    path.write_text(json.dumps({
        "source": FIX[fixture], "target": FIX[fixture],
        "left": identity, "right": identity, "unit": ids, "counit": ids,
    }))
    return str(path)


def _retract_requests(tmp_path):
    """Every structure command on the non-bicomplete retract category with
    W = identities and C = F = all maps, which passes every axiom check."""
    cat = load_fixture("retract.cat")
    triple = _write_classes(tmp_path / "ids_all.classes", cat, W="ids", C="all", F="all")
    wg = _write_classes(tmp_path / "wg.classes", cat, Wg="all")
    adj = _write_identity_adjunction(tmp_path / "retract_identity.adj", "retract.cat")
    retract = FIX["retract.cat"]
    pair = ["--classes-m", triple, "--classes-n", triple]
    requests = [["verify", retract, triple], ["classify", retract, triple, triple]]
    requests += [["properness", retract, triple, "--side", side] for side in ("left", "right")]
    requests += [
        ["extend", retract, "--theorem", t, "--base", triple, "--candidate", triple]
        for t in ("1.2", "1.5", "1.7")
    ]
    requests.append(["extend", retract, "--theorem", "p1.4", "--base", triple, "--candidate", wg])
    requests += [["quillen", check, adj] + pair for check in ("pair", "equivalence")]
    requests.append(["quillen", "derived-ff", adj] + pair + ["--ext-m", triple, "--ext-n", triple])
    return requests


def test_structure_commands_refuse_a_non_bicomplete_category(capsys, tmp_path):
    """No structure command prints "pass" on a category without the finite
    limits and colimits the axioms are stated for; each is an input error."""
    for argv in _retract_requests(tmp_path):
        for fmt in ("text", "json"):
            assert run(argv + ["--format", fmt]) == 2, argv
            captured = capsys.readouterr()
            assert "pass" not in captured.out, argv
            assert "finitely bicomplete" in captured.err, argv


def test_parser_built_once_answers_like_a_fresh_process(capsys):
    """The parser is built once per process; a JSON call, a text call, a
    usage error and a valid call after it each give the output and exit
    code of a fresh ``mcx`` process."""
    env = {**os.environ, "PYTHONPATH": str(Path(modelcat.__file__).parents[1])}
    calls = [
        ["verify", FIX["arrow.cat"], FIX["arrow_minimal.classes"], "--format", "json"],
        ["verify", FIX["arrow.cat"], FIX["arrow_all.classes"]],
        ["verify", FIX["arrow.cat"], "--format", "yaml"],
        ["minimal", FIX["diamond.cat"]],
    ]
    for argv in calls:
        code = run(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "modelcat.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
    assert build_parser() is build_parser()


def test_missing_limit_exits_2(capsys, tmp_path):
    """Thm 1.2 on the non-bicomplete retract category needs a coproduct
    that does not exist: a usage error, not a crash."""
    cat = load_fixture("retract.cat")
    isos = list(MorphClass.isos(cat).names())
    base = _write_classes(tmp_path / "b.classes", cat, W=isos, C="all", F="all")
    cand = _write_classes(tmp_path / "c.classes", cat, W="all", C="all", F="ids")
    assert run(["extend", FIX["retract.cat"], "--theorem", "1.2",
                "--base", base, "--candidate", cand]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


ARROW = {
    "objects": ["0", "1"],
    "morphisms": [{"name": "f", "src": "0", "tgt": "1"}],
    "identities": {"0": "id_0"},
    "compose": [["id_1", "f", "f"]],
}


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d["morphisms"][0].update(name=["f"]), "'name'"),
        (lambda d: d["morphisms"][0].update(src=0), "'src'"),
        (lambda d: d["morphisms"][0].update(tgt=None), "'tgt'"),
        (lambda d: d["identities"].update({"0": {}}), "'identities'"),
        (lambda d: d["compose"][0].__setitem__(1, []), "compose"),
        (lambda d: d.update(morphisms=5), "'morphisms'"),
        (lambda d: d.update(compose=5), "'compose'"),
    ],
    ids=["name", "src", "tgt", "identities", "compose", "morphisms-list", "compose-list"],
)
def test_ill_typed_category_field(capsys, tmp_path, mutate, field):
    data = json.loads(json.dumps(ARROW))
    mutate(data)
    path = tmp_path / "typed.cat"
    path.write_text(json.dumps(data))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_ill_typed_class_member(capsys, tmp_path):
    path = tmp_path / "typed.classes"
    path.write_text(json.dumps({"W": [["id_0"]], "C": ["id_0"], "F": ["id_0"]}))
    assert run(["verify", FIX["arrow.cat"], str(path)]) == 2
    err = capsys.readouterr().err
    assert "class 'W' must be a list of morphism names" in err


def _string_paths(value, path=()):
    """Paths to every string leaf of a JSON value (dict keys excluded)."""
    if isinstance(value, str):
        yield path
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _string_paths(v, path + (k,))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _string_paths(v, path + (k,))


CATEGORY_JSON = {
    name: json.loads(Path(FIX[name]).read_text())
    for name in FIX
    if name.endswith(".cat")
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(CATEGORY_JSON)),
    pick=st.integers(min_value=0),
    replacement=st.sampled_from([[], 0, None, {}]),
)
def test_validate_exit_contract_under_type_mutation(name, pick, replacement):
    """Replacing any one string of a category file by a non-string gives
    an exit code of the 0/1/2 contract, never an uncaught exception."""
    data = json.loads(json.dumps(CATEGORY_JSON[name]))
    paths = list(_string_paths(data))
    *parents, last = paths[pick % len(paths)]
    node = data
    for key in parents:
        node = node[key]
    node[last] = replacement
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(["validate", str(path)])
    assert code in (0, 1, 2)


def test_unknown_subcommand(capsys):
    assert run(["frobnicate", FIX["pt.cat"]]) == 2
    capsys.readouterr()


def test_no_arguments(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_bad_json_input(capsys, tmp_path):
    mangled = tmp_path / "mangled.cat"
    mangled.write_text("{not json")
    assert run(["validate", str(mangled)]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_file(capsys, tmp_path):
    assert run(["validate", str(tmp_path / "nope.cat")]) == 2
    capsys.readouterr()


def test_missing_class_key(capsys, tmp_path):
    partial = tmp_path / "partial.classes"
    partial.write_text(json.dumps({"W": ["id_0", "id_1"]}))
    assert run(["verify", FIX["arrow.cat"], str(partial)]) == 2
    capsys.readouterr()


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("MCX_BUDGET", "2")
    assert run(["census", FIX["arrow.cat"], "--mode", "naive"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("MCX_BUDGET", "many")
    assert run(["census", FIX["arrow.cat"]]) == 2
    capsys.readouterr()


def test_text_format_smoke(capsys):
    assert run(["minimal", FIX["arrow.cat"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("minimal: pass")


# -- round trips --------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["pt.cat", "arrow.cat", "chain2.cat", "diamond.cat", "retract.cat", "bool3.cat"]
)
def test_category_round_trip(name):
    cat = load_fixture(name)
    again = parse_category(serialize_category(cat))
    assert again == cat
    assert serialize_category(again) == serialize_category(cat)


def test_classes_round_trip(tmp_path):
    cat = load_fixture("diamond.cat")
    classes = load_classes(FIX["diamond_minimal.classes"], cat)
    text = serialize_classes(**classes)
    path = tmp_path / "again.classes"
    path.write_text(text)
    again = load_classes(path, cat)
    assert {k: v.members for k, v in again.items()} == {
        k: v.members for k, v in classes.items()
    }


def test_identity_adjunction_reads_its_category_once(capsys, tmp_path):
    """An adjunction whose source and target resolve to one file reads it
    once, so both functors share one FinCat and its cached tables; every
    ``mcx quillen`` check prints what it prints, byte for byte, when the
    target is a separate copy of the file."""
    shared = load_adjunction(FIX["diamond_identity.adj"])
    assert shared.S.source is shared.S.target is shared.T.source is shared.T.target
    spec = json.loads(Path(FIX["diamond_identity.adj"]).read_text())
    text = Path(FIX["diamond.cat"]).read_text()
    (tmp_path / "diamond.cat").write_text(text)
    (tmp_path / "copy.cat").write_text(text)
    same, copy = tmp_path / "same.adj", tmp_path / "copy.adj"
    same.write_text(json.dumps({**spec, "source": "diamond.cat", "target": "./diamond.cat"}))
    copy.write_text(json.dumps({**spec, "source": "diamond.cat", "target": "copy.cat"}))
    adj = load_adjunction(same)
    assert adj.S.source is adj.S.target
    adj = load_adjunction(copy)
    assert adj.S.source is not adj.S.target and adj.S.source == adj.S.target

    cat = load_fixture("diamond.cat")
    minimal = FIX["diamond_minimal.classes"]
    triv_f = _write_classes(tmp_path / "trivf.classes", cat, W="all", C="all", F="ids")
    outputs = {}
    for path in (same, copy):
        runs = []
        for m, n in ((minimal, minimal), (triv_f, minimal), (minimal, triv_f)):
            pair = ["--classes-m", m, "--classes-n", n]
            for argv in (
                ["quillen", "pair", str(path)] + pair,
                ["quillen", "equivalence", str(path)] + pair,
                ["quillen", "derived-ff", str(path)] + pair
                + ["--ext-m", triv_f, "--ext-n", triv_f, "--side", "left"],
            ):
                for fmt in ("text", "json"):
                    code = run(argv + ["--format", fmt])
                    captured = capsys.readouterr()
                    runs.append((code, captured.out, captured.err))
        outputs[path] = runs
    assert outputs[same] == outputs[copy]
    assert {0, 1} <= {code for code, _, _ in outputs[same]}
