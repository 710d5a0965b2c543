"""Command-line surface: mcx <subcommand> with JSON or text reports.

Exit codes: 0 = pass, 1 = fail with witness, 2 = input/usage error.
Witnesses are rendered with the user-supplied morphism and object names,
each from the category the witness field lives in.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .fincat import (
    FinCat,
    InputError,
    MissingLimitError,
    is_finitely_bicomplete,
    validate_category,
)
from .morphclass import CheckResult, MorphClass
from .modelstruct import ModelStructure, minimal_model_structure
from .extend import (
    ExtensionCandidate,
    HypothesisError,
    check_properness,
    check_thm12,
    check_thm15,
    check_thm17,
    classify_extension,
    prop14_build,
)
from .quillen import derived_fullfaithful_check, is_quillen_equivalence, is_quillen_pair
from .census import BudgetExceeded, enumerate_model_structures
from .catio import load_adjunction, load_category, load_classes

PASS, FAIL, USAGE = 0, 1, 2


# witness keys that name objects; every other key names a morphism
_OBJECT_KEYS = frozenset({"object", "a", "x"})


def _witness_name(cat: FinCat, key: str, value: int):
    """A witness index as the user-supplied name of an object or a
    morphism of ``cat``; an index out of range stays as it is."""
    if key in _OBJECT_KEYS:
        return cat.objects[value] if 0 <= value < len(cat.objects) else value
    return cat.name(value) if 0 <= value < len(cat.morphisms) else value


def _check_payload(cat: FinCat, check: CheckResult, elsewhere: dict | None = None) -> dict:
    """The verdict, description and named witness of ``check``; a witness
    key in ``elsewhere`` is named in the category it maps to, every other
    key in ``cat``."""
    payload = {"passed": check.passed, "description": check.description}
    if check.witness:
        where = elsewhere or {}
        payload["witness"] = {
            k: _witness_name(where.get(k, cat), k, v) for k, v in check.witness.items()
        }
    return payload


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, default=str))
    else:
        print(f"{report['command']}: {report['verdict']}")
        for line in _text_lines(report.get("payload", {}), indent="  "):
            print(line)


def _text_lines(value, indent=""):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                yield f"{indent}{k}:"
                yield from _text_lines(v, indent + "  ")
            else:
                yield f"{indent}{k}: {v}"
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                yield from _text_lines(v, indent + "  ")
            else:
                yield f"{indent}- {v}"


def _classes_payload(W: MorphClass, C: MorphClass, F: MorphClass) -> dict:
    return {"W": list(W.names()), "C": list(C.names()), "F": list(F.names())}


def _require_wcf(classes: dict, path: str) -> tuple:
    for key in ("W", "C", "F"):
        if key not in classes:
            raise InputError(f"{path}: class file needs a {key!r} entry")
    return classes["W"], classes["C"], classes["F"]


def _build_verified(cat, classes, path) -> ModelStructure:
    """The triple of a class file, verified; :meth:`ModelStructure.build`
    refuses a category that is not valid and finitely bicomplete, where no
    verdict on the axioms means anything."""
    return ModelStructure.build(cat, *_require_wcf(classes, path))


# -- subcommand handlers ------------------------------------------------


def cmd_validate(args, fmt) -> int:
    cat = load_category(args.category)
    report = validate_category(cat)
    payload = {
        "violations": [
            {"kind": v.kind, "message": v.message} for v in report.violations
        ]
    }
    return _finish("validate", report.ok, payload, fmt)


def cmd_bicomplete(args, fmt) -> int:
    cat = load_category(args.category)
    if not validate_category(cat).ok:  # the (co)limit searches assume a category
        raise InputError("category does not validate; run `mcx validate` first")
    report = is_finitely_bicomplete(cat)
    payload = {"missing": [list(map(str, m)) for m in report.missing]}
    return _finish("bicomplete", report.ok, payload, fmt)


def cmd_verify(args, fmt) -> int:
    cat = load_category(args.category)
    ms = _build_verified(cat, load_classes(args.classes, cat), args.classes)
    payload = {
        name: _check_payload(cat, check) for name, check in ms.report.checks.items()
    }
    return _finish("verify", ms.verified, payload, fmt)


def cmd_minimal(args, fmt) -> int:
    cat = load_category(args.category)
    try:
        ms = minimal_model_structure(cat)
    except MissingLimitError as e:
        return _finish("minimal", False, {"reason": str(e)}, fmt)
    return _finish("minimal", True, _classes_payload(ms.W, ms.C, ms.F), fmt)


def cmd_extend(args, fmt) -> int:
    cat = load_category(args.category)
    base = _build_verified(cat, load_classes(args.base, cat), args.base)
    if not base.verified:
        raise InputError("base classes do not form a model structure")
    cand_classes = load_classes(args.candidate, cat)

    if args.theorem == "p1.4":
        if "Wg" not in cand_classes:
            raise InputError("p1.4 candidate file needs a 'Wg' entry")
        W_g = cand_classes["Wg"]
        W_prime = cand_classes.get("Wprime", W_g)
        built, report = prop14_build(base, W_prime, W_g)
        payload = {
            "hypotheses": {
                k: _check_payload(cat, c) for k, c in report.verdicts.items()
            }
        }
        if built is not None:
            payload["structure"] = _classes_payload(built.W_g, built.C_g, built.F_g)
        return _finish("extend", report.passed, payload, fmt)

    W, C, F = _require_wcf(cand_classes, args.candidate)
    kind = "lm" if args.theorem == "1.7" else "ll"
    cand = ExtensionCandidate(base, W, C, F, kind=kind)
    checker = {"1.2": check_thm12, "1.5": check_thm15, "1.7": check_thm17}[args.theorem]
    report = checker(cand)
    payload = {
        "hypotheses": {k: _check_payload(cat, c) for k, c in report.verdicts.items()}
    }
    return _finish("extend", report.passed, payload, fmt)


def cmd_properness(args, fmt) -> int:
    cat = load_category(args.category)
    ms = _build_verified(cat, load_classes(args.classes, cat), args.classes)
    if not ms.verified:
        raise InputError("classes do not form a model structure")
    check = check_properness(ms, args.side)
    return _finish("properness", check.passed, _check_payload(cat, check), fmt)


def cmd_classify(args, fmt) -> int:
    cat = load_category(args.category)
    base = _build_verified(cat, load_classes(args.base, cat), args.base)
    ext = _build_verified(cat, load_classes(args.extension, cat), args.extension)
    for name, ms in (("base", base), ("extension", ext)):
        if not ms.verified:
            return _finish(
                "classify",
                False,
                {"reason": f"{name} classes do not form a model structure"},
                fmt,
            )
    kind = classify_extension(base, ext)
    payload = {
        "kind": kind.kind,
        "left_bousfield": kind.left_bousfield,
        "right_bousfield": kind.right_bousfield,
        "proper_W": kind.proper_W,
    }
    return _finish("classify", True, payload, fmt)


def cmd_quillen(args, fmt) -> int:
    adj = load_adjunction(args.adjunction)
    M, N = adj.S.source, adj.S.target
    msM = _build_verified(M, load_classes(args.classes_m, M), args.classes_m)
    msN = _build_verified(N, load_classes(args.classes_n, N), args.classes_n)
    for name, ms in (("M", msM), ("N", msN)):
        if not ms.verified:
            raise InputError(f"classes on {name} do not form a model structure")

    # every witness field lives in M except those named with N below
    if args.check == "pair":
        check = is_quillen_pair(adj, msM, msN)
        return _finish("quillen pair", check.passed, _check_payload(M, check), fmt)
    if args.check == "equivalence":
        check = is_quillen_equivalence(adj, msM, msN)
        payload = _check_payload(M, check, {"x": N, "adjunct": N})
        return _finish("quillen equivalence", check.passed, payload, fmt)
    # derived-ff
    if not (args.ext_m and args.ext_n):
        raise InputError("derived-ff needs --ext-m and --ext-n class files")
    msM_g = _build_verified(M, load_classes(args.ext_m, M), args.ext_m)
    msN_g = _build_verified(N, load_classes(args.ext_n, N), args.ext_n)
    for name, ms in (("M", msM_g), ("N", msN_g)):
        if not ms.verified:
            raise InputError(f"extension classes on {name} do not verify")
    check = derived_fullfaithful_check(adj, msM, msN, msM_g, msN_g, args.side)
    in_N = {"object": N, "composite": N} if args.side == "right" else None
    return _finish("quillen derived-ff", check.passed, _check_payload(M, check, in_N), fmt)


def cmd_census(args, fmt) -> int:
    cat = load_category(args.category)
    budget = None
    if os.environ.get("MCX_BUDGET"):
        try:
            budget = int(os.environ["MCX_BUDGET"])
        except ValueError:
            raise InputError("MCX_BUDGET must be an integer")
    try:
        result = enumerate_model_structures(cat, mode=args.mode, budget=budget)
    except BudgetExceeded as e:
        raise InputError(str(e))
    payload = {
        "mode": result.mode,
        "count": len(result.structures),
        "candidates_checked": result.candidates_checked,
        "elapsed_seconds": round(result.elapsed, 3),
        "structures": [_classes_payload(ms.W, ms.C, ms.F) for ms in result.structures],
    }
    return _finish("census", True, payload, fmt)


def _finish(command: str, passed: bool, payload: dict, fmt: str) -> int:
    report = {
        "command": command,
        "verdict": "pass" if passed else "fail",
        "payload": payload,
    }
    _emit(report, fmt)
    return PASS if passed else FAIL


# -- argument parsing ---------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mcx`` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mcx", description="Model structures on finite categories."
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw)
    )

    p = sub.add_parser("validate", help="check the category axioms of a file")
    p.add_argument("category")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("bicomplete", help="check finite bicompleteness")
    p.add_argument("category")
    p.set_defaults(run=cmd_bicomplete)

    p = sub.add_parser("verify", help="verify a (W, C, F) triple")
    p.add_argument("category")
    p.add_argument("classes")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("minimal", help="build the minimal model structure")
    p.add_argument("category")
    p.set_defaults(run=cmd_minimal)

    p = sub.add_parser("extend", help="run an extension-theorem hypothesis check")
    p.add_argument("category")
    p.add_argument("--theorem", choices=("1.2", "1.5", "1.7", "p1.4"), required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(run=cmd_extend)

    p = sub.add_parser("properness", help="check left or right properness")
    p.add_argument("category")
    p.add_argument("classes")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.set_defaults(run=cmd_properness)

    p = sub.add_parser("classify", help="classify one structure against another")
    p.add_argument("category")
    p.add_argument("base")
    p.add_argument("extension")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("quillen", help="adjunction checks")
    p.add_argument("check", choices=("pair", "equivalence", "derived-ff"))
    p.add_argument("adjunction")
    p.add_argument("--classes-m", required=True)
    p.add_argument("--classes-n", required=True)
    p.add_argument("--ext-m")
    p.add_argument("--ext-n")
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.set_defaults(run=cmd_quillen)

    p = sub.add_parser("census", help="enumerate all model structures")
    p.add_argument("category")
    p.add_argument("--mode", choices=("naive", "pruned"), default="pruned")
    p.set_defaults(run=cmd_census)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else 0
    fmt = args.format
    try:
        return args.run(args, fmt)
    except (InputError, HypothesisError, MissingLimitError) as e:
        print(json.dumps({"command": args.command, "verdict": "error", "payload": {"reason": str(e)}})
              if fmt == "json" else f"error: {e}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
