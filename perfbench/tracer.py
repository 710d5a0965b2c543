"""Run-time span tracer for the modelcat layers.

``Tracer.install()`` replaces every public function of each layer module,
and the public methods, operators and cached-property getters of
``FinCat`` and ``MorphClass``, with a wrapper that records a span under
the module's layer; ``uninstall()`` puts the originals back.  The O(1)
accessors in ``UNTRACED_METHODS`` are left alone, so their time counts
in the caller's self time.  A function is replaced under every module attribute
bound to it (``from .morphclass import closure_check`` binds a second
name inside ``census`` and ``extend``, and the package re-exports nearly
everything), so calls through any name are seen.  Nothing under ``src/``
is edited.

Spans are (name, start, end, parent span, request) rows kept in memory in
compact arrays and written out by ``dump``.  Self time is computed on the
fly: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("catio", "fincat", "morphclass", "modelstruct", "extend", "quillen", "census", "cli")

# Inclusive-time groups: time from entering the outermost member to
# leaving it, so nested members are not counted twice.
GROUPS = {
    "catio.parse_s": (
        "catio.parse_category", "catio.parse_classes", "catio.parse_adjunction",
        "catio.load_category", "catio.load_classes", "catio.load_adjunction",
        "catio.load_fixture",
    ),
    "fincat.validate_s": ("fincat.validate_category",),
    "fincat.bicomplete_s": ("fincat.is_finitely_bicomplete",),
    "morphclass.tables_s": (
        "morphclass.unliftable_pairs", "morphclass.retract_pairs",
        "morphclass.pushout_transfers", "morphclass.pullback_transfers",
        "morphclass.factor_pairs",
    ),
}

# The per-category tables and the ``cat.scratch`` entry each one fills;
# a call is cold when that entry is missing on entry.
TABLE_KEYS = {
    "morphclass.unliftable_pairs": "unliftable",
    "morphclass.retract_pairs": "retracts",
    "morphclass.pushout_transfers": "pushout_transfers",
    "morphclass.pullback_transfers": "pullback_transfers",
    "morphclass.factor_pairs": "factor_pairs",
}

# Classes whose methods are spans of their module's layer.
CLASSES = {"fincat": ("FinCat",), "morphclass": ("MorphClass",)}
# Operators of MorphClass that the library calls as public API.
PUBLIC_DUNDERS = {"__contains__", "__and__", "__or__", "__le__", "__lt__"}
# O(1) accessors of the innermost loops: a span would cost more than the
# call itself and swamp the traced time.
UNTRACED_METHODS = {
    "FinCat.src", "FinCat.tgt", "FinCat.name", "FinCat.comp",
    "FinCat.is_identity", "FinCat.hom", "MorphClass.__contains__",
}

# Spans kept for the trace file; beyond this only the aggregates grow.
MAX_STORED_SPANS = 50_000


def _scratch(cat) -> dict:
    # read without creating: ``scratch`` is a cached_property
    return vars(cat).get("scratch") or {}


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = ["bench.request"]
        self.calls: dict[str, int] = {}
        # "bench" is the benchmark's own code inside a request
        self.layer_self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.group_s = {g: 0.0 for g in GROUPS}
        self.counters: dict[str, float] = {}
        self._group_of = {f: g for g, fs in GROUPS.items() for f in fs}
        self._group_depth = {g: 0 for g in GROUPS}
        self._group_start = {g: 0.0 for g in GROUPS}
        self._stack: list[list] = []
        self._request = -1
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.dropped_spans = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- counters ------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- spans ---------------------------------------------------------

    def request(self, fn, *args):
        """Run one benchmark request under a root span."""
        self._request += 1
        return self._span(0, "bench", fn, args, {})

    def _span(self, name_id, layer, fn, args, kwargs):
        stack = self._stack
        # the span's row is reserved on entry, so that children can name it
        index = len(self.span_start)
        if index < MAX_STORED_SPANS:
            self.span_name.append(name_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_request.append(self._request)
        else:
            index = -1
            self.dropped_spans += 1
        # open span: [layer, start, child seconds, row]
        frame = [layer, 0.0, 0.0, index]
        stack.append(frame)
        frame[1] = start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][2] += dur
            self.layer_self_s[layer] += dur - frame[2]
            if index >= 0:
                self.span_start[index] = start
                self.span_end[index] = end

    def _wrap(self, qualname: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        group = self._group_of.get(qualname)
        table_key = TABLE_KEYS.get(qualname)
        observe = _OBSERVERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[qualname] = tracer.calls.get(qualname, 0) + 1
            tracer.layer_calls[layer] += 1
            if table_key is not None:
                scratch = _scratch(args[0])
                cold = table_key not in scratch
                if table_key == "factor_pairs" and not cold:
                    cold = args[1] not in scratch["factor_pairs"]
                tracer.count("morphclass.tables.calls")
                tracer.count("morphclass.tables.cold", cold)
            if qualname == "fincat.colimit":
                before = len(_scratch(args[0]).get("colimits", ()))
            if group is not None:
                if tracer._group_depth[group] == 0:
                    tracer._group_start[group] = tracer.clock()
                tracer._group_depth[group] += 1
            try:
                result = tracer._span(name_id, layer, fn, args, kwargs)
            finally:
                if group is not None:
                    tracer._group_depth[group] -= 1
                    if tracer._group_depth[group] == 0:
                        tracer.group_s[group] += tracer.clock() - tracer._group_start[group]
            if qualname == "fincat.colimit":
                tracer.count("fincat.colimit.computed",
                             len(_scratch(args[0]).get("colimits", ())) - before)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"modelcat.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                    and id(obj) not in wrapped
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", layer, obj)
        # rebind under every name, in every module, that refers to an original
        for mod in [importlib.import_module("modelcat"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])
        for layer, class_names in CLASSES.items():
            for class_name in class_names:
                self._install_methods(layer, getattr(modules[layer], class_name))
        morphclass = modules["morphclass"].MorphClass
        original_post_init = morphclass.__post_init__

        def post_init(instance):
            self.count("morphclass.classes_built")
            original_post_init(instance)

        self._patches.append((morphclass, "__post_init__", original_post_init))
        morphclass.__post_init__ = post_init

    def _install_methods(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{name}"
            if (name.startswith("_") and name not in PUBLIC_DUNDERS) or qualname in UNTRACED_METHODS:
                continue
            span = f"{layer}.{qualname}"
            if isinstance(attr, functools.cached_property):
                replacement = functools.cached_property(self._wrap(span, layer, attr.func))
                replacement.__set_name__(cls, name)
            elif isinstance(attr, classmethod):
                replacement = classmethod(self._wrap(span, layer, attr.__func__))
            elif inspect.isfunction(attr):
                replacement = self._wrap(span, layer, attr)
            else:
                continue
            self._patches.append((cls, name, attr))
            setattr(cls, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start) + self.dropped_spans

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [self.names[n], s, e, p, r]
            for n, s, e, p, r in zip(
                self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_request,
            )
        ]
        with path.open("w") as out:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "request"],
                    "dropped_spans": self.dropped_spans,
                    "spans": rows,
                },
                out,
            )


def _observe_verify(tracer: Tracer, report) -> None:
    tracer.count("modelstruct.verify.passed", report.passed)


def _observe_hypotheses(tracer: Tracer, report) -> None:
    tracer.count("extend.checks")
    tracer.count("extend.passed", report.passed)


def _observe_census(tracer: Tracer, result) -> None:
    tracer.count("census.candidates_checked", result.candidates_checked)
    tracer.count("census.structures", len(result.structures))


_OBSERVERS = {
    "modelstruct.verify_model_structure": _observe_verify,
    "extend.check_thm12": _observe_hypotheses,
    "extend.check_thm17": _observe_hypotheses,
    "census.enumerate_model_structures": _observe_census,
}
