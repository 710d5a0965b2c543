"""modelcat benchmark: one workload per process, one thread, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs
untraced for half the time, then traced for the other half, and prints
the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The package is imported from ``src/`` of the
same checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("census", "extend-scan", "cli-batch")
# set-up runs at least SETUP_MIN times, and more while the set-ups so far
# took under SETUP_BUDGET_S, up to SETUP_MAX; setup_s is their median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 1.0


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "modelcat" / "__init__.py").is_file():
        print(f"perfbench: no package at {src / 'modelcat'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import modelcat

    if Path(modelcat.__file__).resolve().parent != (src / "modelcat").resolve():
        print(f"perfbench: imported modelcat from {modelcat.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)


class Totals:
    """What one phase of the closed loop did, pass by pass."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.pass_requests: list[int] = []
        self.pass_structures: list[int] = []
        self.pass_candidates: list[int] = []
        self.latencies: list[float] = []
        self.verdicts = 0
        self.wrong = 0
        self.exceptions = 0

    def median_rate(self, per_pass: list[int]) -> float:
        return statistics.median(n / s for n, s in zip(per_pass, self.pass_s))


def run_passes(workload, seconds: float, totals: Totals, tracer=None) -> None:
    """Whole passes over the request list until ``seconds`` have elapsed."""
    call = workload.call if tracer is None else (lambda r: tracer.request(workload.call, r))
    started = perf_counter()
    while True:
        requests = workload.rounds[len(totals.pass_s) % len(workload.rounds)]
        structures = candidates = 0
        pass_start = perf_counter()
        for request in requests:
            t0 = perf_counter()
            try:
                outcome = call(request)
            except Exception:
                # an exception is a failed verdict; keep the loop running
                if totals.exceptions == 0:
                    traceback.print_exc(file=sys.stderr)
                totals.exceptions += 1
                totals.verdicts += 1
                outcome = None
            totals.latencies.append(perf_counter() - t0)
            if outcome is not None:
                totals.verdicts += outcome.verdicts
                totals.wrong += outcome.wrong
                structures += outcome.structures
                candidates += outcome.candidates
        totals.pass_s.append(perf_counter() - pass_start)
        verdicts, wrong = workload.end_pass()
        totals.verdicts += verdicts
        totals.wrong += wrong
        totals.pass_requests.append(len(requests))
        totals.pass_structures.append(structures)
        totals.pass_candidates.append(candidates)
        if perf_counter() - started >= seconds:
            return


def end_to_end(totals: Totals, setup_s: float, attempted: int, failed: int) -> dict:
    lat_ms = sorted(x * 1e3 for x in totals.latencies)
    q = statistics.quantiles(lat_ms, n=100, method="inclusive")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "structures_per_s": (totals.median_rate(totals.pass_structures), "1/s"),
        "candidates_per_s": (totals.median_rate(totals.pass_candidates), "1/s"),
        "requests_per_s": (totals.median_rate(totals.pass_requests), "1/s"),
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p95": (q[94], "ms"),
        "correct_share": (1 - failed / attempted, "share"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(tracer, untraced: Totals, traced: Totals) -> dict:
    from tracer import LAYERS

    passes = len(traced.pass_s)
    calls, counters = tracer.calls, tracer.counters

    def per_pass(x):
        return x / passes

    def seconds_per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (per_pass(tracer.layer_calls[layer]), "count")
        metrics[f"{layer}.self_s"] = (seconds_per_pass(tracer.layer_self_s[layer]), "s")
    metrics["bench.self_s"] = (seconds_per_pass(tracer.layer_self_s["bench"]), "s")
    for group, seconds in tracer.group_s.items():
        metrics[group] = (seconds_per_pass(seconds), "s")
    counts = {
        "fincat.colimit.calls": calls.get("fincat.colimit", 0),
        "fincat.colimit.computed": counters.get("fincat.colimit.computed", 0),
        "morphclass.closure_check.calls": calls.get("morphclass.closure_check", 0),
        "morphclass.has_lifting.calls": calls.get("morphclass.has_lifting", 0),
        "morphclass.has_factorization.calls": calls.get("morphclass.has_factorization", 0),
        "morphclass.lifting_closure.calls": calls.get("morphclass.lifting_closure", 0),
        "morphclass.classes_built": counters.get("morphclass.classes_built", 0),
        "modelstruct.verify.calls": calls.get("modelstruct.verify_model_structure", 0),
        "census.candidates_checked": counters.get("census.candidates_checked", 0),
        "extend.thm12.calls": calls.get("extend.check_thm12", 0),
        "extend.thm17.calls": calls.get("extend.check_thm17", 0),
        "extend.classify.calls": calls.get("extend.classify_extension", 0),
        "trace.spans": tracer.span_count(),
    }
    for name, value in counts.items():
        metrics[name] = (per_pass(value), "count")
    metrics["morphclass.tables.cold_ratio"] = (
        ratio(counters.get("morphclass.tables.cold", 0), counters.get("morphclass.tables.calls", 0)),
        "share",
    )
    metrics["modelstruct.verify.pass_ratio"] = (
        ratio(counters.get("modelstruct.verify.passed", 0), calls.get("modelstruct.verify_model_structure", 0)),
        "share",
    )
    metrics["census.yield"] = (
        ratio(counters.get("census.structures", 0), counters.get("census.candidates_checked", 0)),
        "share",
    )
    metrics["extend.pass_ratio"] = (
        ratio(counters.get("extend.passed", 0), counters.get("extend.checks", 0)),
        "share",
    )
    plain = statistics.median(untraced.pass_s)
    with_tracing = statistics.median(traced.pass_s)
    metrics["trace.untraced_pass_s"] = (plain, "s")
    metrics["trace.traced_pass_s"] = (with_tracing, "s")
    metrics["trace.overhead_s"] = (with_tracing - plain, "s")
    metrics["trace.overhead_share"] = (ratio(with_tracing - plain, plain), "share")
    return metrics


def make_workload(name: str):
    import workloads

    if name == "census":
        return workloads.CensusWorkload()
    if name == "extend-scan":
        return workloads.ExtendScanWorkload()
    return workloads.CliBatchWorkload(OUT / f"cli-inputs-{os.getpid()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()

    workload = make_workload(args.workload)
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX
        ):
            gc.collect()  # the previous set-up's garbage is not this one's cost
            t0 = perf_counter()
            workload.setup(args.seed)
            setup_times.append(perf_counter() - t0)
        workload.materialize()
        # inputs built in set-up live for the whole run: keep them out of
        # the collector's scans so that they do not tax the timed loop
        gc.collect()
        gc.freeze()

        untraced = Totals()
        traced = None
        if args.trace:
            from tracer import Tracer

            run_passes(workload, args.seconds / 2, untraced)
            tracer, traced = Tracer(), Totals()
            tracer.install()
            try:
                run_passes(workload, args.seconds / 2, traced, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            run_passes(workload, args.seconds, untraced)
        verdicts, wrong = workload.final_check()
    finally:
        workload.close()
    setup_s = statistics.median(setup_times)

    attempted = untraced.verdicts + verdicts
    failed = untraced.wrong + untraced.exceptions + wrong
    if traced is not None:
        attempted += traced.verdicts
        failed += traced.wrong + traced.exceptions
        metrics = per_layer(tracer, untraced, traced)
    else:
        metrics = end_to_end(untraced, setup_s, attempted, failed)

    print(f"workload {args.workload}  seed {args.seed}  set-ups {len(setup_times)}  "
          f"passes {len(untraced.pass_s)}  "
          f"latency samples {len(untraced.latencies)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
