"""Self-test of the benchmark's inputs and known answers.

Run from the repository root:

    python3 perfbench/selftest.py

For two seeds it checks that the relabelled inputs differ, that one pass
of every workload agrees with the known answers, and that the workloads
produce the same counts for both seeds.  Exits 1 if any check fails.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

from run import OUT, _import_package

SEEDS = (11, 12)


def one_pass(workload, seed: int) -> tuple[Counter, int]:
    """Send the first round once; return the structures found per request
    kind and the number of wrong verdicts."""
    workload.setup(seed)
    workload.materialize()
    structures, wrong = Counter(), 0
    try:
        for request in workload.rounds[0]:
            outcome = workload.call(request)
            kind = request[0][0] if isinstance(request[0], list) else request[0]
            structures[kind] += outcome.structures
            wrong += outcome.wrong
        wrong += workload.end_pass()[1] + workload.final_check()[1]
    finally:
        workload.close()
    return structures, wrong


def main() -> int:
    _import_package()
    import inputs
    import workloads

    results = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        results.append(ok)

    first, second = (inputs.census_inputs(random.Random(seed)) for seed in SEEDS)
    check(first != second, "two seeds give different relabellings")
    check(
        [n for _, _, n in first] == [1, 3, 10, 35, 126, 10, 23],
        "census answers: C(2n+1, n) on [0]..[4], then the chain2 and diamond pins",
    )
    for workload in (
        workloads.CensusWorkload,
        workloads.ExtendScanWorkload,
        lambda: workloads.CliBatchWorkload(OUT / "selftest-cli-inputs"),
    ):
        name = workload().name
        (counts_a, wrong_a), (counts_b, wrong_b) = (one_pass(workload(), s) for s in SEEDS)
        check(wrong_a == wrong_b == 0, f"{name}: one pass per seed matches the known answers")
        check(counts_a == counts_b, f"{name}: both seeds give the same counts")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
