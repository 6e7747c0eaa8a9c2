"""Self-test of the benchmark, each workload at reduced size.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that the metric names and units in BENCHMARK.json are exactly the
ones the runs emit, that every workload passes every unit (fail_frac 0),
that every timing wrapper fired in at least one workload and left no
unwrapped alias behind, and that two traced runs with the same seed give
identical counts.  Exits 0 only if every check holds.
"""

from __future__ import annotations

import json
import os
import sys

import run
from tracer import SPANS
from workloads import WORKLOADS

SEED = 7
COUNT_UNITS = ("count", "calls/vertex")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if declared_e2e != run.END_TO_END_UNITS:
        problems.append("end_to_end in BENCHMARK.json differs from run.END_TO_END_UNITS")
    if declared_layer != run.per_layer_units():
        problems.append("per_layer in BENCHMARK.json differs from run.per_layer_units()")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.WORKLOADS")

    fired = set()
    for workload in WORKLOADS:
        result, info = run.measure(workload, SEED, 1, trace=False, reduced=True)
        problems += _check(workload, "untraced", result, info, declared_e2e)
        traced = []
        for _ in range(2):
            result, info = run.measure(workload, SEED, 1, trace=True, reduced=True)
            problems += _check(workload, "traced", result, info, declared_layer)
            fired.update(name for name, calls in info["span_calls"].items() if calls)
            traced.append(result["metrics"])
        counts = [{k: v["value"] for k, v in m.items() if v["unit"] in COUNT_UNITS}
                  for m in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append("%s: counts differ between two traced runs: %s" % (workload, diff))
        print("%s: ok so far, %d problems" % (workload, len(problems)), flush=True)
    silent = sorted(name for name, _, _, _ in SPANS if name not in fired)
    if silent:
        problems.append("wrappers that never fired: %s" % silent)
    for p in problems:
        print("FAIL: %s" % p)
    print("selftest %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def _check(workload, mode, result, info, declared):
    out = []
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != declared:
        out.append("%s %s: emitted metrics differ from BENCHMARK.json" % (workload, mode))
    if not result["correct"]:
        out.append("%s %s: not correct: %s" % (workload, mode, info["problems"]))
    if info["fail_frac"]["value"] != 0:
        out.append("%s %s: fail_frac %s" % (workload, mode, info["fail_frac"]["value"]))
    return out


if __name__ == "__main__":
    sys.exit(main())
