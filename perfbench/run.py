"""Benchmark of the willmore pipeline on the three paths users run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mesh-ex1 --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 40 --trace 0

Workloads are described in perfbench/workloads.py.  A run is a closed loop
with one client: each operation runs in a fresh worker process
(perfbench/worker.py), one at a time, with WILLMORE_THREADS unset, until the
next operation would end after --seconds.  Every operation's outputs are
checked.

With --trace 0 the run first starts SETUP_PROBES set-up-only processes, then
reports the end-to-end metrics: wall_ref, setup_s (median time from process
start to the end of set-up, over every process of the run), peak_rss_mb
(median peak RSS of the operation processes) and pass_frac (passed units
over attempted units).

wall_ref is the median, over operations, of the operation's wall time
divided by the median time of a fixed reference kernel that an interval
timer runs inside the same process every 50 ms during the operation
(perfbench/worker.py); the kernel's own time is subtracted from the
operation's.  On a shared host whose speed drifts by tens of percent from
one minute to the next, this ratio repeats where raw seconds do not; the raw
median wall_s is printed in the info line.

With --trace 1 it runs one untraced operation, then traced operations, and
reports the per-layer metrics: per-span call counts and self times from the
timing wrappers in perfbench/tracer.py, trace.overhead_s (traced minus
untraced wall time), trace.unattributed_s (traced wall time not covered by
any span), and the verify report's finite-difference margins.  Call counts
must repeat exactly across the traced operations of a run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries informational
fields (raw wall_s, fail_frac, per-operation samples, output fingerprints,
src_lines and the machine's library versions) that gate nothing.  The run exits non-zero,
printing no result, if the program cannot be run or a worker dies.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import SPANS  # noqa: E402
from workloads import FD_CHECKS, WORKLOADS, make_inputs  # noqa: E402

SETUP_PROBES = 5
# Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "fraction"}
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
              "raised": "count", "per_vertex": "calls/vertex"}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _, stats in SPANS:
        for stat in stats:
            units["%s.%s" % (name, stat)] = STAT_UNITS[stat]
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    for check in FD_CHECKS:
        units["verify.%s.margin" % check] = "ratio"
    units["verify.rejected_samples"] = "count"
    return units


class BenchError(Exception):
    """The program could not be measured: missing source or a dead worker."""


class Runner:
    """Starts worker processes for one workload inside a scratch directory."""

    def __init__(self, workload, inputs, workdir, started):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.started = started
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("WILLMORE_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def process(self, workload, trace=False) -> dict:
        """Run one worker process to completion and return its result."""
        self.count += 1
        tag = os.path.join(self.workdir, "p%d" % self.count)
        outdir = tag + ".out"
        os.makedirs(outdir)
        spec = {"workload": workload, "inputs": self.inputs, "dir": outdir,
                "trace": trace}
        with open(tag + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, tag + ".spec.json", tag + ".result.json"],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("worker for %s exceeded %.0f s" % (workload, timeout))
        ended = time.monotonic()
        if proc.returncode != 0 or not os.path.exists(tag + ".result.json"):
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise BenchError("worker for %s exited %d:\n%s"
                             % (workload, proc.returncode, tail))
        with open(tag + ".result.json") as fh:
            result = json.load(fh)
        shutil.rmtree(outdir)
        result["setup_s"] = result["setup_end"] - launched
        result["process_s"] = ended - launched
        if "op_end" in result:
            # Kernel samples taken inside the operation are not its time.
            result["wall_s"] = (result["op_end"] - result["op_start"]
                                - result.get("kernel_in_op_s", 0.0))
        if "ref_s" in result:
            result["wall_ref"] = result["wall_s"] / result["ref_s"]
        return result

    def loop(self, seconds, trace=False) -> list:
        """Operations back to back until the next would end after seconds."""
        ops = []
        while True:
            ops.append(self.process(self.workload, trace))
            elapsed = time.monotonic() - self.started
            if elapsed + statistics.median(o["process_s"] for o in ops) > seconds:
                return ops


def measure(workload, seed, seconds, trace, reduced=False):
    """One benchmark run; returns (result, info)."""
    if not os.path.isfile(os.path.join(SRC, "willmore", "__init__.py")):
        raise BenchError("no willmore package under %s" % SRC)
    inputs = make_inputs(workload, seed, reduced)
    started = time.monotonic()
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        runner = Runner(workload, inputs, workdir, started)
        if trace:
            base = [runner.process(workload)]
            traced = runner.loop(seconds, trace=True)
            ops = base + traced
            metrics, problems = _per_layer(base, traced)
            setup_samples = []
        else:
            setup_samples = [runner.process("none")["setup_s"] for _ in range(SETUP_PROBES)]
            ops = runner.loop(seconds)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    if not trace:
        setup_samples += [o["setup_s"] for o in ops]
        metrics = {
            "wall_ref": statistics.median(o["wall_ref"] for o in ops),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in ops),
            "pass_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    else:
        units = per_layer_units()
    fingerprints = [o["fingerprints"] for o in ops]
    if failed:
        problems.append("%d of %d units failed" % (failed, attempted))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "trace": bool(trace),
        "operations": len(ops),
        "wall_s": {"value": statistics.median(o["wall_s"] for o in ops), "unit": "s"},
        "wall_s_samples": [o["wall_s"] for o in ops],
        "ref_s_samples": [o.get("ref_s") for o in ops],
        "setup_s_samples": setup_samples,
        "fail_frac": {"value": failed / attempted, "unit": "fraction"},
        "problems": problems,
        "details": ops[0]["extra"],
        "fingerprints": fingerprints[0],
        "fingerprints_repeat": all(f == fingerprints[0] for f in fingerprints),
        "src_lines": _src_lines(),
        "nproc": os.cpu_count(),
        "environment": ops[0]["environment"],
    }
    if trace:
        info["span_calls"] = {name: s["calls"]
                              for name, s in traced[0]["trace"]["spans"].items()}
    return result, info


def _per_layer(base, traced):
    """Per-layer metrics from the traced operations; problems found on the way."""
    problems = []
    first = traced[0]["trace"]
    for op in traced[1:]:
        if _counts(op["trace"]["spans"]) != _counts(first["spans"]):
            problems.append("span counts differ between traced operations")
            break
    for op in traced:
        if op["trace"]["stale_bindings"]:
            problems.append("unwrapped bindings: %s" % op["trace"]["stale_bindings"])
            break

    def median_of(span, stat):
        return statistics.median(op["trace"]["spans"].get(span, {}).get(stat, 0.0)
                                 for op in traced)

    metrics = {}
    for name, _, _, stats in SPANS:
        span = first["spans"].get(name, {})
        for stat in stats:
            key = "%s.%s" % (name, stat)
            if stat in ("calls", "raised"):
                metrics[key] = span.get(stat, 0)
            elif stat == "per_vertex":
                vertices = traced[0]["extra"].get("vertices")
                metrics[key] = span.get("calls", 0) / vertices if vertices else 0.0
            else:
                metrics[key] = median_of(name, stat)
    metrics["trace.overhead_s"] = (statistics.median(o["wall_s"] for o in traced)
                                   - statistics.median(o["wall_s"] for o in base))
    metrics["trace.unattributed_s"] = statistics.median(
        o["wall_s"] - o["trace"]["op_self_s"] for o in traced)
    margins = traced[0]["extra"].get("margins", {})
    for check in FD_CHECKS:
        metrics["verify.%s.margin" % check] = margins.get(check, 0.0)
    metrics["verify.rejected_samples"] = traced[0]["extra"].get("rejected_samples", 0)
    return metrics, problems


def _counts(spans) -> dict:
    return {name: (s["calls"], s["raised"]) for name, s in spans.items()}


def _src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "willmore", "*.py"))):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        try:
            result, info = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
        print(json.dumps({"info": info}))
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    return 1 if args.workload == "all" and not all_correct else 0


if __name__ == "__main__":
    sys.exit(main())
