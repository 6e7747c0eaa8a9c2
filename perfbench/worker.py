"""One benchmark operation in a fresh process.

Usage: python3 perfbench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON names the workload (or "none" for a set-up-only process), its
inputs, an output directory and whether to trace.  The worker does the
set-up, runs the operation while sampling a fixed reference kernel, checks
the outputs and writes RESULT_JSON.  Times are CLOCK_MONOTONIC
readings, which the parent process shares, so the parent can measure set-up
from the moment it started this process.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

# The reference kernel runs every SAMPLE_INTERVAL_S during an untraced
# operation (about 3% of its time), and at least MIN_SAMPLES times in all.
SAMPLE_INTERVAL_S = 0.05
MIN_SAMPLES = 40


# (config, thread count) entry points of the OpenBLAS builds numpy ships.
_BLAS_ENTRY_POINTS = (
    ("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_get_config", "openblas_get_num_threads"),
)


def _environment() -> dict:
    """Library versions and the BLAS library with its thread count."""
    import scipy

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "blas": None, "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for config_name, threads_name in _BLAS_ENTRY_POINTS:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config = getattr(lib, config_name)
                threads = getattr(lib, threads_name)
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                env["blas"] = config().decode()
                env["blas_threads"] = threads()
                return env
    return env


def _reference_kernel() -> float:
    """Seconds for a fixed piece of work shaped like the program's hot paths.

    Small dense complex linear algebra (the float factorization), a complex
    power sum over a dict (polynomial evaluation) and Fraction arithmetic (the
    exact path), about 1.5 ms on an idle core.  It never calls the program,
    so a change to the program cannot move it.
    """
    t0 = time.perf_counter()
    base = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]], dtype=complex)
    acc = 0j
    for k in range(30):
        m = base + 0.01 * k
        acc += (np.linalg.inv(m)[0, 0] + np.linalg.cholesky(m @ m.conj().T)[1, 1]
                + (m @ m).sum())
    terms = {(i, j): complex(i, j) for i in range(6) for j in range(6)}
    for _ in range(30):
        for (i, _j), c in terms.items():
            acc += c * (0.3 + 0.1j) ** i
    frac = Fraction(0)
    for i in range(1, 120):
        frac += Fraction(1, i)
    return time.perf_counter() - t0


class ReferenceSampler:
    """Times the reference kernel every SAMPLE_INTERVAL_S while enabled.

    An interval timer's signal handler runs the kernel between bytecodes of
    the operation, on the same CPU at the same moments, so the samples
    measure the machine's speed while the operation ran.  Their total is
    subtracted from the operation's wall time.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(_reference_kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    setup = workloads.Setup()
    result = {"setup_end": time.monotonic()}
    if spec["workload"] != "none":
        operation = workloads.OPERATIONS[spec["workload"]]
        self_before = tracer.self_total() if tracer else 0.0
        if tracer:
            result["op_start"] = time.monotonic()
            out = operation(setup, spec["inputs"], spec["dir"])
            result["op_end"] = time.monotonic()
        else:
            with ReferenceSampler() as sampler:
                result["op_start"] = time.monotonic()
                out = operation(setup, spec["inputs"], spec["dir"])
                result["op_end"] = time.monotonic()
                inside = len(sampler.samples)
            result["kernel_in_op_s"] = sum(sampler.samples[:inside])
            # Short operations get few samples; top up right after.
            while len(sampler.samples) < MIN_SAMPLES:
                sampler.samples.append(_reference_kernel())
            result["ref_s"] = statistics.median(sampler.samples)
            result["ref_samples"] = len(sampler.samples)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            result["trace"] = {
                "spans": tracer.snapshot(),
                "op_self_s": tracer.self_total() - self_before,
                "stale_bindings": tracer.stale_bindings(),
            }
        result.update(workloads.CHECKS[spec["workload"]](
            setup, spec["inputs"], spec["dir"], out))
        result["environment"] = _environment()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
