"""The benchmark's timing wrappers name only attributes the program defines,
and the verify path calls the kernels they time."""

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


@pytest.mark.parametrize("name,module,attr", [s[:3] for s in _spans()])
def test_every_span_target_resolves(name, module, attr):
    # a factory span ("f()") times what f returns, so f itself must exist
    owner = importlib.import_module(module)
    for part in attr.removesuffix("()").split("."):
        assert hasattr(owner, part), (name, module, attr)
        owner = getattr(owner, part)
    assert callable(owner), (name, module, attr)


def test_verify_runs_through_the_timed_kernels(monkeypatch):
    # The benchmark's spans time these kernels on the verify path; a change
    # that stopped calling one would leave its span silent.
    import willmore.verify
    from willmore.loops import LoopMatrix
    from willmore.potentials import builtin_potential
    from willmore.scalars import BiPoly, RationalFn
    from willmore.verify import run_suite

    kernels = {
        "RationalFn.evaluate": (RationalFn, "evaluate"),
        "LoopMatrix.to_float": (LoopMatrix, "to_float"),
        "LoopMatrix.__matmul__": (LoopMatrix, "__matmul__"),
        "BiPoly.evaluate_float": (BiPoly, "evaluate_float"),
        "degeneracy_scan": (willmore.verify, "degeneracy_scan"),
    }
    calls = dict.fromkeys(kernels, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, (owner, attr) in kernels.items():
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    run_suite(builtin_potential(1), {"samples": 3, "fd_samples": 1, "oracle_matrices": 2})
    assert all(calls.values()), calls


_ALL_PATHS = r"""
import json, os, sys
from tracer import SPANS, Tracer

tracer = Tracer()
tracer.install()
import workloads

failed = {}
for i, name in enumerate(workloads.WORKLOADS):
    workdir = os.path.join(sys.argv[1], str(i))
    os.mkdir(workdir)
    setup = workloads.Setup()
    inputs = workloads.make_inputs(name, 7, reduced=True)
    out = workloads.OPERATIONS[name](setup, inputs, workdir)
    failed[name] = workloads.CHECKS[name](setup, inputs, workdir, out)["failed"]
calls = {span[0]: tracer.stats.get(span[0], [0])[0] for span in SPANS}
print(json.dumps({"calls": calls, "stale": tracer.stale_bindings(), "failed": failed}))
"""


def test_every_span_fires_on_the_three_paths(tmp_path):
    # Each workload at its reduced size, traced as the benchmark traces it:
    # a span that no path calls any more would leave its metric silent.
    import json
    import subprocess
    import sys

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "perfbench"), os.path.join(root, "src")]))
    done = subprocess.run([sys.executable, "-c", _ALL_PATHS, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    assert [name for name, calls in got["calls"].items() if not calls] == []
    assert got["stale"] == []
    assert got["failed"] == {"mesh-ex1": 0, "verify-ex1": 0, "exact-ex1": 0}
