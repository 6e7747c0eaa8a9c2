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
