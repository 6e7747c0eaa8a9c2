"""The benchmark's timing wrappers name only attributes the program defines."""

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
