"""The names and parameters that perfbench/tracer.py wraps must exist in the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("short,names", sorted(traced_names().items()))
def test_traced_names_are_module_level_callables(short, names):
    module = importlib.import_module(f"loopbundle.{short}")
    for name in names:
        assert callable(vars(module).get(name)), f"loopbundle.{short}.{name}"


@pytest.mark.parametrize(
    "name,params",
    [
        ("transport", ("loop", "steps")),
        ("transport_defect", ("loop", "steps")),
        ("transport_frame", ("loop", "steps")),
        ("trig_interpolate", ("values", "new_ts")),
    ],
)
def test_counted_parameters_exist(name, params):
    fn = getattr(importlib.import_module("loopbundle.holonomy"), name)
    assert set(params) <= set(inspect.signature(fn).parameters)
