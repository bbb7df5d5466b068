"""What perfbench relies on: the names and parameters its tracer wraps, and the verify record count."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from loopbundle.properties import property_names

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    return perfbench_module("tracer").TRACED


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


def test_verify_workload_expects_every_registered_property():
    assert perfbench_module("workloads").VERIFY_PROPERTIES == len(property_names())


def test_holonomy_workload_ops_pass():
    """One op per loop kind (torus, sphere, su2, each plain and sine-reparametrised) runs and meets every gate."""
    workload = perfbench_module("workloads").Holonomy()
    loops = workload.generate(0, count=6)
    ops = [workload.run(loops, index) for index in range(len(loops))]
    assert sorted(op.kind for op in ops) == sorted(["torus", "sphere", "SU2", "torus+sine", "sphere+sine", "SU2+sine"])
    assert all(op.ok for op in ops), [op.detail for op in ops if not op.ok]


def test_sections_workload_ops_pass():
    """One op per group (U, SU, SO) calls `sweep_sections` as perfbench does and meets every gate."""
    workload = perfbench_module("workloads").Sections()
    workload.trials = 10
    seeds = workload.generate(0)
    ops = [workload.run(seeds, index) for index in range(len(workload.groups))]
    assert [op.kind for op in ops] == ["U", "SU", "SO"]
    assert all(op.ok for op in ops), [op.detail for op in ops if not op.ok]


def test_rk4_step_counter_reads_the_loop_grid():
    """With no `steps`, the tracer counts one step per sample of `loop.grid` for `transport_frame`."""
    geo = importlib.import_module("loopbundle.holonomy")
    model, loop = geo.sphere_model(1.0, grid=512)
    count = perfbench_module("tracer")._rk4_steps(geo.transport_frame, 1)
    assert count((model, loop), {}) == ("holonomy.rk4_steps", loop.grid)


def test_holonomy_objects_keep_what_the_workload_reads():
    """The constructor keywords the `holonomy` workload passes, and the attributes and calls it reads back."""
    geo = importlib.import_module("loopbundle.holonomy")
    reparam = geo.Reparam("sine", shift=0.3, amplitude=0.05)
    built = [
        geo.torus_model(winding=(1, -2), grid=256, reparam=reparam),
        geo.sphere_model(1.0, winding=2, grid=256, reparam=reparam),
        geo.su2_model(direction=(0.6, 0.0, 0.8), winding=3, grid=256, reparam=reparam),
    ]
    assert [model.tag.split("-")[1] for model, _ in built] == ["torus", "sphere", "SU2"]
    for model, loop in built:
        assert loop.grid == 256 and loop.reparam is reparam
        basis = geo.eigen_sections(model, loop, geo.monodromy(model, loop), 2)
        assert basis.gram().shape == (basis.count, basis.count)
        # the workload gates on the weighted pairing's diagonal: one weight per section, each cosh^2 >= 1
        weights = np.diag(geo.cos_gram(basis, 2.0)).real
        assert weights.shape == (basis.count,) and np.all(weights >= 1.0)
        assert np.array_equal(weights, basis.pairing_weights(2.0))
