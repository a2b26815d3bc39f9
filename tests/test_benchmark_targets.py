"""The functions the benchmark's tracer replaces still exist where it looks,
and a step still runs, and is traced, under its patches.

perfbench/tracing.py traces each layer by setting a wrapper on the module
that calls it; a renamed or moved function would make that fail, or trace
nothing, and only the benchmark's own smoke test would notice.
"""

import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists():
    tracing = load_tracing()
    patches = tracing.layer_patches(tracing.Tracer())
    assert patches
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in patches
               if not callable(getattr(mod, attr, None))]
    assert not missing, f"tracer patch targets missing: {missing}"


def test_traced_step_records_nonlinear_spans():
    # the tracer hands its wrapped apply_nonlinear to the step through
    # nonlinear=, so a change to that contract breaks traced runs
    from phaseswe import integrator
    from phaseswe.config import RunConfig
    from phaseswe.harness import build_problem, step_config

    tracing = load_tracing()
    cfg = RunConfig(nx=16, ny=16, dt=600.0, T=600.0, M=2)
    _grid, _cfg, params, state = build_problem(cfg)
    step_cfg = step_config(cfg, params)
    want = integrator.step_averaged_ssprk3(state, step_cfg, params)
    tracer = tracing.Tracer()
    with tracing.patched(tracing.layer_patches(tracer)):
        got = integrator.step_averaged_ssprk3(state, step_cfg, params)
    calls = tracer.summary().calls
    assert calls["integrator.step"] == 1
    # three averaged tendencies of three live nodes (the endpoints weigh 0),
    # each one inverse and one forward transform, looked up in dynamics
    # where the tracer wraps them
    assert calls["dynamics.apply_nonlinear"] == 9
    assert calls["grid.to_physical"] == calls["grid.to_spectral"] == 9
    for name in ("u", "v", "eta"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
