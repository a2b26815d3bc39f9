"""Time stepper: stage formula, plain-SSPRK3 equivalence, convergence, runs."""

from dataclasses import replace

import numpy as np
import pytest

from phaseswe.averaging import averaged_tendency, kernel_weights
from phaseswe.config import default_config
from phaseswe.dynamics import (State, apply_nonlinear, energy_norm, flat_bottom,
                               max_frequency)
from phaseswe.grid import dealias, make_grid, to_spectral
from phaseswe.integrator import (StepConfig, make_step_config, run,
                                 step_averaged_ssprk3)
from phaseswe.oracles import band_limited_state
from phaseswe.propagator import PropagatorSpec, choose_npoly, exact_exp
from phaseswe.testcase import balanced_jet, physics_params

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


@pytest.fixture(scope="module")
def problem32(grid32):
    case = default_config()
    params = physics_params(case, grid32)
    return grid32, params, balanced_jet(case, grid32)


def test_step_reproduces_stage_formula(problem32):
    grid, params, state = problem32
    dt = 600.0
    quad = kernel_weights(1200.0, 2)
    spec = PropagatorSpec.exact()
    config = StepConfig(dt=dt, quadrature=quad, propagator_spec=spec)
    got = step_averaged_ssprk3(state, config, params)

    def E(t, s):
        return exact_exp(t, s, params)

    def A(s):
        return averaged_tendency(s, quad, params, spec)

    u1 = E(dt, state) + dt * E(dt, A(state))
    u2 = 0.75 * E(0.5 * dt, state) + 0.25 * E(-0.5 * dt, u1 + dt * A(u1))
    want = (1.0 / 3.0) * E(dt, state) + (2.0 / 3.0) * E(0.5 * dt, u2 + dt * A(u2))
    scale = energy_norm(state, params)
    assert energy_norm(got - want, params) <= 1e-14 * scale
    assert got.t == state.t + dt


def test_zero_window_step_is_ssprk3_on_transformed_variable(problem32):
    # oracle: textbook three-stage SSPRK3 applied to V(tau) = e^{-L tau} U,
    # whose tendency is G(tau, V) = e^{-L tau} N(e^{L tau} V), then map back
    grid, params, state = problem32
    dt = 900.0
    config = StepConfig(dt=dt, quadrature=kernel_weights(0.0, 0),
                        propagator_spec=PropagatorSpec.exact())
    got = step_averaged_ssprk3(state, config, params)

    def G(tau, w):
        moved = exact_exp(tau, w, params)
        return exact_exp(-tau, apply_nonlinear(moved, params), params)

    v0 = state
    v1 = v0 + dt * G(0.0, v0)
    v2 = 0.75 * v0 + 0.25 * (v1 + dt * G(dt, v1))
    v3 = (1.0 / 3.0) * v0 + (2.0 / 3.0) * (v2 + dt * G(0.5 * dt, v2))
    want = exact_exp(dt, v3, params)
    rel = energy_norm(got - want, params) / energy_norm(state, params)
    assert rel <= 1e-13


def test_make_step_config_resolution(grid64):
    params = flat(grid64)
    auto = make_step_config(grid64, params, dt=3600.0, T=3600.0)
    assert auto.quadrature.M == 4
    assert auto.propagator_spec.kind == "exact"

    none = make_step_config(grid64, params, dt=3600.0, T=0.0)
    assert none.quadrature.M == 0

    cheb = make_step_config(grid64, params, dt=3600.0, T=7200.0,
                            propagator="chebyshev", tol=1e-10)
    lam = max_frequency(grid64, params) * (7200.0 + 3600.0)
    assert cheb.propagator_spec.Lambda == pytest.approx(lam, rel=1e-15)
    assert cheb.propagator_spec.n_poly == choose_npoly(lam, 1e-10)

    with pytest.raises(ValueError, match="propagator"):
        make_step_config(grid64, params, dt=3600.0, propagator="magic")
    with pytest.raises(ValueError, match="dt"):
        StepConfig(dt=0.0, quadrature=kernel_weights(0.0, 0),
                   propagator_spec=PropagatorSpec.exact())


def test_run_records_initial_stride_and_final(problem32):
    grid, params, state = problem32
    cfg = make_step_config(grid, params, dt=600.0)
    traj = run(state, cfg, params, t_end=3000.0, snapshot_every=1200.0)
    assert traj.steps == [0, 2, 4, 5]
    assert traj.times == [0.0, 1200.0, 2400.0, 3000.0]
    assert len(traj.states) == len(traj.energy) == len(traj.mass) == 4
    assert len(traj.max_speed) == 4
    assert traj.states[-1].t == 3000.0
    assert traj.max_speed[0] == pytest.approx(20.0, rel=0.05)


def test_run_validates_arguments(problem32):
    grid, params, state = problem32
    cfg = make_step_config(grid, params, dt=600.0)
    with pytest.raises(ValueError, match="t_end"):
        run(state, cfg, params, t_end=1000.0)
    with pytest.raises(ValueError, match="snapshot_every"):
        run(state, cfg, params, t_end=1200.0, snapshot_every=700.0)
    with pytest.raises(ValueError, match="workers"):
        run(state, cfg, params, t_end=1200.0, workers=0)
    only_initial = run(state, cfg, params, t_end=0.0)
    assert only_initial.steps == [0]


def test_run_with_workers_matches_serial(problem32):
    grid, params, state = problem32
    cfg = make_step_config(grid, params, dt=1800.0, T=1800.0, M=2)
    serial = run(state, cfg, params, t_end=3600.0)
    threaded = run(state, cfg, params, t_end=3600.0, workers=4)
    assert np.array_equal(serial.states[-1].u, threaded.states[-1].u)
    assert np.array_equal(serial.states[-1].eta, threaded.states[-1].eta)
    assert serial.energy == threaded.energy


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nonfinite_state_aborts_with_stage_index(problem32):
    grid, params, state = problem32
    cfg = make_step_config(grid, params, dt=600.0)

    def explode(s, p):
        return np.inf * s

    with pytest.raises(RuntimeError, match="stage 1"):
        step_averaged_ssprk3(state, cfg, params, nonlinear=explode)


def test_mass_and_energy_over_runs(problem32):
    # mass (mean eta) is exact in both regimes; energy is conserved by the
    # plain dynamics up to time-discretization error, while a finite window
    # perturbs the tendency and trades an O((lambda T)^2) energy drift for
    # the larger stable step
    grid, params, state = problem32
    plain = run(state, make_step_config(grid, params, dt=900.0), params,
                t_end=9000.0)
    assert plain.states[-1].eta[0, 0] == 0.0
    assert abs(plain.mass[-1] - plain.mass[0]) <= 1e-14 * abs(plain.mass[0])
    plain_rel = abs(plain.energy[-1] - plain.energy[0]) / abs(plain.energy[0])
    assert plain_rel <= 1e-6

    cfg = make_step_config(grid, params, dt=1800.0, T=1800.0, M=2)
    avg = run(state, cfg, params, t_end=9000.0)
    assert avg.states[-1].eta[0, 0] == 0.0
    assert abs(avg.mass[-1] - avg.mass[0]) <= 1e-14 * abs(avg.mass[0])
    avg_rel = abs(avg.energy[-1] - avg.energy[0]) / abs(avg.energy[0])
    assert avg_rel <= 1e-4


def noisy_problem(rng):
    # a band-limited state plus nonzero modes outside the 2/3 band, over a
    # mountain on an 18 x 12 grid with Lx != Ly
    grid = make_grid(18, 12, 2.5e6, 1.5e6)
    params = physics_params(replace(default_config(), r0=3.0e5, xc=4.0e5, yc=6.0e5), grid)
    state = band_limited_state(grid, rng)
    noise = [c - dealias(grid, c) for c in
             (to_spectral(grid, rng.standard_normal((grid.nx, grid.ny))) for _ in range(3))]
    assert all(np.any(c != 0.0) for c in noise)
    noisy = State(grid=grid, u=state.u + noise[0], v=state.v + noise[1],
                  eta=state.eta + noise[2])
    return grid, params, state, noisy


def test_out_of_band_input_leaves_step_unchanged(rng):
    grid, params, state, noisy = noisy_problem(rng)
    for route in ("exact", "chebyshev"):
        for T, M in ((0.0, 0), (3600.0, 4)):
            cfg = make_step_config(grid, params, dt=3600.0, T=T, M=M, propagator=route)
            want = step_averaged_ssprk3(state, cfg, params)
            got = step_averaged_ssprk3(noisy, cfg, params)
            for name in ("u", "v", "eta"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert got.t == want.t == state.t + 3600.0


def test_run_rejects_state_outside_the_band(rng):
    grid, params, state, noisy = noisy_problem(rng)
    cfg = make_step_config(grid, params, dt=3600.0)
    with pytest.raises(ValueError, match="outside the 2/3 band"):
        run(noisy, cfg, params, t_end=3600.0)
    assert run(state, cfg, params, t_end=3600.0).steps == [0, 1]
