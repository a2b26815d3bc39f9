"""Time stepper: stage formula, plain-SSPRK3 equivalence, convergence, runs."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from phaseswe import integrator
from phaseswe.averaging import Quadrature, averaged_tendency
from phaseswe.config import default_config
from phaseswe.diagnostics import energy_mass
from phaseswe.dynamics import (State, apply_linear, apply_nonlinear, energy_norm,
                               flat_bottom, max_frequency)
from phaseswe.grid import SpectralGrid, band
from phaseswe.integrator import (StepConfig, make_step_config, run,
                                 step_averaged_ssprk3)
from phaseswe.oracles import band_limited_state, full_band_mask, take_band
from phaseswe.propagator import (PropagatorSpec, cheb_exp, choose_npoly, exact_exp,
                                 propagate)
from phaseswe.testcase import balanced_jet, physics_params

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


@pytest.fixture(scope="module")
def problem32(grid32):
    case = replace(default_config(), nx=32, ny=32)
    assert case.grid == grid32
    return grid32, physics_params(case), balanced_jet(case)


def test_step_reproduces_stage_formula(problem32):
    grid, params, state = problem32
    dt = 600.0
    quad = Quadrature(1200.0, 2)
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
    config = StepConfig(dt=dt, quadrature=Quadrature(0.0, 0),
                        propagator_spec=PropagatorSpec.exact())
    got = step_averaged_ssprk3(state, config, params)

    def G(tau, w):
        moved = exact_exp(tau, w, params)
        tend = State(grid, apply_nonlinear(moved.q, params))
        return exact_exp(-tau, tend, params)

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
    lam = max_frequency(params) * 7200.0  # max(dt, T)
    assert cheb.propagator_spec.Lambda == pytest.approx(lam, rel=1e-15)
    assert cheb.propagator_spec.n_poly == choose_npoly(lam, 1e-10)

    with pytest.raises(ValueError, match="propagator"):
        make_step_config(grid64, params, dt=3600.0, propagator="magic")
    with pytest.raises(ValueError, match="dt"):
        StepConfig(dt=0.0, quadrature=Quadrature(0.0, 0),
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


@pytest.fixture(scope="module")
def problem96():
    # the smallest grid on which run's nodes go to threads
    case = replace(default_config(), nx=96, ny=96)
    assert case.grid.nx * case.grid.ny == integrator.MIN_THREADED_POINTS
    return case.grid, physics_params(case), balanced_jet(case)


@pytest.mark.parametrize("n, T, M, workers, cores, want", [
    (64, 3600.0, 4, 8, 2, 1),        # below the threshold: serial
    (128, 0.0, 0, 8, 16, 1),         # one node
    (128, 3600.0, 4, 1, 16, 1),      # one worker
    (96, 28800.0, 16, 8, 2, 2),      # capped by the cores
    (128, 3600.0, 4, 8, 16, 7),      # capped by the nodes (2M - 1)
])
def test_node_threads_rule(n, T, M, workers, cores, want):
    grid = SpectralGrid(n, n, 4.0e7, 4.0e7)
    assert integrator.node_threads(grid, Quadrature(T, M), workers, cores) == want


def test_run_with_workers_matches_serial(problem96, monkeypatch):
    grid, params, state = problem96
    monkeypatch.setattr(integrator, "available_cores", lambda: 4)
    cfg = make_step_config(grid, params, dt=1800.0, T=1800.0, M=2)
    serial = run(state, cfg, params, t_end=3600.0)
    threaded = run(state, cfg, params, t_end=3600.0, workers=4)
    assert (serial.node_threads, threaded.node_threads) == (1, 3)
    assert np.array_equal(serial.states[-1].u, threaded.states[-1].u)
    assert np.array_equal(serial.states[-1].eta, threaded.states[-1].eta)
    assert serial.energy == threaded.energy


def test_failed_run_leaves_no_node_running(problem96, monkeypatch):
    # one node fails at once while the others sleep; run must wait for them,
    # or a sleeper would write into scratch that the caller's next run reuses
    grid, params, state = problem96
    monkeypatch.setattr(integrator, "available_cores", lambda: 2)
    cfg = make_step_config(grid, params, dt=1800.0, T=1800.0, M=2)
    lock = threading.Lock()
    calls, running = [0], [0]

    def nonlinear(q, p):
        with lock:
            calls[0] += 1
            first = calls[0] == 1
            running[0] += 1
        try:
            if first:
                raise ValueError("node failure")
            time.sleep(0.2)
            return apply_nonlinear(q, p)
        finally:
            with lock:
                running[0] -= 1

    def step(state, config, params, executor=None):
        return step_averaged_ssprk3(state, config, params, executor, nonlinear=nonlinear)

    monkeypatch.setattr(integrator, "step_averaged_ssprk3", step)
    with pytest.raises(RuntimeError, match="node failure"):
        run(state, cfg, params, t_end=1800.0, workers=2)
    assert calls[0] >= 2 and running[0] == 0


def test_run_at_96_is_bitwise_equal_for_1_and_8_workers(problem96):
    # the acceptance sweep's 64^2 never reaches a node thread; this run does,
    # on as many threads as the machine's cores allow
    grid, params, state = problem96
    cfg = make_step_config(grid, params, dt=3600.0, T=28800.0)
    serial = run(state, cfg, params, t_end=7200.0, workers=1)
    threaded = run(state, cfg, params, t_end=7200.0, workers=8)
    assert serial.node_threads == 1
    assert np.array_equal(serial.states[-1].q, threaded.states[-1].q)
    assert serial.energy == threaded.energy
    assert serial.mass == threaded.mass


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nonfinite_state_aborts_with_stage_index(problem32):
    grid, params, state = problem32
    cfg = make_step_config(grid, params, dt=600.0)

    def explode(q, p):
        return np.inf * q

    with pytest.raises(RuntimeError, match="stage 1"):
        step_averaged_ssprk3(state, cfg, params, nonlinear=explode)


def noisy_problem(rng):
    # a band-limited state and its full spectra plus nonzero modes outside
    # the 2/3 band, over a mountain on an 18 x 12 grid with Lx != Ly
    case = replace(default_config(), nx=18, ny=12, Lx=2.5e6, Ly=1.5e6, r0=3.0e5,
                   xc=4.0e5, yc=6.0e5, jet_width=1.5e6 / 16)
    grid, params = case.grid, physics_params(case)
    state = band_limited_state(grid, rng)
    noise = np.fft.fft2(rng.standard_normal((3, grid.nx, grid.ny)))
    noise[:, full_band_mask(grid)] = 0.0
    assert all(np.any(c != 0.0) for c in noise)
    return grid, params, state, np.stack((state.u, state.v, state.eta)) + noise


def test_out_of_band_input_leaves_step_unchanged(rng):
    # take_band drops the modes outside the band, and a step from the result
    # is the clean state's step, bit for bit
    grid, params, state, noisy = noisy_problem(rng)
    kept = State(grid, take_band(grid, noisy), t=state.t)
    for route in ("exact", "chebyshev"):
        for T, M in ((0.0, 0), (3600.0, 4)):
            cfg = make_step_config(grid, params, dt=3600.0, T=T, M=M, propagator=route)
            want = step_averaged_ssprk3(state, cfg, params)
            got = step_averaged_ssprk3(kept, cfg, params)
            assert np.array_equal(got.q, want.q)
            assert got.t == want.t == state.t + 3600.0


def grid_12x8(Lx=1.5e6):
    return SpectralGrid(12, 8, Lx, 1.0e6)


# (make a fresh object from fixed values, whether == compares values):
# grids compare by (nx, ny, Lx, Ly), the types holding arrays by identity
VALUE_TYPES = {
    "SpectralGrid": (grid_12x8, True),
    "PhysicsParams": (lambda: flat(grid_12x8()), False),
    "State": (lambda: State(grid_12x8(), np.zeros((3, 12, 3))), False),
    "Quadrature": (lambda: Quadrature(3600.0, 4), False),
    "StepConfig": (lambda: make_step_config(grid_12x8(), flat(grid_12x8()),
                                            dt=3600.0, T=3600.0, M=4), False),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_equality_and_hash_do_not_raise(name):
    make, by_value = VALUE_TYPES[name]
    a, b = make(), make()
    assert a == a and hash(a) == hash(a)
    assert (a == b) is by_value and (a != b) is not by_value
    assert len({a, b}) == (1 if by_value else 2)
    if by_value:
        assert hash(a) == hash(b)
        assert a != grid_12x8(Lx=2.0e6)


def test_mixed_grids_are_rejected(rng):
    # two 12 x 8 grids that differ only in Lx: the band stacks have one
    # shape, so only a grid comparison can tell them apart
    grid, wide = grid_12x8(), grid_12x8(Lx=2.0e6)
    state, params = band_limited_state(grid, rng), flat(wide)
    cfg = make_step_config(wide, params, dt=3600.0, T=3600.0, M=2)
    with pytest.raises(ValueError, match="state grid .*Lx=1500000.0.* does not "
                                         "match the physics' grid .*Lx=2000000.0"):
        step_averaged_ssprk3(state, cfg, params)
    with pytest.raises(ValueError, match="grid .*Lx=1500000.0.* does not match "
                                         "the physics' grid .*Lx=2000000.0"):
        make_step_config(grid, params, dt=3600.0)
    # the same values on a grid of its own are the same grid
    step_averaged_ssprk3(state, cfg, flat(grid_12x8()))


# every State entry point, called with a state and physics on two 12 x 8
# grids that differ only in Lx; propagate carries exact_exp and cheb_exp
STATE_ENTRY_POINTS = {
    "step_averaged_ssprk3": lambda state, params: step_averaged_ssprk3(
        state, make_step_config(params.grid, params, dt=3600.0, T=3600.0, M=2), params),
    "propagate": lambda state, params: propagate(900.0, state, params,
                                                 PropagatorSpec.exact()),
    "exact_exp": lambda state, params: exact_exp(900.0, state, params),
    "cheb_exp": lambda state, params: cheb_exp(
        900.0, state, params, PropagatorSpec.chebyshev(max_frequency(params) * 900.0)),
    "averaged_tendency": lambda state, params: averaged_tendency(
        state, Quadrature(3600.0, 2), params, PropagatorSpec.exact()),
    "apply_linear": apply_linear,
    "energy_mass": energy_mass,
}


@pytest.mark.parametrize("name", STATE_ENTRY_POINTS)
def test_every_state_entry_point_rejects_another_grid(name, rng):
    call = STATE_ENTRY_POINTS[name]
    grid, wide = grid_12x8(), grid_12x8(Lx=2.0e6)
    state = band_limited_state(grid, rng)
    with pytest.raises(ValueError, match="state grid .*Lx=1500000.0.* does not "
                                         "match the physics' grid .*Lx=2000000.0"):
        call(state, flat(wide))
    # the same values on a grid built apart are the same grid
    call(state, flat(grid_12x8()))


def test_run_rejects_state_outside_the_band(rng):
    # the band columns of the noisy spectra are refused when the State that
    # run would take is built, so run never sees such modes
    grid, params, state, noisy = noisy_problem(rng)
    cfg = make_step_config(grid, params, dt=3600.0)
    with pytest.raises(ValueError, match="outside the 2/3 band"):
        run(State(grid, noisy[..., : band(grid).kb]), cfg, params, t_end=3600.0)
    assert run(state, cfg, params, t_end=3600.0).steps == [0, 1]


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
