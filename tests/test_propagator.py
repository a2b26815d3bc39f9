"""Exponential propagators against dense-matrix and Bessel-function oracles."""

from dataclasses import replace

import numpy as np
import pytest

from phaseswe import propagator
from phaseswe.config import default_config
from phaseswe.dynamics import State, energy_norm, flat_bottom, max_frequency
from phaseswe.grid import band_width, make_grid, take_band
from phaseswe.integrator import make_step_config, run, step_averaged_ssprk3
from phaseswe.oracles import band_limited_state, bessel_cheb_coeffs, dense_exp
from phaseswe.propagator import (PropagatorSpec, cheb_coeffs, cheb_exp, choose_npoly,
                                 exact_exp, propagate, shift)
from phaseswe.testcase import physics_params

F0, G0, H0 = 1.0e-4, 9.8, 5960.0
GRID_12x8 = make_grid(12, 8, 1.5e6, 1.0e6)


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


def hermitian_defect(c):
    """Largest |c(k) - conj(c(-k))|, with c(-k) read at (-i % nx, -j % ny)."""
    nx, ny = c.shape
    mirror = c[np.ix_(-np.arange(nx) % nx, -np.arange(ny) % ny)]
    return float(np.max(np.abs(c - np.conj(mirror))))


def assert_matches_dense(got, state, params, t, rtol):
    want = dense_exp(t, state, params)
    scale = max(np.max(np.abs(c)) for c in (want.u, want.v, want.eta))
    for name in ("u", "v", "eta"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= rtol * scale
    assert got.t == state.t + t


def test_exact_exp_matches_dense_matrix_exponential(grid8, rng):
    # the 12 x 8 grid has Lx != Ly, so swapped kx and ky couplings would show;
    # f = 0 puts omega = 0 at the mean mode, the closed form's limit branch
    for grid, f in ((grid8, F0), (GRID_12x8, F0), (GRID_12x8, 0.0)):
        params = flat_bottom(grid, f, G0, H0)
        state = band_limited_state(grid, rng)
        for t in (500.0, -250.0):
            assert_matches_dense(exact_exp(t, state, params), state, params, t, 1e-12)


def test_mean_mode_rotates_at_inertial_frequency(grid32):
    params = flat(grid32)
    n2 = grid32.nx * grid32.ny
    u = np.zeros((32, 32), dtype=complex)
    u[0, 0] = n2  # physical u = 1 everywhere
    state = State(grid=grid32, u=u, v=np.zeros_like(u), eta=np.zeros_like(u))
    quarter = np.pi / (2.0 * F0)
    out = exact_exp(quarter, state, params)
    # u + i v rotates clockwise at f: after a quarter period (u, v) -> (0, -u)
    assert abs(out.u[0, 0]) <= 1e-12 * n2
    assert out.v[0, 0] == pytest.approx(-n2, rel=1e-12)
    assert np.max(np.abs(out.eta)) == 0.0


def test_cheb_coeffs_match_bessel_identity():
    lam = 5.0
    coeffs = cheb_coeffs(lam, 30)
    assert np.max(np.abs(coeffs - bessel_cheb_coeffs(lam, 30))) <= 1e-12


def test_cheb_coeffs_are_real_frozen_and_cached():
    coeffs = cheb_coeffs(6.2, 24)
    assert coeffs.dtype == np.float64
    assert coeffs.shape == (25,)
    assert not coeffs.flags.writeable
    assert cheb_coeffs(6.2, 24) is coeffs  # cached
    with pytest.raises(ValueError, match="Lambda"):
        cheb_coeffs(-1.0, 5)
    with pytest.raises(ValueError, match="n_poly"):
        cheb_coeffs(5.0, 0)


def test_choose_npoly_degree_bound_and_monotonicity():
    assert choose_npoly(0.0) == 1
    assert choose_npoly(10.0, 1e-10) == 28
    for lam in (1.0, 6.2, 20.0, 100.0):
        n = choose_npoly(lam, 1e-10)
        assert 1 <= n <= lam + 2.0 * lam ** (1.0 / 3.0) + 40.0
    assert choose_npoly(10.0, 1e-6) <= choose_npoly(10.0, 1e-10) \
        <= choose_npoly(10.0, 1e-12)
    with pytest.raises(ValueError, match="tol"):
        choose_npoly(5.0, 0.0)


def test_cheb_respects_requested_tolerance(grid32, rng):
    params = flat(grid32)
    lam = max_frequency(grid32, params) * 3600.0
    state = band_limited_state(grid32, rng)
    norm = energy_norm(state, params)
    want = exact_exp(3600.0, state, params)
    loose = cheb_exp(3600.0, state, params, PropagatorSpec.chebyshev(lam, tol=1e-6))
    assert energy_norm(loose - want, params) <= 1e-4 * norm


def test_cheb_rejects_time_outside_window(grid32, rng):
    params = flat(grid32)
    lam_max = max_frequency(grid32, params)
    spec = PropagatorSpec.chebyshev(lam_max * 100.0)
    state = band_limited_state(grid32, rng)
    with pytest.raises(ValueError, match="exceeds Lambda"):
        cheb_exp(200.0, state, params, spec)
    cheb_exp(100.0, state, params, spec)  # the endpoint itself is allowed
    cheb_exp(-100.0, state, params, spec)


def test_cheb_zero_time_is_identity(grid32, rng):
    params = flat(grid32)
    spec = PropagatorSpec.chebyshev(1.0)
    state = band_limited_state(grid32, rng)
    assert cheb_exp(0.0, state, params, spec) is state


def test_propagate_dispatches_on_kind(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    exact = propagate(600.0, state, params, PropagatorSpec.exact())
    assert np.array_equal(exact.u, exact_exp(600.0, state, params).u)
    lam = max_frequency(grid32, params) * 600.0
    spec = PropagatorSpec.chebyshev(lam)
    cheb = propagate(600.0, state, params, spec)
    assert np.array_equal(cheb.eta, cheb_exp(600.0, state, params, spec).eta)
    with pytest.raises(ValueError, match="chebyshev spec"):
        cheb_exp(1.0, state, params, PropagatorSpec.exact())


def test_propagator_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        PropagatorSpec(kind="taylor")
    with pytest.raises(ValueError, match="Lambda"):
        PropagatorSpec(kind="chebyshev", Lambda=-2.0)
    with pytest.raises(ValueError, match="n_poly"):
        PropagatorSpec(kind="chebyshev", Lambda=1.0, n_poly=0)
    with pytest.raises(ValueError, match="tol"):
        PropagatorSpec.chebyshev(1.0, tol=-1e-9)
    spec = PropagatorSpec.chebyshev(6.2, tol=1e-10)
    assert spec.n_poly == choose_npoly(6.2, 1e-10)


def test_cheb_preserves_hermitian_symmetry(grid32, rng):
    params = flat(grid32)
    lam = max_frequency(grid32, params) * 3600.0
    spec = PropagatorSpec.chebyshev(lam)
    state = band_limited_state(grid32, rng)
    out = cheb_exp(3600.0, state, params, spec)
    for c in (out.u, out.v, out.eta):
        assert hermitian_defect(c) <= 1e-13 * np.max(np.abs(c))


@pytest.mark.parametrize("route", ["exact", "chebyshev"])
def test_averaged_steps_keep_hermitian_symmetry(route, rng):
    # to_physical reads only the ky >= 0 half, so an operator that broke the
    # symmetry would go unseen there; the mountain, f != 0 and T > 0 bring
    # every operator of a step in: the route's exponential, the nonlinear
    # tendency and the averaging nodes
    grid = GRID_12x8
    case = replace(default_config(), r0=3.0e5, xc=4.0e5, yc=6.0e5)
    params = physics_params(case, grid)
    assert params.f != 0.0
    config = make_step_config(grid, params, dt=3600.0, T=3600.0, propagator=route)
    traj = run(band_limited_state(grid, rng), config, params, t_end=3 * 3600.0,
               snapshot_every=3600.0)
    assert traj.steps == [0, 1, 2, 3]
    for state in traj.states:
        for c in (state.u, state.v, state.eta):
            assert hermitian_defect(c) <= 1e-13 * np.max(np.abs(c))


def test_cheb_matches_dense_exponential_on_anisotropic_grid(rng):
    # nx != ny and Lx != Ly: swapped kx and ky couplings would show here
    params = flat(GRID_12x8)
    state = band_limited_state(GRID_12x8, rng)
    spec = PropagatorSpec.chebyshev(max_frequency(GRID_12x8, params) * 3600.0, tol=1e-12)
    for t in (3600.0, -1800.0):
        assert_matches_dense(cheb_exp(t, state, params, spec), state, params, t, 1e-10)


def test_exp_tables_are_keyed_on_grid_and_physics_values(rng):
    # grids that differ only in Lx, and params that differ only in H, share
    # shapes; a table keyed on shape or on object identity would reuse the
    # first entry for the second
    wide = make_grid(12, 8, 3.0e6, 1.0e6)
    state = band_limited_state(GRID_12x8, rng)
    cases = [(GRID_12x8, H0), (wide, H0), (GRID_12x8, 2.0 * H0)]
    for grid, depth in cases:
        params = flat_bottom(grid, F0, G0, depth)
        s = State(grid=grid, u=state.u, v=state.v, eta=state.eta)
        for t in (900.0, -900.0):
            assert_matches_dense(exact_exp(t, s, params), s, params, t, 1e-12)


SHIFT_GRIDS = (GRID_12x8, make_grid(18, 12, 2.5e6, 1.5e6))  # 18 x 12: kb = 4, wy = 0 .. 3


def shift_cases(rng):
    """Per grid: params, a band-limited state, its whole-grid stack and both specs."""
    for grid in SHIFT_GRIDS:
        params = flat(grid)
        state = band_limited_state(grid, rng)
        lam = max_frequency(grid, params) * 3600.0
        yield (grid, params, state, np.stack((state.u, state.v, state.eta)), lam,
               (PropagatorSpec.exact(), PropagatorSpec.chebyshev(lam)))


def test_forward_shift_is_bitwise_propagate(rng):
    # one shift of the whole-grid stack serves many s
    for grid, params, state, whole, lam, specs in shift_cases(rng):
        for spec in specs:
            on_grid = shift(whole, grid, params, spec)
            for s in (900.0, -1800.0, 3600.0, 900.0):
                moved = propagate(s, state, params, spec)
                assert moved.t == state.t + s
                assert np.array_equal(on_grid(s), np.stack((moved.u, moved.v, moved.eta)))
        assert np.array_equal(whole, np.stack((state.u, state.v, state.eta)))
        with pytest.raises(ValueError, match="stack"):
            shift(whole[:, :, :-1], grid, params, PropagatorSpec.exact())


def test_band_shift_is_bitwise_band_of_propagate(rng):
    # the same shift on the compact 2/3 band gives the band of the whole-grid result
    for grid, params, state, whole, lam, specs in shift_cases(rng):
        band = take_band(grid, whole)
        for spec in specs:
            on_band = shift(band, grid, params, spec)
            for s in (900.0, -1800.0, 3600.0, 900.0):
                moved = propagate(s, state, params, spec)
                want = np.stack((moved.u, moved.v, moved.eta))
                assert np.array_equal(on_band(s), take_band(grid, want))
        assert np.array_equal(band, take_band(grid, whole))
        with pytest.raises(ValueError, match="exceeds Lambda"):
            shift(band, grid, params, PropagatorSpec.chebyshev(lam))(7200.0)


def test_step_fills_coefficient_table_with_its_distinct_times(rng):
    params = flat(GRID_12x8)
    state = band_limited_state(GRID_12x8, rng)
    table = propagator._exp_coeffs
    table.cache_clear()
    config = make_step_config(GRID_12x8, params, 3600.0, T=3600.0, M=4)
    assert table.cache_info().currsize == 0  # filled during the solve only
    quad = config.quadrature
    # live shifts 900, 1800, 2700 s, plus dt and dt/2 (dt/2 = 1800 s again)
    times = {abs(float(s)) for s, w in zip(quad.s, quad.w) if w != 0.0 and s != 0.0}
    times |= {config.dt, 0.5 * config.dt}
    assert len(times) == 4
    out = step_averaged_ssprk3(state, config, params)
    # the step runs on the band: per |t| one band entry, copied from the one
    # whole-grid entry that evaluates the trigonometry
    info = table.cache_info()
    assert info.currsize == info.misses == 2 * len(times)
    key = propagator._table_key(GRID_12x8, params)
    for t in times:
        for ncols in (GRID_12x8.ny, band_width(GRID_12x8.ny)):
            table(key, ncols, t)
    assert table.cache_info().misses == 2 * len(times)  # exactly those entries
    step_averaged_ssprk3(out, config, params)
    assert table.cache_info().misses == 2 * len(times)
