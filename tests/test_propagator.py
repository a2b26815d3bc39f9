"""Exponential propagators against dense-matrix and Bessel-function oracles."""

from dataclasses import replace

import numpy as np
import pytest

from phaseswe import propagator
from phaseswe.config import default_config
from phaseswe.dynamics import (State, couplings, dispersion_omega, energy_norm,
                               flat_bottom, max_frequency)
from phaseswe.grid import band_width, make_grid
from phaseswe.integrator import make_step_config, run, step_averaged_ssprk3
from phaseswe.oracles import (band_limited_state, bessel_cheb_coeffs, dense_exp,
                              full_band_mask, take_band)
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
    q = np.zeros((3, 32, band_width(32)), dtype=complex)
    q[0, 0, 0] = n2  # physical u = 1 everywhere
    state = State(grid32, q)
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
    lam = max_frequency(params) * 3600.0
    state = band_limited_state(grid32, rng)
    norm = energy_norm(state, params)
    want = exact_exp(3600.0, state, params)
    loose = cheb_exp(3600.0, state, params, PropagatorSpec.chebyshev(lam, tol=1e-6))
    assert energy_norm(loose - want, params) <= 1e-4 * norm


def test_cheb_rejects_time_outside_window(grid32, rng):
    params = flat(grid32)
    lam_max = max_frequency(params)
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
    out = cheb_exp(0.0, state, params, spec)
    assert out.t == state.t
    for name in ("u", "v", "eta"):
        assert np.array_equal(getattr(out, name), getattr(state, name))


def test_propagate_dispatches_on_kind(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    exact = propagate(600.0, state, params, PropagatorSpec.exact())
    assert np.array_equal(exact.u, exact_exp(600.0, state, params).u)
    lam = max_frequency(params) * 600.0
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
    with pytest.raises(ValueError, match="tol"):
        PropagatorSpec(kind="chebyshev", Lambda=1.0, tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        PropagatorSpec.chebyshev(1.0, tol=-1e-9)
    with pytest.raises(TypeError):  # the degree follows from Lambda and tol
        PropagatorSpec(kind="chebyshev", Lambda=1.0, n_poly=50)
    spec = PropagatorSpec.chebyshev(6.2, tol=1e-10)
    assert spec.n_poly == choose_npoly(6.2, 1e-10)


def test_cheb_preserves_hermitian_symmetry(grid32, rng):
    params = flat(grid32)
    lam = max_frequency(params) * 3600.0
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
    spec = PropagatorSpec.chebyshev(max_frequency(params) * 3600.0, tol=1e-12)
    # each |t| runs its own degree, so the shorter shifts are checked too
    for t in (3600.0, -1800.0, 900.0, 1800.0, 2700.0):
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
        s = State(grid, state.q)
        for t in (900.0, -900.0):
            assert_matches_dense(exact_exp(t, s, params), s, params, t, 1e-12)


SHIFT_GRIDS = (GRID_12x8, make_grid(18, 12, 2.5e6, 1.5e6))  # 18 x 12: kb = 4, wy = 0 .. 3


def shift_cases(rng):
    """Per grid: params, a band-limited state, its band stack and both specs."""
    for grid in SHIFT_GRIDS:
        params = flat(grid)
        state = band_limited_state(grid, rng)
        lam = max_frequency(params) * 3600.0
        yield (grid, params, state, state.q, lam,
               (PropagatorSpec.exact(), PropagatorSpec.chebyshev(lam)))


SHIFT_TIMES = (900.0, -1800.0, 3600.0, 900.0)  # both signs, unequal Chebyshev degrees


def test_band_shift_is_bitwise_propagate(rng):
    # one shift of the band stack serves many s, and propagate is that shift
    # of the state's q; shift takes no other layout
    for grid, params, state, band, lam, specs in shift_cases(rng):
        before = band.copy()
        # every Chebyshev degree and the Lambda guard are sized from the
        # whole grid's omega, though the tables hold band columns only
        whole = np.max(dispersion_omega(grid.wavenumber_mesh(), params))
        assert couplings(params).max_omega == max_frequency(params) == whole
        for spec in specs:
            on_band = shift(band, params, spec, SHIFT_TIMES)
            assert on_band.shape == (len(SHIFT_TIMES),) + band.shape
            for s, row in zip(SHIFT_TIMES, on_band):
                moved = propagate(s, state, params, spec)
                assert moved.t == state.t + s
                assert np.array_equal(row, moved.q)
        assert np.array_equal(band, before)
        whole = np.stack((state.u, state.v, state.eta))
        kb = band_width(grid.ny)
        wide = np.zeros((3, grid.nx, kb + 1), dtype=complex)
        for bad in (whole, wide, band[:2]):
            with pytest.raises(ValueError, match=rf"\(3, {grid.nx}, {kb}\)"):
                shift(bad, params, PropagatorSpec.exact(), (900.0,))
        with pytest.raises(ValueError, match="exceeds Lambda"):
            shift(band, params, PropagatorSpec.chebyshev(lam), (900.0, 7200.0))


def test_state_exponentials_read_only_the_band(rng):
    # modes outside the 2/3 band cannot reach the exponentials: their band
    # columns are no State, take_band drops them, and every exponential of
    # the result is the clean state's and zero outside the band
    for grid in SHIFT_GRIDS:
        params = flat(grid)
        state = band_limited_state(grid, rng)
        noise = np.fft.fft2(rng.standard_normal((3, grid.nx, grid.ny)))
        noise[:, full_band_mask(grid)] = 0.0
        assert np.max(np.abs(noise)) > 0.0
        noisy = np.stack((state.u, state.v, state.eta)) + noise
        with pytest.raises(ValueError, match="outside the 2/3 band"):
            State(grid, noisy[..., : band_width(grid.ny)], t=state.t)
        kept = State(grid, take_band(grid, noisy), t=state.t)
        spec = PropagatorSpec.chebyshev(max_frequency(params) * 3600.0)
        for fn in (lambda x: propagate(-1800.0, x, params, PropagatorSpec.exact()),
                   lambda x: propagate(900.0, x, params, spec),
                   lambda x: exact_exp(3600.0, x, params),
                   lambda x: cheb_exp(-3600.0, x, params, spec),
                   lambda x: cheb_exp(0.0, x, params, spec)):
            got, want = fn(kept), fn(state)
            assert got.t == want.t
            assert np.array_equal(got.q, want.q)
            for name in ("u", "v", "eta"):
                assert not np.any(getattr(got, name)[~full_band_mask(grid)])


def test_multi_time_shift_rows_are_single_time_shifts(rng):
    # one call's rows come from one L q and L^2 q, or one Chebyshev
    # recurrence whose rows stop at their own degrees and fold in the sign
    # of t; each must be bitwise the shift of its time alone
    for grid, params, state, q, lam, specs in shift_cases(rng):
        omega = max_frequency(params)
        degrees = {choose_npoly(abs(s) * omega) for s in SHIFT_TIMES}
        assert len(degrees) == 3
        before = q.copy()
        for spec in specs:
            rows = shift(q, params, spec, SHIFT_TIMES)
            for s, row in zip(SHIFT_TIMES, rows):
                assert np.array_equal(row, shift(q, params, spec, (s,))[0])
            assert np.array_equal(q, before)
            buf = np.empty_like(rows)
            assert shift(q, params, spec, SHIFT_TIMES, out=buf) is buf
            assert np.array_equal(buf, rows)
            assert shift(q, params, spec, ()).shape == (0,) + q.shape
            with pytest.raises(ValueError, match="out"):
                shift(q, params, spec, SHIFT_TIMES[:2], out=buf)


def test_cheb_zero_shift_is_a_copy(rng):
    # Lambda_s = 0 at s = 0: the identity, with no recurrence to size
    params = flat(GRID_12x8)
    state = band_limited_state(GRID_12x8, rng)
    q = state.q
    spec = PropagatorSpec.chebyshev(max_frequency(params) * 3600.0)
    out = shift(q, params, spec, (0.0, 900.0, 0.0))
    for row in out[::2]:
        assert np.array_equal(row, q)
        assert not np.shares_memory(row, q)
    assert np.array_equal(out[1], shift(q, params, spec, (900.0,))[0])


def step_times(config):
    """The distinct |t| of one step's exponentials: the live node shifts, dt
    and dt/2."""
    quad = config.quadrature
    times = {abs(float(s)) for s, w in zip(quad.s, quad.w) if w != 0.0 and s != 0.0}
    return times | {config.dt, 0.5 * config.dt}


def test_step_fills_coefficient_table_with_its_distinct_times(rng):
    params = flat(GRID_12x8)
    state = band_limited_state(GRID_12x8, rng)
    table = propagator._exp_coeffs
    table.cache_clear()
    config = make_step_config(GRID_12x8, params, 3600.0, T=3600.0, M=4)
    assert table.cache_info().currsize == 0  # filled during the solve only
    # live shifts 900, 1800, 2700 s, plus dt and dt/2 (dt/2 = 1800 s again)
    times = step_times(config)
    assert len(times) == 4
    out = step_averaged_ssprk3(state, config, params)
    # one band entry per |t|, which evaluates the trigonometry
    info = table.cache_info()
    assert info.currsize == info.misses == len(times)
    cp = couplings(params)
    for t in times:
        table(cp, t)
    assert table.cache_info().misses == len(times)  # exactly those entries
    step_averaged_ssprk3(out, config, params)
    assert table.cache_info().misses == len(times)


def test_cheb_step_sizes_each_distinct_time(rng):
    # the Chebyshev twin: one coefficient entry per distinct |t|, each of
    # degree choose_npoly(|t| max_omega, tol)
    params = flat(GRID_12x8)
    state = band_limited_state(GRID_12x8, rng)
    table = propagator._sized_coeffs
    table.cache_clear()
    config = make_step_config(GRID_12x8, params, 3600.0, T=3600.0, M=4,
                              propagator="chebyshev", tol=1e-10)
    times = step_times(config)
    assert times == {900.0, 1800.0, 2700.0, 3600.0}
    out = step_averaged_ssprk3(state, config, params)
    info = table.cache_info()
    assert info.currsize == info.misses == len(times)
    omega = couplings(params).max_omega
    for t in times:
        assert len(table(t * omega, 1e-10)) - 1 == choose_npoly(t * omega, 1e-10)
    assert table.cache_info().misses == len(times)  # exactly those entries
    # the spec's degree is the largest a step runs, the one at |t| = dt
    assert len(table(3600.0 * omega, 1e-10)) - 1 == config.propagator_spec.n_poly
    step_averaged_ssprk3(out, config, params)
    assert table.cache_info().misses == len(times)


def test_coefficient_caches_hold_a_sixteen_node_step(rng):
    # an M = 16 step asks for 16 distinct |t|: every coefficient entry it
    # makes stays cached, so a second step sizes nothing again
    params = flat(GRID_12x8)
    state = band_limited_state(GRID_12x8, rng)
    config = make_step_config(GRID_12x8, params, 3600.0, T=3600.0, M=16,
                              propagator="chebyshev", tol=1e-10)
    n_times = len(step_times(config))
    assert n_times == 16
    propagator._sized_coeffs.cache_clear()
    out = step_averaged_ssprk3(state, config, params)
    step_averaged_ssprk3(out, config, params)
    info = propagator._sized_coeffs.cache_info()
    assert info.misses == info.currsize == n_times
