"""Quadrature construction and the phase-averaged nonlinear tendency."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from phaseswe import propagator
from phaseswe.averaging import (Quadrature, averaged_tendency,
                                default_node_count, kernel_weights)
from phaseswe.dynamics import (PhysicsParams, State, apply_nonlinear, energy_norm,
                               flat_bottom, max_frequency)
from phaseswe.grid import dealias, make_grid, to_spectral
from phaseswe.oracles import band_limited_state
from phaseswe.propagator import PropagatorSpec, propagate

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


def test_weights_sum_to_one_and_are_symmetric():
    quad = kernel_weights(3600.0, 5)
    assert quad.s.shape == (11,)
    assert abs(float(quad.w.sum()) - 1.0) <= 1e-14
    assert np.array_equal(quad.w, quad.w[::-1])
    assert np.array_equal(quad.s, -quad.s[::-1])
    assert quad.s[5] == 0.0
    assert np.all(quad.w[1:-1] > 0.0)


def test_bump_kernel_vanishes_at_window_edges():
    quad = kernel_weights(7200.0, 8)
    assert quad.w[0] == 0.0
    assert quad.w[-1] == 0.0
    # interior weights decay towards the edges
    assert quad.w[8] == max(quad.w)
    assert quad.w[1] < quad.w[4] < quad.w[8]


def test_degenerate_and_invalid_windows():
    quad = kernel_weights(0.0, 0)
    assert np.array_equal(quad.s, [0.0])
    assert np.array_equal(quad.w, [1.0])
    assert kernel_weights(500.0, 0).w[0] == 1.0
    with pytest.raises(ValueError, match="T = 0"):
        kernel_weights(0.0, 2)
    with pytest.raises(ValueError, match="T"):
        kernel_weights(-1.0, 2)
    with pytest.raises(ValueError, match="M"):
        kernel_weights(100.0, -1)


def test_quadrature_validation():
    with pytest.raises(ValueError, match="nodes and weights"):
        Quadrature(T=1.0, M=2, s=np.zeros(3), w=np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError, match="sum"):
        Quadrature(T=1.0, M=1, s=np.array([-1.0, 0.0, 1.0]),
                   w=np.array([0.2, 0.2, 0.2]))
    with pytest.raises(ValueError, match="symmetric about 0"):
        Quadrature(T=1.0, M=1, s=np.array([-0.5, 0.0, 1.0]),
                   w=np.array([0.25, 0.5, 0.25]))
    with pytest.raises(ValueError, match="weights must be symmetric"):
        Quadrature(T=1.0, M=1, s=np.array([-1.0, 0.0, 1.0]),
                   w=np.array([0.5, 0.25, 0.25]))


def test_default_node_count_resolves_fastest_phase():
    lam = 1.720899454284647e-3  # fastest mode of the 64 x 64 default domain
    assert default_node_count(0.0, lam) == 0
    assert default_node_count(1.0, lam) == 4       # floor of 4
    assert default_node_count(3600.0, lam) == 4
    assert default_node_count(7200.0, lam) == 4
    assert default_node_count(14400.0, lam) == 8
    assert default_node_count(28800.0, lam) == 16


def topography(grid):
    # a smooth ridge of amplitude 200 m, not aligned with either axis
    x, y = grid.x[:, None], grid.y[None, :]
    ridge = 200.0 * np.cos(2.0 * np.pi * (x / grid.Lx + y / grid.Ly))
    return PhysicsParams(f=F0, g=G0, H=H0, b=dealias(grid, to_spectral(grid, ridge)))


def test_averaged_tendency_matches_explicit_node_loop(grid32, rng):
    # the 12 x 8 grid has Lx != Ly and carries topography; both propagator
    # routes shift the nodes on the band
    grid12x8 = make_grid(12, 8, 1.5e6, 1.0e6)
    cases = [(grid, params, spec)
             for grid, params in ((grid32, flat(grid32)), (grid12x8, topography(grid12x8)))
             for spec in (PropagatorSpec.exact(),
                          PropagatorSpec.chebyshev(max_frequency(grid, params) * 1800.0))]
    for grid, params, spec in cases:
        state = band_limited_state(grid, rng)
        quad = kernel_weights(1800.0, 3)
        got = averaged_tendency(state, quad, params, spec)

        acc_u = np.zeros_like(state.u)
        acc_v = np.zeros_like(state.v)
        acc_eta = np.zeros_like(state.eta)
        for i in range(len(quad.s)):
            w = quad.w[i]
            if w == 0.0:
                continue
            s = float(quad.s[i])
            if s == 0.0:
                term = apply_nonlinear(state, params)
            else:
                term = propagate(-s, apply_nonlinear(
                    propagate(s, state, params, spec), params), params, spec)
            acc_u += w * term.u
            acc_v += w * term.v
            acc_eta += w * term.eta
        assert np.array_equal(got.u, acc_u)
        assert np.array_equal(got.v, acc_v)
        assert np.array_equal(got.eta, acc_eta)


def hermitian_mirror(c):
    # c(-k) in place of c(k), for the fft2 layout
    return c[(-np.arange(c.shape[0])) % c.shape[0]][:, (-np.arange(c.shape[1])) % c.shape[1]]


@pytest.mark.parametrize("route", ["exact", "chebyshev"])
def test_averaged_tendency_is_hermitian_and_band_limited(route, rng):
    for grid in (make_grid(12, 18, 1.5e6, 2.5e6), make_grid(18, 12, 2.5e6, 1.5e6)):
        params = topography(grid)
        spec = (PropagatorSpec.exact() if route == "exact" else
                PropagatorSpec.chebyshev(max_frequency(grid, params) * 3600.0))
        got = averaged_tendency(band_limited_state(grid, rng), kernel_weights(3600.0, 4),
                                params, spec)
        for c in (got.u, got.v, got.eta):
            assert np.array_equal(hermitian_mirror(c), np.conj(c))
            assert np.all(c[~grid.dealias_mask] == 0.0)
            assert np.any(c != 0.0)


def test_out_of_band_input_leaves_averaged_tendency_unchanged(rng):
    grid = make_grid(18, 12, 2.5e6, 1.5e6)
    params = topography(grid)
    state = band_limited_state(grid, rng)
    noise = [c - dealias(grid, c) for c in
             (to_spectral(grid, rng.standard_normal((grid.nx, grid.ny))) for _ in range(3))]
    assert all(np.any(c != 0.0) for c in noise)
    noisy = State(grid=grid, u=state.u + noise[0], v=state.v + noise[1],
                  eta=state.eta + noise[2])
    for spec in (PropagatorSpec.exact(),
                 PropagatorSpec.chebyshev(max_frequency(grid, params) * 3600.0)):
        for quad in (kernel_weights(0.0, 0), kernel_weights(3600.0, 4)):
            want = averaged_tendency(state, quad, params, spec)
            got = averaged_tendency(noisy, quad, params, spec)
            for name in ("u", "v", "eta"):
                assert np.array_equal(getattr(got, name), getattr(want, name))


def test_zero_window_reduces_to_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    got = averaged_tendency(state, kernel_weights(0.0, 0), params,
                            PropagatorSpec.exact())
    want = apply_nonlinear(state, params)
    assert np.array_equal(got.u, want.u)
    assert np.array_equal(got.v, want.v)
    assert np.array_equal(got.eta, want.eta)


def test_small_window_approaches_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    plain = apply_nonlinear(state, params)
    tiny = averaged_tendency(state, kernel_weights(1e-2, 4), params,
                             PropagatorSpec.exact())
    rel = energy_norm(tiny - plain, params) / energy_norm(plain, params)
    assert rel <= 1e-6


def test_wide_window_differs_from_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    plain = apply_nonlinear(state, params)
    lam = max_frequency(grid32, params)
    T = 4.0 * np.pi / lam  # several periods of the fastest wave
    wide = averaged_tendency(state, kernel_weights(T, 16), params,
                             PropagatorSpec.exact())
    rel = energy_norm(wide - plain, params) / energy_norm(plain, params)
    assert rel > 1e-2


def test_result_is_bitwise_independent_of_worker_count(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    quad = kernel_weights(3600.0, 4)
    spec = PropagatorSpec.exact()
    serial = averaged_tendency(state, quad, params, spec)
    for workers in (1, 2, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parallel = averaged_tendency(state, quad, params, spec, executor=pool)
        assert np.array_equal(parallel.u, serial.u)
        assert np.array_equal(parallel.v, serial.v)
        assert np.array_equal(parallel.eta, serial.eta)


def test_pool_filling_empty_tables_matches_serial(grid32, rng):
    # eight threads may miss the same table entries at once; whichever copy
    # the cache keeps, every thread computes the same values
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    quad = kernel_weights(3600.0, 4)
    spec = PropagatorSpec.exact()
    propagator._couplings.cache_clear()
    propagator._exp_coeffs.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the misses too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            pooled = averaged_tendency(state, quad, params, spec, executor=pool)
    finally:
        sys.setswitchinterval(interval)
    serial = averaged_tendency(state, quad, params, spec)
    assert np.array_equal(pooled.u, serial.u)
    assert np.array_equal(pooled.v, serial.v)
    assert np.array_equal(pooled.eta, serial.eta)


def test_node_failure_reports_node_index(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    quad = kernel_weights(1800.0, 3)

    def broken(s, p):
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match=r"averaging node k = -2 .*boom"):
        averaged_tendency(state, quad, params, PropagatorSpec.exact(),
                          nonlinear=broken)
    with ThreadPoolExecutor(max_workers=4) as pool:
        with pytest.raises(RuntimeError, match="averaging node"):
            averaged_tendency(state, quad, params, PropagatorSpec.exact(),
                              executor=pool, nonlinear=broken)


def test_bump_kernel_profile_values():
    # nodes at x = s / T = -1, -1/2, 0, 1/2, 1 sample rho(x) = exp(-1/(1 - x^2))
    w = kernel_weights(3600.0, 2).w
    rho = np.array([0.0, np.exp(-1.0 / 0.75), np.exp(-1.0), np.exp(-1.0 / 0.75), 0.0])
    assert w[0] == 0.0 and w[4] == 0.0
    assert w[1] / w[2] == pytest.approx(np.exp(-1.0 / 3.0), rel=1e-15)
    assert np.allclose(w, rho / rho.sum(), rtol=1e-15, atol=0.0)
