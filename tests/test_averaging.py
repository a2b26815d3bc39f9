"""Quadrature construction and the phase-averaged nonlinear tendency."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from phaseswe import dynamics, propagator
from phaseswe import grid as grid_module
from phaseswe.averaging import (Quadrature, averaged_tendency,
                                default_node_count, kernel_weights)
from phaseswe.dynamics import (PhysicsParams, State, apply_nonlinear, energy_norm,
                               flat_bottom, max_frequency)
from phaseswe.grid import band, make_grid
from phaseswe.oracles import band_limited_state, full_band_mask, take_band
from phaseswe.propagator import PropagatorSpec, propagate, shift

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


def nonlinear_state(state, params):
    # N(U) of a State, through the band kernel
    return State(state.grid, apply_nonlinear(state.q, params), t=state.t)


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
    return PhysicsParams(grid, F0, G0, H0, ridge)


def test_averaged_tendency_matches_explicit_node_loop(grid32, rng):
    # the 12 x 8 grid has Lx != Ly and carries topography; both propagator
    # routes shift the nodes on the band
    grid12x8 = make_grid(12, 8, 1.5e6, 1.0e6)
    cases = [(grid, params, spec)
             for grid, params in ((grid32, flat(grid32)), (grid12x8, topography(grid12x8)))
             for spec in (PropagatorSpec.exact(),
                          PropagatorSpec.chebyshev(max_frequency(params) * 1800.0))]
    for grid, params, spec in cases:
        state = band_limited_state(grid, rng)
        quad = kernel_weights(1800.0, 3)
        got = averaged_tendency(state, quad, params, spec)

        acc = np.zeros_like(state.q)
        for i in range(len(quad.s)):
            w = quad.w[i]
            if w == 0.0:
                continue
            s = float(quad.s[i])
            if s == 0.0:
                term = nonlinear_state(state, params)
            else:
                term = propagate(-s, nonlinear_state(
                    propagate(s, state, params, spec), params), params, spec)
            acc += w * term.q
        assert np.array_equal(got.q, acc)


def hermitian_mirror(c):
    # c(-k) in place of c(k), for the fft2 layout
    return c[(-np.arange(c.shape[0])) % c.shape[0]][:, (-np.arange(c.shape[1])) % c.shape[1]]


@pytest.mark.parametrize("route", ["exact", "chebyshev"])
def test_averaged_tendency_is_hermitian_and_band_limited(route, rng):
    for grid in (make_grid(12, 18, 1.5e6, 2.5e6), make_grid(18, 12, 2.5e6, 1.5e6)):
        params = topography(grid)
        spec = (PropagatorSpec.exact() if route == "exact" else
                PropagatorSpec.chebyshev(max_frequency(params) * 3600.0))
        got = averaged_tendency(band_limited_state(grid, rng), kernel_weights(3600.0, 4),
                                params, spec)
        for c in (got.u, got.v, got.eta):
            assert np.array_equal(hermitian_mirror(c), np.conj(c))
            assert np.all(c[~full_band_mask(grid)] == 0.0)
            assert np.any(c != 0.0)


def test_out_of_band_input_leaves_averaged_tendency_unchanged(rng):
    # full spectra with nonzero modes outside the 2/3 band cannot be a State
    # as they are; take_band drops those modes, and the averaged tendency of
    # the result is the clean state's, bit for bit
    grid = make_grid(18, 12, 2.5e6, 1.5e6)
    params = topography(grid)
    state = band_limited_state(grid, rng)
    noise = np.fft.fft2(rng.standard_normal((3, grid.nx, grid.ny)))
    noise[:, full_band_mask(grid)] = 0.0
    assert all(np.any(c != 0.0) for c in noise)
    noisy = np.stack((state.u, state.v, state.eta)) + noise
    with pytest.raises(ValueError, match="outside the 2/3 band"):
        State(grid, noisy[..., : band(grid).kb])
    kept = State(grid, take_band(grid, noisy), t=state.t)
    for spec in (PropagatorSpec.exact(),
                 PropagatorSpec.chebyshev(max_frequency(params) * 3600.0)):
        for quad in (kernel_weights(0.0, 0), kernel_weights(3600.0, 4)):
            want = averaged_tendency(state, quad, params, spec)
            got = averaged_tendency(kept, quad, params, spec)
            assert np.array_equal(got.q, want.q)


def test_zero_window_reduces_to_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    got = averaged_tendency(state, kernel_weights(0.0, 0), params,
                            PropagatorSpec.exact())
    want = nonlinear_state(state, params)
    assert np.array_equal(got.q, want.q)


def test_small_window_approaches_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    plain = nonlinear_state(state, params)
    tiny = averaged_tendency(state, kernel_weights(1e-2, 4), params,
                             PropagatorSpec.exact())
    rel = energy_norm(tiny - plain, params) / energy_norm(plain, params)
    assert rel <= 1e-6


def test_wide_window_differs_from_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    plain = nonlinear_state(state, params)
    lam = max_frequency(params)
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
        assert np.array_equal(parallel.q, serial.q)


def test_pool_filling_empty_tables_matches_serial(grid32, rng):
    # eight threads may miss the same table entries at once; whichever copy
    # the cache keeps, every thread computes the same values, and each
    # Chebyshev shift runs in buffers of its own call; a buffer shared by the
    # threads showed as a mismatch in about half of such pooled calls
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    quad = kernel_weights(3600.0, 16)
    lam = max_frequency(params) * 3600.0
    for spec in (PropagatorSpec.exact(), PropagatorSpec.chebyshev(lam)):
        serial = averaged_tendency(state, quad, params, spec)
        for _ in range(3):
            for table in (dynamics._couplings, propagator._exp_coeffs,
                          propagator._recurrence, propagator._sized_coeffs):
                table.cache_clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often, inside the misses too
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    pooled = averaged_tendency(state, quad, params, spec, executor=pool)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(pooled.q, serial.q)


def test_each_thread_has_its_own_workspace(grid32, rng):
    # apply_nonlinear and the Chebyshev recurrence keep every intermediate in
    # the calling thread's scratch arrays; four threads running both at once
    # on different inputs must reproduce the serial results bitwise
    params = PhysicsParams(grid32, F0, G0, H0, 30.0 * rng.standard_normal((32, 32)))
    spec = PropagatorSpec.chebyshev(max_frequency(params) * 3600.0)
    inputs = [band_limited_state(grid32, rng).q for _ in range(8)]

    def work(q):
        return (apply_nonlinear(q, params),
                shift(q, params, spec, (900.0, -1800.0, 3600.0)))

    serial = [work(q) for q in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the kernels too
    try:
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=4) as pool:
                pooled = list(pool.map(work, inputs + inputs[::-1], timeout=60))
            for (tend, moved), (want_tend, want_moved) in zip(pooled,
                                                              serial + serial[::-1]):
                assert np.array_equal(tend, want_tend)
                assert np.array_equal(moved, want_moved)
    finally:
        sys.setswitchinterval(interval)


def test_node_failure_reports_node_index(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    quad = kernel_weights(1800.0, 3)

    def broken(q, p):
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match=r"averaging node k = -2 .*boom"):
        averaged_tendency(state, quad, params, PropagatorSpec.exact(),
                          nonlinear=broken)
    with ThreadPoolExecutor(max_workers=4) as pool:
        with pytest.raises(RuntimeError, match="averaging node"):
            averaged_tendency(state, quad, params, PropagatorSpec.exact(),
                              executor=pool, nonlinear=broken)


def test_windows_of_any_size_keep_one_pair_of_node_stacks(grid32, rng):
    # a sweep runs windows of different M on one thread: after its largest
    # window, smaller ones reuse the node stacks and keep nothing more
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    spec = PropagatorSpec.exact()
    averaged_tendency(state, kernel_weights(3600.0, 8), params, spec)
    held = sum(a.nbytes for a in grid_module._scratch.buffers.values())
    for M in (4, 6, 3):
        averaged_tendency(state, kernel_weights(3600.0, M), params, spec)
        assert sum(a.nbytes for a in grid_module._scratch.buffers.values()) == held


def test_forward_shift_failure_names_the_window(grid32, rng):
    # the live nodes reach |s| = 1200 s, beyond a Lambda sized for 900 s
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    spec = PropagatorSpec.chebyshev(max_frequency(params) * 900.0)
    with pytest.raises(RuntimeError,
                       match=r"forward shifts .*\|s\| up to 1200 s.*exceeds Lambda"):
        averaged_tendency(state, kernel_weights(1800.0, 3), params, spec)


def test_bump_kernel_profile_values():
    # nodes at x = s / T = -1, -1/2, 0, 1/2, 1 sample rho(x) = exp(-1/(1 - x^2))
    w = kernel_weights(3600.0, 2).w
    rho = np.array([0.0, np.exp(-1.0 / 0.75), np.exp(-1.0), np.exp(-1.0 / 0.75), 0.0])
    assert w[0] == 0.0 and w[4] == 0.0
    assert w[1] / w[2] == pytest.approx(np.exp(-1.0 / 3.0), rel=1e-15)
    assert np.allclose(w, rho / rho.sum(), rtol=1e-15, atol=0.0)
