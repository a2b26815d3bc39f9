"""Quadrature construction and the phase-averaged nonlinear tendency."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from phaseswe import dynamics, propagator
from phaseswe import grid as grid_module
from phaseswe.averaging import (Quadrature, averaged_tendency, band_averaged_tendency,
                                default_node_count)
from phaseswe.dynamics import (PhysicsParams, State, apply_nonlinear, energy_norm,
                               flat_bottom, max_frequency)
from phaseswe.grid import SpectralGrid, band, from_band
from phaseswe.oracles import (band_limited_state, full_band_mask, linear_mode_matrix,
                              take_band)
from phaseswe.propagator import PropagatorSpec, propagate, shift

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


def nonlinear_state(state, params):
    # N(U) of a State, through the band kernel
    return State(state.grid, apply_nonlinear(state.q, params), t=state.t)


def test_weights_sum_to_one_and_are_symmetric():
    quad = Quadrature(3600.0, 5)
    assert quad.s.shape == (9,)
    assert abs(float(quad.w.sum()) - 1.0) <= 1e-14
    assert np.array_equal(quad.w, quad.w[::-1])
    assert np.array_equal(quad.s, -quad.s[::-1])
    assert quad.s[4] == 0.0
    assert np.all(quad.w > 0.0)


def test_bump_kernel_vanishes_at_window_edges():
    # the bump is zero at s = +-T, so the window keeps only the nodes
    # strictly inside it, and the nodes next to the edges weigh least
    T = 7200.0
    quad = Quadrature(T, 8)
    assert np.all(np.abs(quad.s) < T)
    assert quad.s[0] == -7.0 * T / 8.0 and quad.s[-1] == 7.0 * T / 8.0
    assert quad.w[0] == quad.w[-1] == min(quad.w)
    # interior weights decay towards the edges
    assert quad.w[7] == max(quad.w)
    assert quad.w[0] < quad.w[3] < quad.w[7]


def test_degenerate_and_invalid_windows():
    quad = Quadrature(0.0, 0)
    assert np.array_equal(quad.s, [0.0])
    assert np.array_equal(quad.w, [1.0])
    assert Quadrature(500.0, 0).w[0] == 1.0
    with pytest.raises(ValueError, match="T = 0"):
        Quadrature(0.0, 2)
    with pytest.raises(ValueError, match="T"):
        Quadrature(-1.0, 2)
    with pytest.raises(ValueError, match="M"):
        Quadrature(100.0, -1)


@pytest.mark.parametrize("T, M", [(0.0, 0), (1800.0, 1), (3600.0, 4), (28800.0, 16)])
def test_built_quadrature_is_normalised_and_symmetric(T, M):
    # the nodes and weights are built from (T, M) alone, never passed in,
    # and their shape, sum and symmetry hold by construction
    quad = Quadrature(T, M)
    assert (quad.T, quad.M) == (T, M)
    assert quad.s.shape == quad.w.shape == (max(2 * M - 1, 1),)
    assert abs(float(quad.w.sum()) - 1.0) <= 1e-14
    assert np.array_equal(quad.s, -quad.s[::-1])
    assert np.array_equal(quad.w, quad.w[::-1])
    assert not (quad.s.flags.writeable or quad.w.flags.writeable)
    assert np.all(quad.w > 0.0)
    if M > 0:
        assert np.array_equal(quad.s, np.arange(1 - M, M) * (T / M))
    for name in ("s", "w"):
        with pytest.raises(TypeError, match=name):
            Quadrature(T, M, **{name: np.zeros(len(quad.s))})


def full_bump(T, M):
    """The 2M + 1 nodes s_k = k T / M, |k| <= M, and the bump's weights on
    them, zero at both edges, normalised twice so that they sum to 1.0."""
    s = np.arange(-M, M + 1) * (T / M)
    x = s / T
    rho = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    rho[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    w = rho / float(rho.sum())
    return s, w / float(w.sum())


@pytest.mark.parametrize("M", [1, 2, 3, 4, 16, 64])
@pytest.mark.parametrize("T", [1800.0, 3600.0, 28800.0])
def test_nodes_are_the_nonzero_weight_nodes_of_the_full_bump(T, M):
    # the weights are normalised over all 2M + 1 nodes, edges included, and
    # only then are the two zero edge terms dropped: a sum over the interior
    # alone could round differently
    s, w = full_bump(T, M)
    assert w[0] == w[-1] == 0.0 and np.all(w[1:-1] > 0.0)
    quad = Quadrature(T, M)
    assert quad.s.tobytes() == s[1:-1].tobytes()
    assert quad.w.tobytes() == w[1:-1].tobytes()
    if M == 1:
        assert np.array_equal(quad.s, [0.0]) and np.array_equal(quad.w, [1.0])


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
    grid12x8 = SpectralGrid(12, 8, 1.5e6, 1.0e6)
    cases = [(grid, params, spec)
             for grid, params in ((grid32, flat(grid32)), (grid12x8, topography(grid12x8)))
             for spec in (PropagatorSpec.exact(),
                          PropagatorSpec.chebyshev(max_frequency(params) * 1800.0))]
    for grid, params, spec in cases:
        state = band_limited_state(grid, rng)
        quad = Quadrature(1800.0, 3)
        got = averaged_tendency(state, quad, params, spec)

        acc = np.zeros_like(state.q)
        for s, w in zip(quad.s, quad.w):
            s = float(s)
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
    for grid in (SpectralGrid(12, 18, 1.5e6, 2.5e6), SpectralGrid(18, 12, 2.5e6, 1.5e6)):
        params = topography(grid)
        spec = (PropagatorSpec.exact() if route == "exact" else
                PropagatorSpec.chebyshev(max_frequency(params) * 3600.0))
        got = averaged_tendency(band_limited_state(grid, rng), Quadrature(3600.0, 4),
                                params, spec)
        for c in (got.u, got.v, got.eta):
            assert np.array_equal(hermitian_mirror(c), np.conj(c))
            assert np.all(c[~full_band_mask(grid)] == 0.0)
            assert np.any(c != 0.0)


def test_out_of_band_input_leaves_averaged_tendency_unchanged(rng):
    # full spectra with nonzero modes outside the 2/3 band cannot be a State
    # as they are; take_band drops those modes, and the averaged tendency of
    # the result is the clean state's, bit for bit
    grid = SpectralGrid(18, 12, 2.5e6, 1.5e6)
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
        for quad in (Quadrature(0.0, 0), Quadrature(3600.0, 4)):
            want = averaged_tendency(state, quad, params, spec)
            got = averaged_tendency(kept, quad, params, spec)
            assert np.array_equal(got.q, want.q)


def test_zero_window_reduces_to_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    got = averaged_tendency(state, Quadrature(0.0, 0), params,
                            PropagatorSpec.exact())
    want = nonlinear_state(state, params)
    assert np.array_equal(got.q, want.q)


def test_small_window_approaches_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    plain = nonlinear_state(state, params)
    tiny = averaged_tendency(state, Quadrature(1e-2, 4), params,
                             PropagatorSpec.exact())
    rel = energy_norm(tiny - plain, params) / energy_norm(plain, params)
    assert rel <= 1e-6


def test_wide_window_differs_from_plain_nonlinearity(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    plain = nonlinear_state(state, params)
    lam = max_frequency(params)
    T = 4.0 * np.pi / lam  # several periods of the fastest wave
    wide = averaged_tendency(state, Quadrature(T, 16), params,
                             PropagatorSpec.exact())
    rel = energy_norm(wide - plain, params) / energy_norm(plain, params)
    assert rel > 1e-2


def eigenbasis(params, wave):
    """L's eigenvalues and eigenvector columns at the integer wavevector wave."""
    grid = params.grid
    return np.linalg.eig(linear_mode_matrix(grid.kx[wave[0] % grid.nx],
                                            grid.ky[wave[1] % grid.ny],
                                            params.f, params.g, params.H))


@pytest.mark.parametrize("M", [4, 16])
def test_window_scales_each_interaction_by_its_frequency_response(M):
    # On a flat bottom N is quadratic.  U holds two inertia-gravity
    # eigenmodes, at +omega_1 and +omega_2, and their mirrors at -omega, so
    # N(e^{Ls} U) at K = p + r oscillates as e^{i (omega_p + omega_r) s}, and
    # e^{-Ls} turns its eigenmode of frequency omega_out at K into
    # e^{-i dw s}, dw = omega_out - (omega_p + omega_r).  The window then
    # multiplies that amplitude of N(U) by W(dw) = sum_k w_k e^{i dw s_k}.
    grid = SpectralGrid(12, 8, 1.5e6, 1.0e6)
    params = flat(grid)
    quad = Quadrature(3600.0, M)
    full, freq = np.zeros((3, grid.nx, grid.ny), dtype=complex), {}
    for (mx, my), amp in (((1, 1), 300.0), ((2, -1), 200.0 - 100.0j)):
        lam, vec = eigenbasis(params, (mx, my))
        j = int(np.argmax(lam.imag))
        full[:, mx % grid.nx, my % grid.ny] = amp * vec[:, j]
        full[:, -mx % grid.nx, -my % grid.ny] = np.conj(amp * vec[:, j])
        freq[mx, my], freq[-mx, -my] = lam[j].imag, -lam[j].imag
    # sums and differences are distinct: each output K has one frequency
    pairs = {}
    for p in freq:
        for r in freq:
            pairs.setdefault((p[0] + r[0], p[1] + r[1]), set()).add(freq[p] + freq[r])
    assert all(len(omegas) == 1 for omegas in pairs.values())

    q = State(grid, take_band(grid, full)).q
    plain = from_band(grid, apply_nonlinear(q, params))
    avg = from_band(grid, band_averaged_tendency(q, quad, params, PropagatorSpec.exact()))
    kept = {K: omegas.pop() for K, omegas in pairs.items()
            if 3 * abs(K[0]) < grid.nx and 3 * abs(K[1]) < grid.ny}
    largest = float(np.max(np.abs(plain)))
    checked = 0
    for K, omega in kept.items():
        lam, vec = eigenbasis(params, K)
        col = (slice(None), K[0] % grid.nx, K[1] % grid.ny)
        a_plain, a_avg = np.linalg.solve(vec, plain[col]), np.linalg.solve(vec, avg[col])
        for j in range(3):
            W = np.sum(quad.w * np.exp(1j * (lam[j].imag - omega) * quad.s))
            if abs(a_plain[j]) > 1e-6 * largest:
                assert abs(a_avg[j] / a_plain[j] - W) <= 1e-12
                checked += 1
            else:  # an eigenmode absent from N(U) is absent from the average too
                assert abs(a_avg[j]) <= 1e-12 * largest
    assert checked == 14


def test_result_is_bitwise_independent_of_worker_count(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    quad = Quadrature(3600.0, 4)
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
    quad = Quadrature(3600.0, 16)
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
    quad = Quadrature(1800.0, 3)

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
    averaged_tendency(state, Quadrature(3600.0, 8), params, spec)
    held = sum(a.nbytes for a in grid_module._scratch.buffers.values())
    for M in (4, 6, 3):
        averaged_tendency(state, Quadrature(3600.0, M), params, spec)
        assert sum(a.nbytes for a in grid_module._scratch.buffers.values()) == held


def test_forward_shift_failure_names_the_window(grid32, rng):
    # the nodes reach |s| = 1200 s, beyond a Lambda sized for 900 s
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    spec = PropagatorSpec.chebyshev(max_frequency(params) * 900.0)
    with pytest.raises(RuntimeError,
                       match=r"forward shifts .*\|s\| up to 1200 s.*exceeds Lambda"):
        averaged_tendency(state, Quadrature(1800.0, 3), params, spec)


def test_bump_kernel_profile_values():
    # nodes at x = s / T = -1/2, 0, 1/2 sample rho(x) = exp(-1/(1 - x^2));
    # the edges x = -1 and 1, where rho is 0, hold no node
    quad = Quadrature(3600.0, 2)
    w = quad.w
    rho = np.array([np.exp(-1.0 / 0.75), np.exp(-1.0), np.exp(-1.0 / 0.75)])
    assert np.array_equal(quad.s / quad.T, [-0.5, 0.0, 0.5])
    assert w[0] / w[1] == pytest.approx(np.exp(-1.0 / 3.0), rel=1e-15)
    assert np.allclose(w, rho / rho.sum(), rtol=1e-15, atol=0.0)
