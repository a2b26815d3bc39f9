"""Linear and nonlinear tendency operators against independent oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

import phaseswe.dynamics as dynamics
from phaseswe.config import default_config
from phaseswe.dynamics import (PhysicsParams, State, apply_linear,
                               apply_nonlinear, dispersion_omega, energy_inner,
                               energy_norm, flat_bottom, max_frequency)
from phaseswe.grid import band, from_band, make_grid, mirror_ky0, to_spectral
from phaseswe.oracles import (band_limited_state, full_band_mask, linear_tendency,
                              nonlinear_tendency, take_band, wrap_indices)
from phaseswe.propagator import exact_exp
from phaseswe.testcase import balanced_jet, physics_params

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


def nonlinear_state(state, params):
    # N(U) of a State, through the band kernel
    return State(state.grid, apply_nonlinear(state.q, params), t=state.t)


def test_linear_matches_per_mode_matrix(grid8, rng):
    params = flat(grid8)
    # arbitrary complex coefficients on the band: the identity is per mode;
    # column ky = 0 is mirrored, as the oracle reads the full spectra
    noise = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
    state = State(grid8, mirror_ky0(take_band(grid8, noise)))
    out = apply_linear(state, params).q
    want = linear_tendency(state, params).q
    assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(out))


def test_nonlinear_matches_convolution_oracle(grid8, rng):
    # the 12 x 8 grid is anisotropic and has nx divisible by 3, where a
    # 2/3 band that kept |wrap| = n/3 would alias
    for grid in (grid8, make_grid(12, 8, 1.5e6, 1.0e6)):
        state = band_limited_state(grid, rng, vel_scale=2.0, eta_scale=20.0)
        b_phys = 30.0 * rng.standard_normal((grid.nx, grid.ny))
        params = PhysicsParams(grid, F0, G0, H0, b_phys)
        out = nonlinear_state(state, params)
        want = nonlinear_tendency(state, params)
        for name in ("u", "v", "eta"):
            got, expect = getattr(out, name), getattr(want, name)
            scale = np.max(np.abs(expect))
            assert np.max(np.abs(got - expect)) <= 1e-12 * scale, (grid.nx, name)


def test_nonlinear_mean_eta_tendency_is_exactly_zero(grid32, rng):
    state = band_limited_state(grid32, rng)
    out = nonlinear_state(state, flat(grid32))
    assert out.eta[0, 0] == 0.0


def test_balanced_jet_is_discrete_steady_state(grid64):
    case = default_config()
    params = physics_params(replace(case, b0=0.0), grid64)
    jet = balanced_jet(case, grid64)
    scale = case.f * energy_norm(jet, params)
    lin = energy_norm(apply_linear(jet, params), params)
    non = energy_norm(nonlinear_state(jet, params), params)
    assert lin <= 1e-12 * scale
    assert non <= 1e-12 * scale
    # the mountain breaks the balance
    rough = physics_params(case, grid64)
    assert energy_norm(nonlinear_state(jet, rough), rough) > 1e-6 * scale


def test_dispersion_and_max_frequency(grid64):
    params = flat(grid64)
    assert dispersion_omega((0.0, 0.0), params) == pytest.approx(F0, rel=1e-15)
    k = 2.0 * np.pi / 4.0e7
    want = math.sqrt(F0**2 + G0 * H0 * k * k)
    assert dispersion_omega((k, 0.0), params) == pytest.approx(want, rel=1e-15)

    kmax = 2.0 * np.pi * 32 / 4.0e7
    corner = math.sqrt(F0**2 + G0 * H0 * 2.0 * kmax**2)
    got = max_frequency(params)
    assert got == pytest.approx(corner, rel=1e-14)
    # frozen value used when sizing Chebyshev expansions in the docs and demos
    assert got == pytest.approx(1.720899454284647e-3, rel=1e-12)


def test_linear_is_skew_adjoint_in_energy_product(grid32, rng):
    params = flat(grid32)
    a = band_limited_state(grid32, rng)
    b = band_limited_state(grid32, rng)
    lhs = energy_inner(apply_linear(a, params), b, params)
    rhs = energy_inner(a, apply_linear(b, params), params)
    bound = max_frequency(params) * energy_norm(a, params) * energy_norm(b, params)
    assert abs(lhs + rhs) <= 1e-12 * bound


def test_energy_inner_is_an_inner_product(grid32, rng):
    params = flat(grid32)
    a = band_limited_state(grid32, rng)
    b = band_limited_state(grid32, rng)
    assert energy_inner(a, b, params) == pytest.approx(
        energy_inner(b, a, params), rel=1e-12)
    assert energy_inner(a, a, params) > 0.0
    assert energy_inner(2.0 * a, b, params) == pytest.approx(
        2.0 * energy_inner(a, b, params), rel=1e-12)
    assert energy_norm(a, params) == pytest.approx(
        math.sqrt(energy_inner(a, a, params)), rel=1e-14)


def test_energy_inner_matches_physical_quadrature(grid32, rng):
    # the band Parseval weights, 1 on column ky = 0 and 2 elsewhere, against
    # the physical-space Riemann sum of the full spectra's ifft2; the 12 x 8
    # grid has Lx != Ly and f != 0, so a transposed weight or a swapped axis
    # would show
    grid12x8 = make_grid(12, 8, 1.5e6, 1.0e6)
    for grid, params in ((grid32, flat(grid32)),
                         (grid12x8, flat_bottom(grid12x8, 1.3e-4, G0, H0))):
        a = band_limited_state(grid, rng)
        b = band_limited_state(grid, rng)
        (au, av, ae), (bu, bv, be) = (np.fft.ifft2(np.stack((st.u, st.v, st.eta))).real
                                      for st in (a, b))
        want = grid.cell_area * float(
            np.sum(params.H * (au * bu + av * bv) + params.g * ae * be))
        assert energy_inner(a, b, params) == pytest.approx(want, rel=1e-12)


def test_energy_norm_is_propagation_invariant(grid32, rng):
    params = flat(grid32)
    a = band_limited_state(grid32, rng)
    moved = exact_exp(1.0e4, a, params)
    assert energy_norm(moved, params) == pytest.approx(
        energy_norm(a, params), rel=1e-13)


def test_params_validation(grid8, rng):
    zeros = np.zeros((8, 8))
    with pytest.raises(ValueError, match="g"):
        PhysicsParams(grid8, F0, 0.0, H0, zeros)
    with pytest.raises(ValueError, match="H"):
        PhysicsParams(grid8, F0, G0, -1.0, zeros)
    with pytest.raises(ValueError, match="peak"):
        PhysicsParams(grid8, F0, G0, H0, np.full((8, 8), 2.0 * H0))
    with pytest.raises(ValueError, match="shape"):
        PhysicsParams(grid8, F0, G0, H0, np.zeros((32, 32)))
    with pytest.raises(ValueError, match="real"):
        PhysicsParams(grid8, F0, G0, H0, zeros.astype(complex))


@pytest.mark.parametrize("shape", [(12, 8), (12, 18), (18, 12)])
def test_topography_is_the_band_of_its_physical_field(shape, rng):
    # b is the 2/3 band of the raw field: on the full layout, fft2 under the
    # oracles' own mask; b_phys is that band's physical field, and both are
    # read-only (Lx != Ly and nx != ny, so a swapped axis would show)
    grid = make_grid(*shape, 1.5e6, 2.5e6)
    raw = 30.0 * rng.standard_normal(shape)
    params = PhysicsParams(grid, F0, G0, H0, raw)
    want = np.where(full_band_mask(grid), np.fft.fft2(raw), 0.0)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(from_band(grid, params.b) - want)) <= 1e-12 * scale
    b_phys = np.fft.ifft2(want).real
    assert np.max(np.abs(params.b_phys - b_phys)) <= 1e-12 * np.max(np.abs(b_phys))
    for arr in (params.b, params.b_phys):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_state_arithmetic(grid8, grid32, rng):
    a = band_limited_state(grid8, rng)
    b = band_limited_state(grid8, rng)
    s = a + b
    assert np.array_equal(s.q, a.q + b.q)
    assert np.array_equal(s.u, a.u + b.u)
    assert np.array_equal((a - b).eta, a.eta - b.eta)
    assert np.array_equal((2.0 * a).v, 2.0 * a.v)
    assert np.array_equal((a * 2.0).q, 2.0 * a.q)
    other = band_limited_state(grid32, rng)
    with pytest.raises(ValueError, match="different grids"):
        a + other
    for bad in (np.zeros((3, 8, 8)), np.zeros((2, 8, 3)), np.zeros((3, 8, 4))):
        with pytest.raises(ValueError, match="shape"):
            State(grid8, bad)

    # the full spectra are read-only views of q, and their band is q
    assert np.array_equal(take_band(grid8, (a.u, a.v, a.eta)), a.q)
    with pytest.raises(ValueError, match="read-only"):
        a.u[0, 0] = 1.0

    # a nonzero entry outside the 2/3 band is rejected, on every row of
    # every band column, at every even nx from 8 to 128
    for nx in range(8, 130, 2):
        grid = make_grid(nx, 8, 1.0e6, 1.0e6)
        mask = full_band_mask(grid)[:, : band(grid).kb]
        State(grid, np.where(mask, 1.0 + 1.0j, 0.0)[None].repeat(3, axis=0))
        for i, j in zip(*np.nonzero(~mask)):
            q = np.zeros((3, nx, band(grid).kb), dtype=complex)
            q[2, i, j] = 1e-300j
            with pytest.raises(ValueError, match="outside the 2/3 band"):
                State(grid, q)


def test_state_q_is_a_read_only_view(grid32, rng):
    # a write into q would break the band invariant that State checks once;
    # q is a view of the caller's array, which keeps its own write flag
    for grid in (grid32, make_grid(12, 8, 1.5e6, 1.0e6)):
        q = band_limited_state(grid, rng).q.copy()
        state = State(grid, q)
        assert np.shares_memory(state.q, q) and q.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.q[0, grid.nx // 2, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.q[...] = 0.0
        q[0, 0, 0] = 2.0
        assert state.q[0, 0, 0] == 2.0


def test_spectra_outside_the_band_are_rejected(rng):
    # a band-limited state plus nonzero modes outside the 2/3 band cannot be
    # a State, neither as full spectra nor as their band columns, so no
    # operator sees such modes; its take_band is the clean state's q
    for grid in (make_grid(12, 8, 1.5e6, 1.0e6), make_grid(18, 12, 2.5e6, 1.5e6)):
        state = band_limited_state(grid, rng)
        noise = np.fft.fft2(rng.standard_normal((3, grid.nx, grid.ny)))
        noise[:, full_band_mask(grid)] = 0.0
        noisy = np.stack((state.u, state.v, state.eta)) + noise
        with pytest.raises(ValueError, match="shape"):
            State(grid, noisy)
        with pytest.raises(ValueError, match="outside the 2/3 band"):
            State(grid, noisy[..., : band(grid).kb])
        assert np.array_equal(take_band(grid, noisy), state.q)


def test_nonlinear_checks_topography_shape(grid8, grid32, rng):
    # the kernel reads its grid from params, on which b is built, so the
    # topography always fits; an 8 x 8 state against 32 x 32 physics fails
    # the band stack check
    state = band_limited_state(grid8, rng)
    wrong = flat(grid32)
    assert wrong.b.shape == (32, band(grid32).kb)
    with pytest.raises(ValueError, match="band stack"):
        nonlinear_state(state, wrong)


def test_wrap_indices_helper_matches_fft_layout():
    assert list(wrap_indices(8)) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_nonlinear_batches_its_transforms(grid32, rng, monkeypatch):
    # one inverse call for the seven band fields (u, v, eta - b and the four
    # gradients), on the compact (7, nx, kb) band columns, and one forward
    # call for the four real products, each looked up in the dynamics module,
    # where a tracer can wrap it.  Both write through out= into the calling
    # thread's scratch, so a second call reuses the first call's arrays
    calls = {name: [] for name in ("to_physical", "to_spectral")}

    def counted(name, fn):
        def wrapper(grid, arr, *args, **kwargs):
            calls[name].append((np.shape(arr), np.iscomplexobj(arr), kwargs.get("out")))
            return fn(grid, arr, *args, **kwargs)
        return wrapper

    # PhysicsParams transforms its topography once, before the count starts
    rough = physics_params(default_config(), grid32)
    for name in calls:
        monkeypatch.setattr(dynamics, name, counted(name, getattr(dynamics, name)))
    state = band_limited_state(grid32, rng)
    first = nonlinear_state(state, rough)
    kb = 11  # band columns 0 <= wy < 32/3
    shapes = {name: [c[:2] for c in got] for name, got in calls.items()}
    assert shapes["to_physical"] == [((7, 32, kb), True)]
    assert shapes["to_spectral"] == [((4, 32, 32), False)]
    outs = [calls[name][0][2] for name in ("to_physical", "to_spectral")]
    assert outs[0].shape == (7, 32, 32) and outs[1].shape == (4, 32, kb)
    second = nonlinear_state(state, rough)
    for name, out in zip(("to_physical", "to_spectral"), outs):
        assert len(calls[name]) == 2 and np.shares_memory(calls[name][1][2], out)
    for name in ("u", "v", "eta"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_band_kernel_matches_convolution_oracle_on_anisotropic_grids(rng):
    # n divisible by 3 on both axes, nx != ny and Lx != Ly: the band's last
    # column kb - 1 = n/3 - 1, and a swapped axis, would show here
    for grid in (make_grid(12, 18, 1.5e6, 2.5e6), make_grid(18, 12, 2.5e6, 1.5e6)):
        assert band(grid).kb == grid.ny // 3
        state = band_limited_state(grid, rng, vel_scale=2.0, eta_scale=20.0)
        b_phys = 30.0 * rng.standard_normal((grid.nx, grid.ny))
        params = PhysicsParams(grid, F0, G0, H0, b_phys)
        out = nonlinear_state(state, params)
        want = nonlinear_tendency(state, params)
        for name in ("u", "v", "eta"):
            got, expect = getattr(out, name), getattr(want, name)
            scale = np.max(np.abs(expect))
            assert np.max(np.abs(got - expect)) <= 1e-12 * scale, (grid.nx, name)


def test_nonlinear_ky0_column_is_exactly_hermitian(rng):
    # the x transform of column ky = 0 is conjugate-symmetric only to
    # round-off; the kernel mirrors it, so the result is the band of an
    # exactly real field and from_band loses nothing
    for grid in (make_grid(32, 32, 4.0e7, 4.0e7), make_grid(18, 12, 2.5e6, 1.5e6)):
        state = band_limited_state(grid, rng, vel_scale=2.0, eta_scale=20.0)
        b_phys = 30.0 * rng.standard_normal((grid.nx, grid.ny))
        params = PhysicsParams(grid, F0, G0, H0, b_phys)
        out = apply_nonlinear(state.q, params)
        assert out.shape == (3, grid.nx, band(grid).kb)
        col = out[:, :, 0]
        assert np.array_equal(col[:, (-np.arange(grid.nx)) % grid.nx], np.conj(col))
        assert np.array_equal(take_band(grid, from_band(grid, out)), out)


def test_nonlinear_rejects_other_stack_shapes(grid8, rng):
    state = band_limited_state(grid8, rng)
    params = flat(grid8)
    q = state.q
    for bad in (np.stack((state.u, state.v, state.eta)), q[:2], q[None], state):
        with pytest.raises(ValueError, match="band stack"):
            apply_nonlinear(bad, params)
