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
from phaseswe.grid import band, dealias, make_grid, to_physical, to_spectral
from phaseswe.oracles import (band_limited_state, linear_tendency,
                              nonlinear_tendency, wrap_indices)
from phaseswe.propagator import exact_exp
from phaseswe.testcase import balanced_jet, physics_params

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


def test_linear_matches_per_mode_matrix(grid8, rng):
    params = flat(grid8)
    # arbitrary complex coefficients: the identity is per mode, symmetry not needed
    cu = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    cv = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ceta = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    state = State(grid=grid8, u=cu, v=cv, eta=ceta)
    out = apply_linear(state, params)
    want = linear_tendency(state, params)

    worst = max(np.max(np.abs(out.u - want.u)), np.max(np.abs(out.v - want.v)),
                np.max(np.abs(out.eta - want.eta)))
    scale = max(np.max(np.abs(out.u)), np.max(np.abs(out.v)), np.max(np.abs(out.eta)))
    assert worst <= 1e-13 * scale


def test_nonlinear_matches_convolution_oracle(grid8, rng):
    # the 12 x 8 grid is anisotropic and has nx divisible by 3, where a
    # 2/3 band that kept |wrap| = n/3 would alias
    for grid in (grid8, make_grid(12, 8, 1.5e6, 1.0e6)):
        state = band_limited_state(grid, rng, vel_scale=2.0, eta_scale=20.0)
        b_phys = 30.0 * rng.standard_normal((grid.nx, grid.ny))
        b = dealias(grid, to_spectral(grid, b_phys))
        params = PhysicsParams(f=F0, g=G0, H=H0, b=b)
        out = apply_nonlinear(state, params)
        want = nonlinear_tendency(state, params)
        for name in ("u", "v", "eta"):
            got, expect = getattr(out, name), getattr(want, name)
            scale = np.max(np.abs(expect))
            assert np.max(np.abs(got - expect)) <= 1e-12 * scale, (grid.nx, name)


def test_nonlinear_mean_eta_tendency_is_exactly_zero(grid32, rng):
    state = band_limited_state(grid32, rng)
    out = apply_nonlinear(state, flat(grid32))
    assert out.eta[0, 0] == 0.0


def test_balanced_jet_is_discrete_steady_state(grid64):
    case = default_config()
    params = physics_params(replace(case, b0=0.0), grid64)
    jet = balanced_jet(case, grid64)
    scale = case.f * energy_norm(jet, params)
    lin = energy_norm(apply_linear(jet, params), params)
    non = energy_norm(apply_nonlinear(jet, params), params)
    assert lin <= 1e-12 * scale
    assert non <= 1e-12 * scale
    # the mountain breaks the balance
    rough = physics_params(case, grid64)
    assert energy_norm(apply_nonlinear(jet, rough), rough) > 1e-6 * scale


def test_dispersion_and_max_frequency(grid64):
    params = flat(grid64)
    assert dispersion_omega((0.0, 0.0), params) == pytest.approx(F0, rel=1e-15)
    k = 2.0 * np.pi / 4.0e7
    want = math.sqrt(F0**2 + G0 * H0 * k * k)
    assert dispersion_omega((k, 0.0), params) == pytest.approx(want, rel=1e-15)

    kmax = 2.0 * np.pi * 32 / 4.0e7
    corner = math.sqrt(F0**2 + G0 * H0 * 2.0 * kmax**2)
    got = max_frequency(grid64, params)
    assert got == pytest.approx(corner, rel=1e-14)
    # frozen value used when sizing Chebyshev expansions in the docs and demos
    assert got == pytest.approx(1.720899454284647e-3, rel=1e-12)


def test_linear_is_skew_adjoint_in_energy_product(grid32, rng):
    params = flat(grid32)
    a = band_limited_state(grid32, rng)
    b = band_limited_state(grid32, rng)
    lhs = energy_inner(apply_linear(a, params), b, params)
    rhs = energy_inner(a, apply_linear(b, params), params)
    bound = max_frequency(grid32, params) * energy_norm(a, params) * energy_norm(b, params)
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
    params = flat(grid32)
    a = band_limited_state(grid32, rng)
    b = band_limited_state(grid32, rng)
    fields = {}
    for name, st in (("a", a), ("b", b)):
        fields[name] = tuple(to_physical(grid32, c) for c in (st.u, st.v, st.eta))
    (au, av, ae), (bu, bv, be) = fields["a"], fields["b"]
    want = grid32.cell_area * float(
        np.sum(params.H * (au * bu + av * bv) + params.g * ae * be))
    assert energy_inner(a, b, params) == pytest.approx(want, rel=1e-12)


def test_energy_norm_is_propagation_invariant(grid32, rng):
    params = flat(grid32)
    a = band_limited_state(grid32, rng)
    moved = exact_exp(1.0e4, a, params)
    assert energy_norm(moved, params) == pytest.approx(
        energy_norm(a, params), rel=1e-13)


def test_params_validation(grid8, rng):
    zeros = np.zeros((8, 8), dtype=complex)
    with pytest.raises(ValueError, match="g"):
        PhysicsParams(f=F0, g=0.0, H=H0, b=zeros)
    with pytest.raises(ValueError, match="H"):
        PhysicsParams(f=F0, g=G0, H=-1.0, b=zeros)
    tall = to_spectral(grid8, np.full((8, 8), 2.0 * H0))
    with pytest.raises(ValueError, match="peak"):
        PhysicsParams(f=F0, g=G0, H=H0, b=tall)


def test_state_arithmetic(grid8, grid32, rng):
    a = band_limited_state(grid8, rng)
    b = band_limited_state(grid8, rng)
    s = a + b
    assert np.array_equal(s.u, a.u + b.u)
    assert np.array_equal((a - b).eta, a.eta - b.eta)
    assert np.array_equal((2.0 * a).v, 2.0 * a.v)
    assert np.array_equal((a * 2.0).v, 2.0 * a.v)
    other = band_limited_state(grid32, rng)
    with pytest.raises(ValueError, match="different grids"):
        a + other
    with pytest.raises(ValueError, match="shape"):
        State(grid=grid8, u=np.zeros((4, 4)), v=np.zeros((8, 8)),
              eta=np.zeros((8, 8)))


def test_nonlinear_checks_topography_shape(grid8, grid32, rng):
    state = band_limited_state(grid8, rng)
    wrong = PhysicsParams(f=F0, g=G0, H=H0, b=np.zeros((32, 32), dtype=complex))
    with pytest.raises(ValueError, match="topography"):
        apply_nonlinear(state, wrong)


def test_wrap_indices_helper_matches_fft_layout():
    assert list(wrap_indices(8)) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_nonlinear_batches_its_transforms(grid32, rng, monkeypatch):
    # one inverse call for the seven band fields (u, v, eta - b and the four
    # gradients), on the compact (7, nx, kb) band columns, and one forward
    # call for the four real products; the full-grid transforms go unused
    calls = {name: [] for name in ("band_to_physical", "band_to_spectral",
                                   "to_physical", "to_spectral")}

    def counted(name, fn):
        def wrapper(grid, arr, *args):
            calls[name].append((np.shape(arr), np.iscomplexobj(arr)))
            return fn(grid, arr, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dynamics, name, counted(name, getattr(dynamics, name)))
    rough = physics_params(default_config(), grid32)
    apply_nonlinear(band_limited_state(grid32, rng), rough)
    kb = 11  # band columns 0 <= wy < 32/3
    assert calls["band_to_physical"] == [((7, 32, kb), True)]
    assert calls["band_to_spectral"] == [((4, 32, 32), False)]
    assert calls["to_physical"] == calls["to_spectral"] == []


def test_band_kernel_matches_convolution_oracle_on_anisotropic_grids(rng):
    # n divisible by 3 on both axes, nx != ny and Lx != Ly: the band's last
    # column kb - 1 = n/3 - 1, and a swapped axis, would show here
    for grid in (make_grid(12, 18, 1.5e6, 2.5e6), make_grid(18, 12, 2.5e6, 1.5e6)):
        assert band(grid).kb == grid.ny // 3
        state = band_limited_state(grid, rng, vel_scale=2.0, eta_scale=20.0)
        b = dealias(grid, to_spectral(grid, 30.0 * rng.standard_normal((grid.nx, grid.ny))))
        params = PhysicsParams(f=F0, g=G0, H=H0, b=b)
        out = apply_nonlinear(state, params)
        want = nonlinear_tendency(state, params)
        for name in ("u", "v", "eta"):
            got, expect = getattr(out, name), getattr(want, name)
            scale = np.max(np.abs(expect))
            assert np.max(np.abs(got - expect)) <= 1e-12 * scale, (grid.nx, name)
