"""Balanced double jet and conical mountain construction."""

from dataclasses import replace

import numpy as np
import pytest

from phaseswe.config import ConfigError, RunConfig, default_config
from phaseswe.dynamics import PhysicsParams, flat_bottom
from phaseswe.grid import SpectralGrid, from_band, to_physical, to_spectral
from phaseswe.harness import build_problem
from phaseswe.testcase import balanced_jet, mountain, physics_params


def test_default_case_constants():
    case = default_config()
    assert case.f == 1.0e-4
    assert case.g == 9.8
    assert case.H == 5960.0
    assert case.u0 == 20.0
    assert case.b0 == 2000.0
    assert case.jet_width == 4.0e7 / 16.0
    assert case.r0 == 4.0e7 / 9.0
    assert case.xc == 2.0e7
    assert case.yc == 1.0e7


def test_case_validation():
    with pytest.raises(ConfigError, match="b0"):
        RunConfig(H=100.0, b0=100.0)
    with pytest.raises(ConfigError, match="jet_width"):
        RunConfig(jet_width=0.0)
    with pytest.raises(ConfigError, match="r0"):
        RunConfig(r0=0.0)


def test_mountain_volume_peak_and_position(grid64):
    # the physics keeps the cone's 2/3 band; its ripples are checked here
    case = default_config()
    b_phys = physics_params(case).b_phys

    volume = grid64.cell_area * float(b_phys.sum())
    cone = np.pi * case.r0**2 * case.b0 / 3.0
    assert volume == pytest.approx(cone, rel=0.02)

    peak = float(b_phys.max())
    assert 0.8 * case.b0 <= peak <= 1.1 * case.b0
    i, j = np.unravel_index(int(b_phys.argmax()), b_phys.shape)
    assert abs(grid64.x[i] - case.xc) <= grid64.dx
    assert abs(grid64.y[j] - case.yc) <= grid64.dy
    # truncation ripple may undershoot zero but only mildly
    assert float(b_phys.min()) >= -0.1 * case.b0


def test_mountain_b_phys_is_the_irfft2_of_its_band(grid64):
    # the physical topography was once the irfft2 of the full spectrum's
    # ky >= 0 half; to_physical of the band gives the same bits
    params = physics_params(default_config())
    half = from_band(grid64, params.b)[:, : 64 // 2 + 1]
    assert np.array_equal(params.b_phys, np.fft.irfft2(half, s=(64, 64)))


def test_the_case_is_built_on_its_config_grid():
    # one grid per config, built from its nx, ny, Lx and Ly on first use;
    # build_problem, the physics and the jet all hold that one object
    cfg = default_config()
    assert cfg.grid is cfg.grid
    assert cfg.grid == SpectralGrid(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    grid, same_cfg, params, jet = build_problem(cfg)
    assert grid is cfg.grid and same_cfg is cfg
    assert params.grid is cfg.grid and jet.grid is cfg.grid
    small = replace(cfg, nx=32, ny=16)
    assert (small.grid.nx, small.grid.ny) == (32, 16)
    assert physics_params(small).b.shape == (32, 6)
    assert balanced_jet(small).q.shape == (3, 32, 6)


def test_balanced_jet_structure(grid64):
    case = default_config()
    jet = balanced_jet(case)
    umax = float(np.max(np.abs(jet.u)))

    assert np.all(jet.v == 0.0)
    assert jet.u[0, 0] == 0.0
    assert jet.eta[0, 0] == 0.0
    # zonal flow: x wavenumbers carry only transform round-off
    assert np.max(np.abs(jet.u[1:, :])) <= 1e-12 * umax

    u_phys = to_physical(grid64, jet.q[0])
    assert float(u_phys.max()) == pytest.approx(case.u0, rel=0.02)
    assert float(u_phys.min()) == pytest.approx(-case.u0, rel=0.02)
    # eastward jet at y = Ly/4, westward at 3 Ly/4
    j_east = int(np.argmax(u_phys[0]))
    j_west = int(np.argmin(u_phys[0]))
    assert abs(grid64.y[j_east] - 0.25 * grid64.Ly) <= grid64.dy
    assert abs(grid64.y[j_west] - 0.75 * grid64.Ly) <= grid64.dy


def test_physics_params_wiring(grid64):
    case = default_config()
    rough = physics_params(case)
    assert isinstance(rough, PhysicsParams)
    assert np.array_equal(rough.b, to_spectral(grid64, mountain(case)))
    assert np.array_equal(rough.b_phys, to_physical(grid64, rough.b))
    smooth = physics_params(replace(case, b0=0.0))
    flat = flat_bottom(grid64, case.f, case.g, case.H)
    assert smooth.b.dtype == flat.b.dtype and smooth.b.tobytes() == flat.b.tobytes()
    assert np.all(smooth.b == 0.0)
    for p in (rough, smooth):
        assert (p.f, p.g, p.H) == (case.f, case.g, case.H)
