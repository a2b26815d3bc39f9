"""Grid construction, transforms, Hermitian checks, dealiasing, quadrature."""

import numpy as np
import pytest

from phaseswe.grid import (dealias, hermitian_residual, hermitianize,
                           integrate_product, make_grid, to_physical,
                           to_spectral)
from phaseswe.oracles import (band_limited_state, truncated_convolution,
                              wrap_indices)


def test_make_grid_validates_arguments():
    with pytest.raises(ValueError, match="nx"):
        make_grid(7, 8, 1.0, 1.0)
    with pytest.raises(ValueError, match="nx"):
        make_grid(4, 8, 1.0, 1.0)
    with pytest.raises(ValueError, match="ny"):
        make_grid(8, 10**2 + 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="Lx"):
        make_grid(8, 8, 0.0, 1.0)
    with pytest.raises(ValueError, match="Ly"):
        make_grid(8, 8, 1.0, -2.0)


def test_wavenumbers_follow_fft_ordering():
    g = make_grid(8, 8, 4.0e7, 2.0e7)
    base_x = 2.0 * np.pi / 4.0e7
    base_y = 2.0 * np.pi / 2.0e7
    assert g.kx[0] == 0.0
    assert g.kx[1] == pytest.approx(base_x, rel=1e-15)
    assert g.kx[4] == pytest.approx(-4.0 * base_x, rel=1e-15)
    assert g.kx[7] == pytest.approx(-base_x, rel=1e-15)
    assert g.ky[3] == pytest.approx(3.0 * base_y, rel=1e-15)
    assert g.dx == pytest.approx(4.0e7 / 8)
    assert g.dy == pytest.approx(2.0e7 / 8)
    assert g.cell_area == pytest.approx(g.dx * g.dy)


def test_dealias_mask_keeps_two_thirds_band():
    g = make_grid(8, 8, 1.0, 1.0)
    wx = wrap_indices(8)
    expected = (3 * np.abs(wx)[:, None] < 8) & (3 * np.abs(wx)[None, :] < 8)
    assert np.array_equal(g.dealias_mask, expected)
    # |wrap| <= 2 in each direction: a 5x5 block survives
    assert int(g.dealias_mask.sum()) == 25
    assert g.dealias_mask[2, 2]
    assert not g.dealias_mask[3, 0]
    assert not g.dealias_mask[0, 4]

    g12 = make_grid(12, 12, 1.0, 1.0)
    assert int(g12.dealias_mask.sum()) == 49  # |wrap| <= 3: 4 = 12/3 would alias


def test_transform_roundtrip(grid32, rng):
    phys = rng.standard_normal((32, 32))
    back = to_physical(grid32, to_spectral(grid32, phys))
    assert np.max(np.abs(back - phys)) <= 1e-13 * np.max(np.abs(phys))


def test_to_spectral_rejects_bad_input(grid32, rng):
    with pytest.raises(ValueError, match="real"):
        to_spectral(grid32, np.zeros((32, 32), dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        to_spectral(grid32, np.zeros((16, 32)))
    with pytest.raises(ValueError, match="shape"):
        to_physical(grid32, np.zeros((32, 16), dtype=complex))


def test_constant_field_maps_to_mean_mode(grid32):
    c = to_spectral(grid32, np.full((32, 32), 3.5))
    assert c[0, 0] == pytest.approx(3.5 * 32 * 32, rel=1e-14)
    off = c.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) <= 1e-10 * abs(c[0, 0])


def test_hermitian_check_names_offending_mode(grid8):
    c = np.zeros((8, 8), dtype=complex)
    c[0, 3] = 1.0  # no conjugate partner at (0, -3)
    with pytest.raises(ValueError) as err:
        to_physical(grid8, c)
    msg = str(err.value)
    assert "kx index 0" in msg
    assert "asymmetry" in msg


def test_hermitianize_projects_onto_symmetric_part(grid8, rng):
    c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sym = hermitianize(c)
    scale = np.max(np.abs(sym))
    assert hermitian_residual(sym) <= 1e-14 * scale
    to_physical(grid8, sym)  # passes the symmetry gate
    assert hermitian_residual(c) > 0.1  # the input itself was far from symmetric


def test_symmetry_check_judged_against_caller_scale(grid8, rng):
    # round-off noise: wildly asymmetric relative to itself, negligible
    # relative to the data it was computed from
    noise = 1e-14 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    with pytest.raises(ValueError, match="non-Hermitian"):
        to_physical(grid8, noise)
    out = to_physical(grid8, noise, scale=1.0)
    assert np.max(np.abs(out)) < 1e-12
    # within the symmetry tolerance mode by mode, but the imaginary parts add
    # up at one point to far more than round-off of the real field
    with pytest.raises(ValueError, match="imaginary residual"):
        to_physical(grid8, np.full((8, 8), 4e-13j), scale=1.0)


def test_integrate_product_matches_riemann_sum(grid32, rng):
    a = rng.standard_normal((32, 32))
    b = rng.standard_normal((32, 32))
    got = integrate_product(grid32, to_spectral(grid32, a), to_spectral(grid32, b))
    want = grid32.cell_area * float(np.sum(a * b))
    assert got == pytest.approx(want, rel=1e-12)


def test_dealias_is_idempotent_projection(grid32, rng):
    c = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    once = dealias(grid32, c)
    assert np.array_equal(dealias(grid32, once), once)
    assert np.linalg.norm(once) <= np.linalg.norm(c)
    assert np.array_equal(once[grid32.dealias_mask], c[grid32.dealias_mask])
    assert np.all(once[~grid32.dealias_mask] == 0.0)


def test_physical_product_equals_truncated_convolution(grid8, rng):
    # 12 x 8 with Lx != Ly: nx divisible by 3 is where |wrap| = n/3 aliases
    for grid in (grid8, make_grid(12, 8, 1.5e6, 1.0e6)):
        sa = band_limited_state(grid, rng)
        sb = band_limited_state(grid, rng)
        ca, cb = sa.u, sb.u
        prod = to_spectral(grid, to_physical(grid, ca) * to_physical(grid, cb))
        got = dealias(grid, prod)
        want = truncated_convolution(grid, ca, cb)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, grid.nx
