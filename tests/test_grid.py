"""Grid construction, transforms, dealiasing, quadrature."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft

from phaseswe.grid import (band, band_to_physical, band_to_spectral, dealias,
                           from_band, integrate_product, make_grid, scratch,
                           take_band, to_physical, to_spectral)
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


@pytest.mark.parametrize("shape", [(12, 8), (12, 18), (18, 12), (32, 32)])
def test_to_spectral_is_exactly_hermitian(shape, rng):
    # the ky > ny/2 columns, the kx < 0 halves of columns 0 and ny/2 and the
    # four self-conjugate modes are set from the rest, not transformed
    g = make_grid(*shape, 1.5e6, 2.5e6)
    phys = rng.standard_normal((2, g.nx, g.ny))
    c = to_spectral(g, phys)
    mx, my = (-np.arange(g.nx)) % g.nx, (-np.arange(g.ny)) % g.ny
    assert np.array_equal(c[:, mx][:, :, my], np.conj(c))
    want = scipy.fft.fft2(phys)
    assert np.max(np.abs(c - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(8, 8), (12, 18), (18, 12), (32, 32), (64, 64)])
def test_band_transforms_are_bitwise_scipy_fft(shape, rng):
    # numpy.fft with out= against the scipy.fft calls the band transforms
    # replaced: a library change that broke the equality would otherwise
    # show only as drift in the sweep
    g = make_grid(*shape, 1.5e6, 2.5e6)
    kb = band(g).kb
    c = rng.standard_normal((7, g.nx, kb)) + 1j * rng.standard_normal((7, g.nx, kb))
    out = np.empty((7, g.nx, g.ny))
    assert band_to_physical(g, c, out=out) is out
    assert np.array_equal(out, scipy.fft.irfft(scipy.fft.ifft(c, axis=-2), n=g.ny, axis=-1))
    assert np.array_equal(band_to_physical(g, c), out)
    phys = rng.standard_normal((4, g.nx, g.ny))
    spec = np.empty((4, g.nx, kb), dtype=complex)
    assert band_to_spectral(g, phys, out=spec) is spec
    assert np.array_equal(spec, scipy.fft.fft(scipy.fft.rfft(phys, axis=-1)[..., :kb],
                                              axis=-2))
    assert np.array_equal(band_to_spectral(g, phys), spec)


def test_scratch_is_reused_per_thread_and_never_shared():
    a = scratch("test.a", (3, 4))
    assert a.shape == (3, 4)
    assert np.shares_memory(scratch("test.a", (3, 4)), a)
    assert not np.shares_memory(scratch("test.a", (3, 5)), a)
    assert not np.shares_memory(scratch("test.b", (3, 4)), a)
    assert scratch("test.a", (3, 4), np.float64).dtype == np.float64
    with ThreadPoolExecutor(max_workers=1) as pool:
        other = pool.submit(scratch, "test.a", (3, 4)).result(timeout=10)
    assert not np.shares_memory(other, a) and other.shape == a.shape
    # the leading size may vary from call to call (one row per averaging
    # node): each key keeps one stack, sized to its largest request
    two = scratch("test.rows", (2, 3, 4))
    assert two.shape == (2, 3, 4)
    five = scratch("test.rows", (5, 3, 4))
    assert five.shape == (5, 3, 4) and not np.shares_memory(five, two)
    three = scratch("test.rows", (3, 3, 4))
    assert three.shape == (3, 3, 4) and np.shares_memory(three, five)
    assert three.flags.c_contiguous
    assert not np.shares_memory(scratch("test.rows", (3, 3, 5)), five)
    with ThreadPoolExecutor(max_workers=1) as pool:
        other = pool.submit(scratch, "test.rows", (3, 3, 4)).result(timeout=10)
    assert not np.shares_memory(other, five)


def test_constant_field_maps_to_mean_mode(grid32):
    c = to_spectral(grid32, np.full((32, 32), 3.5))
    assert c[0, 0] == pytest.approx(3.5 * 32 * 32, rel=1e-14)
    off = c.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) <= 1e-10 * abs(c[0, 0])


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


# non-square with Lx != Ly, so a transposed axis cannot pass unseen
GRID_12x8 = make_grid(12, 8, 1.5e6, 1.0e6)


def test_stacked_transforms_equal_per_slice_calls(rng):
    g = GRID_12x8
    phys = rng.standard_normal((2, 3, g.nx, g.ny))
    spec = to_spectral(g, phys)
    assert spec.shape == phys.shape
    for index in np.ndindex(phys.shape[:2]):
        assert np.array_equal(spec[index], to_spectral(g, phys[index]))
    back = to_physical(g, spec)
    assert back.shape == phys.shape
    for index in np.ndindex(phys.shape[:2]):
        assert np.array_equal(back[index], to_physical(g, spec[index]))
    assert np.array_equal(dealias(g, spec)[1, 2], dealias(g, spec[1, 2]))
    with pytest.raises(ValueError, match="shape"):
        to_physical(g, np.zeros((3, g.ny, g.nx), dtype=complex))


def test_inverse_equals_real_part_of_full_inverse(rng):
    # the formula the benchmark checks its pinned states with; to_physical
    # reads only the ky >= 0 half, Nyquist column included
    g = GRID_12x8
    c = to_spectral(g, rng.standard_normal((2, 3, g.nx, g.ny)))
    got = to_physical(g, c)
    want = np.fft.ifft2(c).real
    assert got.dtype == np.float64 and got.shape == c.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(8, 8), (12, 18), (18, 12), (32, 32)])
def test_band_columns_hold_the_two_thirds_band(shape):
    g = make_grid(*shape, 1.5e6, 2.5e6)
    b = band(g)
    assert b.kb == -(-g.ny // 3)
    # every band mode is in the columns or the mirror of one that is
    assert np.array_equal(b.mask, g.dealias_mask[:, : b.kb])
    assert not np.any(g.dealias_mask[:, b.kb : g.ny - b.kb + 1])
    assert np.array_equal(b.ikx, np.broadcast_to(1j * g.kx[:, None], b.mask.shape))
    assert np.array_equal(b.iky, np.broadcast_to(1j * g.ky[None, : b.kb], b.mask.shape))


@pytest.mark.parametrize("shape", [(8, 8), (12, 18), (18, 12)])
def test_band_round_trip_and_transforms(shape, rng):
    g = make_grid(*shape, 1.5e6, 2.5e6)
    coeffs = np.stack([band_limited_state(g, rng).u for _ in range(3)])
    compact = take_band(g, coeffs)
    assert compact.shape == (3, g.nx, band(g).kb)
    # the rebuild restores the band-limited field to its round-off
    # Hermitian defect, and is itself exactly Hermitian
    full = from_band(g, compact)
    scale = np.max(np.abs(coeffs))
    assert np.max(np.abs(full - coeffs)) <= 1e-14 * scale
    mx, my = (-np.arange(g.nx)) % g.nx, (-np.arange(g.ny)) % g.ny
    assert np.array_equal(full[:, mx][:, :, my], np.conj(full))
    assert np.array_equal(take_band(g, full), compact)

    phys = to_physical(g, coeffs)
    got = band_to_physical(g, compact)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - phys)) <= 1e-14 * np.max(np.abs(phys))
    spec = band_to_spectral(g, phys)
    want = to_spectral(g, phys)[..., : band(g).kb]
    assert np.max(np.abs(spec - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="real"):
        band_to_spectral(g, phys + 0j)
    with pytest.raises(ValueError, match="band stack"):
        band_to_physical(g, coeffs)
