"""Grid construction, the 2/3 band and its transforms."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft

from phaseswe import dynamics
from phaseswe.dynamics import State, energy_inner, flat_bottom
from phaseswe.grid import (SpectralGrid, band, from_band, mirror_ky0, scratch,
                           to_physical, to_spectral)
from phaseswe.oracles import (band_limited_state, full_band_mask, take_band,
                              truncated_convolution, wrap_indices)


def test_spectral_grid_validates_its_arguments():
    with pytest.raises(ValueError, match="nx"):
        SpectralGrid(7, 8, 1.0, 1.0)
    with pytest.raises(ValueError, match="nx"):
        SpectralGrid(4, 8, 1.0, 1.0)
    with pytest.raises(ValueError, match="ny"):
        SpectralGrid(8, 10**2 + 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="Lx"):
        SpectralGrid(8, 8, 0.0, 1.0)
    with pytest.raises(ValueError, match="Ly"):
        SpectralGrid(8, 8, 1.0, -2.0)
    # the wavenumbers are built from the four arguments, never passed in
    for name in ("kx", "ky"):
        with pytest.raises(TypeError, match=name):
            SpectralGrid(8, 8, 1.0, 1.0, **{name: np.zeros(8)})
    # stored as int and float, so the repr (and the snapshot sidecars'
    # Lx = ... lines) read the same whatever number types were passed
    g = SpectralGrid(np.int64(8), 8, 1, np.float64(2.0))
    assert type(g.nx) is int and type(g.Lx) is float and type(g.Ly) is float
    assert repr(g) == "SpectralGrid(nx=8, ny=8, Lx=1.0, Ly=2.0)"
    assert not (g.kx.flags.writeable or g.ky.flags.writeable)


def test_equal_grids_built_apart_share_exact_tables():
    # the band and couplings tables are cached per grid value; two grids
    # built apart from the same four values must find tables that are right
    # for each, whichever of them filled the cache
    band.cache_clear()
    dynamics._couplings.cache_clear()
    a, b = SpectralGrid(12, 8, 1.5e6, 1.0e6), SpectralGrid(12, 8, 1.5e6, 1.0e6)
    assert a == b and a is not b and hash(a) == hash(b)
    tables = band(a)
    assert band(b) is tables
    for grid in (a, b):
        kx2, ky2 = np.broadcast_arrays(grid.kx[:, None], grid.ky[None, : tables.kb])
        assert np.array_equal(tables.ikx, 1j * kx2)
        assert np.array_equal(tables.iky, 1j * ky2)
    cp = dynamics.couplings(flat_bottom(a, 1.0e-4, 9.8, 5960.0))
    assert dynamics.couplings(flat_bottom(b, 1.0e-4, 9.8, 5960.0)) is cp
    assert np.array_equal(cp.gx, -9.8 * band(b).ikx)
    assert np.array_equal(cp.hy, -5960.0 * band(b).iky)


def test_wavenumbers_follow_fft_ordering():
    g = SpectralGrid(8, 8, 4.0e7, 2.0e7)
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


def test_dealias_mask_keeps_two_thirds_band(rng):
    # the oracles' full-grid mask from the wrap indices, and the modes that
    # to_spectral keeps of a random field: its band columns 0 .. kb - 1
    g = SpectralGrid(8, 8, 1.0, 1.0)
    wx = wrap_indices(8)
    expected = (3 * np.abs(wx)[:, None] < 8) & (3 * np.abs(wx)[None, :] < 8)
    assert np.array_equal(full_band_mask(g), expected)
    mask = to_spectral(g, rng.standard_normal((8, 8))) != 0
    assert np.array_equal(mask, expected[:, :3])
    # |wrap| <= 2 in each direction: a 5x5 block survives, 5x3 of it on the
    # band columns
    assert int(expected.sum()) == 25 and int(mask.sum()) == 15
    assert mask[2, 2]
    assert not mask[3, 0]
    assert not expected[0, 4]

    g12 = SpectralGrid(12, 12, 1.0, 1.0)
    # |wrap| <= 3: 4 = 12/3 would alias
    kept = to_spectral(g12, rng.standard_normal((12, 12))) != 0
    assert int(full_band_mask(g12).sum()) == 49 and int(kept.sum()) == 28
    assert np.array_equal(kept, full_band_mask(g12)[:, : band(g12).kb])


def test_transform_roundtrip(grid32, rng):
    # both ways round, on band-limited fields
    q = band_limited_state(grid32, rng).q
    phys = to_physical(grid32, q)
    back = to_physical(grid32, to_spectral(grid32, phys))
    assert np.max(np.abs(back - phys)) <= 1e-13 * np.max(np.abs(phys))
    assert np.max(np.abs(to_spectral(grid32, phys) - q)) <= 1e-13 * np.max(np.abs(q))


def test_to_spectral_rejects_bad_input(grid32, rng):
    with pytest.raises(ValueError, match="real"):
        to_spectral(grid32, np.zeros((32, 32), dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        to_spectral(grid32, np.zeros((16, 32)))
    with pytest.raises(ValueError, match="shape"):
        to_physical(grid32, np.zeros((32, 16), dtype=complex))
    with pytest.raises(ValueError, match="band stack"):
        to_physical(grid32, np.zeros((32, 32), dtype=complex))


@pytest.mark.parametrize("shape", [(12, 8), (12, 18), (18, 12), (32, 32)])
def test_to_spectral_is_exactly_hermitian(shape, rng):
    # to_spectral mirrors the kx < 0 half of column ky = 0, so the full
    # spectrum from_band rebuilds from it is exactly Hermitian; it is fft2
    # of the field masked by the oracles' 2/3 mask, which the band's mask
    # restricts to the band columns (Lx != Ly, and nx != ny but for 32 x 32)
    g = SpectralGrid(*shape, 1.5e6, 2.5e6)
    phys = rng.standard_normal((2, g.nx, g.ny))
    c = from_band(g, to_spectral(g, phys))
    mx, my = (-np.arange(g.nx)) % g.nx, (-np.arange(g.ny)) % g.ny
    assert np.array_equal(c[:, mx][:, :, my], np.conj(c))
    mask = full_band_mask(g)
    kept = np.broadcast_to(mask[:, : band(g).kb], (2, g.nx, band(g).kb))
    assert np.array_equal(to_spectral(g, phys) != 0, kept)
    want = np.where(mask, np.fft.fft2(phys), 0.0)
    assert np.max(np.abs(c - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(8, 8), (12, 18), (18, 12), (32, 32), (64, 64)])
def test_band_transforms_are_bitwise_scipy_fft(shape, rng):
    # numpy.fft with out= against the scipy.fft calls the band transforms
    # replaced: a library change that broke the equality would otherwise
    # show only as drift in the sweep
    g = SpectralGrid(*shape, 1.5e6, 2.5e6)
    kb = band(g).kb
    c = rng.standard_normal((7, g.nx, kb)) + 1j * rng.standard_normal((7, g.nx, kb))
    out = np.empty((7, g.nx, g.ny))
    assert to_physical(g, c, out=out) is out
    assert np.array_equal(out, scipy.fft.irfft(scipy.fft.ifft(c, axis=-2), n=g.ny, axis=-1))
    assert np.array_equal(to_physical(g, c), out)
    phys = rng.standard_normal((4, g.nx, g.ny))
    spec = np.empty((4, g.nx, kb), dtype=complex)
    assert to_spectral(g, phys, out=spec) is spec
    want = mirror_ky0(scipy.fft.fft(scipy.fft.rfft(phys, axis=-1)[..., :kb], axis=-2))
    assert np.array_equal(spec, np.where(full_band_mask(g)[:, :kb], want, 0.0))
    assert np.array_equal(to_spectral(g, phys), spec)


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
    # the domain integral of a product of band-limited fields, read off their
    # band spectra by energy_inner's Parseval weights (eta alone, g = 1),
    # against the physical-space Riemann sum; 12 x 8 has Lx != Ly
    for grid in (grid32, SpectralGrid(12, 8, 1.5e6, 1.0e6)):
        params = flat_bottom(grid, 0.0, 1.0, 1.0)
        a, b = (to_physical(grid, to_spectral(grid, f))
                for f in rng.standard_normal((2, grid.nx, grid.ny)))
        zero = np.zeros((grid.nx, grid.ny))
        sa, sb = (State(grid, to_spectral(grid, np.stack((zero, zero, f))))
                  for f in (a, b))
        want = grid.cell_area * float(np.sum(a * b))
        assert energy_inner(sa, sb, params) == pytest.approx(want, rel=1e-12)


def test_dealias_is_idempotent_projection(grid32, rng):
    # to_spectral keeps the 2/3 band alone, so to_physical after it is the
    # orthogonal projection onto band-limited fields: applied twice it
    # changes nothing, and what it drops is orthogonal to what it keeps
    f = rng.standard_normal((32, 32))
    once = to_physical(grid32, to_spectral(grid32, f))
    twice = to_physical(grid32, to_spectral(grid32, once))
    assert np.max(np.abs(twice - once)) <= 1e-13 * np.max(np.abs(once))
    assert np.linalg.norm(once) <= np.linalg.norm(f)
    assert abs(float(np.sum((f - once) * once))) <= 1e-13 * float(np.sum(f * f))


def test_physical_product_equals_truncated_convolution(grid8, rng):
    # 12 x 8 with Lx != Ly: nx divisible by 3 is where |wrap| = n/3 aliases
    for grid in (grid8, SpectralGrid(12, 8, 1.5e6, 1.0e6)):
        sa = band_limited_state(grid, rng)
        sb = band_limited_state(grid, rng)
        prod = to_physical(grid, sa.q[0]) * to_physical(grid, sb.q[0])
        got = from_band(grid, to_spectral(grid, prod))
        want = truncated_convolution(grid, sa.u, sb.u)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, grid.nx


# non-square with Lx != Ly, so a transposed axis cannot pass unseen
GRID_12x8 = SpectralGrid(12, 8, 1.5e6, 1.0e6)


def test_stacked_transforms_equal_per_slice_calls(rng):
    g = GRID_12x8
    phys = rng.standard_normal((2, 3, g.nx, g.ny))
    spec = to_spectral(g, phys)
    assert spec.shape == (2, 3, g.nx, band(g).kb)
    for index in np.ndindex(phys.shape[:2]):
        assert np.array_equal(spec[index], to_spectral(g, phys[index]))
    back = to_physical(g, spec)
    assert back.shape == phys.shape
    for index in np.ndindex(phys.shape[:2]):
        assert np.array_equal(back[index], to_physical(g, spec[index]))
    with pytest.raises(ValueError, match="shape"):
        to_physical(g, np.zeros((3, g.ny, g.nx), dtype=complex))


def test_inverse_equals_real_part_of_full_inverse(rng):
    # the formula the benchmark checks its pinned states with, on the full
    # spectra State.u, v and eta rebuild; to_physical reads only the band
    g = GRID_12x8
    c = to_spectral(g, rng.standard_normal((2, 3, g.nx, g.ny)))
    got = to_physical(g, c)
    want = np.fft.ifft2(from_band(g, c)).real
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(8, 8), (12, 18), (18, 12), (32, 32)])
def test_band_columns_hold_the_two_thirds_band(shape, rng):
    g = SpectralGrid(*shape, 1.5e6, 2.5e6)
    b = band(g)
    assert b.kb == -(-g.ny // 3)
    # every band mode is in the columns or the mirror of one that is, and
    # to_spectral keeps exactly the band modes of the columns
    mask = full_band_mask(g)[:, : b.kb]
    assert np.array_equal(to_spectral(g, rng.standard_normal((g.nx, g.ny))) != 0, mask)
    assert not np.any(full_band_mask(g)[:, b.kb : g.ny - b.kb + 1])
    assert np.array_equal(b.ikx, np.broadcast_to(1j * g.kx[:, None], mask.shape))
    assert np.array_equal(b.iky, np.broadcast_to(1j * g.ky[None, : b.kb], mask.shape))


@pytest.mark.parametrize("shape", [(8, 8), (12, 18), (18, 12)])
def test_band_round_trip_and_transforms(shape, rng):
    g = SpectralGrid(*shape, 1.5e6, 2.5e6)
    compact = np.stack([band_limited_state(g, rng).q[0] for _ in range(3)])
    assert compact.shape == (3, g.nx, band(g).kb)
    # the rebuild is exactly Hermitian and cuts back to the band stack
    full = from_band(g, compact)
    mx, my = (-np.arange(g.nx)) % g.nx, (-np.arange(g.ny)) % g.ny
    assert np.array_equal(full[:, mx][:, :, my], np.conj(full))
    assert np.array_equal(take_band(g, full), compact)

    # the band transforms against numpy's full-grid ones
    phys = np.fft.ifft2(full).real
    got = to_physical(g, compact)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - phys)) <= 1e-14 * np.max(np.abs(phys))
    spec = to_spectral(g, phys)
    assert np.max(np.abs(spec - compact)) <= 1e-12 * np.max(np.abs(compact))
    with pytest.raises(ValueError, match="real"):
        to_spectral(g, phys + 0j)
    with pytest.raises(ValueError, match="band stack"):
        to_physical(g, full)
