"""Doubly periodic spectral grid: transforms, wavenumbers, 2/3-rule dealiasing.

Spectral fields are complex (nx, ny) arrays in unnormalised ``fft2`` layout:
index i runs over x, index j over y, and entry (i, j) carries the wavevector
(kx[i], ky[j]) in the usual signed wrap-around ordering.  The forward
transform is unnormalised, the 1/(nx*ny) factor lives in the inverse, so a
constant field 1.0 transforms to nx*ny in the (0, 0) slot and a round trip
reproduces the input to round-off.

Every field the package builds is the transform of a real field, so its
coefficients are Hermitian-symmetric, c(-k) = conj(c(k)).  The forward
transform computes the ky >= 0 half (rfft along y, fft along x) and fills
the rest as its conjugate mirror, so its output is exactly Hermitian; the
inverse reads only the ky >= 0 half and is real by construction.  The
transforms are ``numpy.fft`` over the last two axes and accept a stack of
fields, shape (..., nx, ny).

Every 2/3-band mode of a real field is fixed by the ky >= 0 band columns
0 .. kb - 1, kb = ceil(ny/3): the other band modes are their conjugate
mirrors.  The band kernels, and dynamics.State, work on those columns alone,
as compact (..., nx, kb) stacks: ``take_band`` cuts them out (zero outside
the band), ``from_band`` rebuilds the full Hermitian (nx, ny) layout
(``mirror_ky0`` makes column ky = 0 conjugate-symmetric), and
``band_to_physical``/``band_to_spectral`` transform between the compact band
and real physical fields without touching the columns the band leaves empty.
Both write their result through ``out=`` when given one, and keep their
intermediate spectra in ``scratch`` arrays: reusable stacks of the calling
thread, one per (name, trailing shape, dtype), grown to the most rows asked
for (one row per averaging node, say), so a kernel that passes its own
scratch as ``out`` allocates nothing per call and threads never share one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "SpectralGrid",
    "make_grid",
    "to_spectral",
    "to_physical",
    "dealias",
    "integrate_product",
    "Band",
    "band_width",
    "band",
    "take_band",
    "mirror_ky0",
    "from_band",
    "band_to_physical",
    "band_to_spectral",
    "scratch",
]

@dataclass(frozen=True)
class SpectralGrid:
    """Uniform doubly periodic grid with precomputed wavenumbers.

    Build through :func:`make_grid`, which validates the arguments.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float
    kx: np.ndarray = field(repr=False)
    ky: np.ndarray = field(repr=False)
    dealias_mask: np.ndarray = field(repr=False)

    @property
    def dx(self) -> float:
        return self.Lx / self.nx

    @property
    def dy(self) -> float:
        return self.Ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def x(self) -> np.ndarray:
        """Physical x coordinates of the grid columns, shape (nx,)."""
        return np.arange(self.nx) * self.dx

    @property
    def y(self) -> np.ndarray:
        """Physical y coordinates of the grid rows, shape (ny,)."""
        return np.arange(self.ny) * self.dy

    def wavenumber_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable 2D wavenumber arrays (kx[:, None], ky[None, :])."""
        return self.kx[:, None], self.ky[None, :]


def _wrap_indices(n: int) -> np.ndarray:
    # signed FFT index order: 0, 1, ..., n/2 - 1, -n/2, ..., -1
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def make_grid(nx: int, ny: int, Lx: float, Ly: float) -> SpectralGrid:
    """Construct a :class:`SpectralGrid`.

    Parameters
    ----------
    nx, ny : int
        Number of grid points per direction; even and at least 8.
    Lx, Ly : float
        Domain lengths in metres; strictly positive.
    """
    for name, n in (("nx", nx), ("ny", ny)):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"{name} must be even and >= 8, got {n}")
    for name, length in (("Lx", Lx), ("Ly", Ly)):
        if not length > 0:
            raise ValueError(f"{name} must be positive, got {length}")

    wx = _wrap_indices(nx)
    wy = _wrap_indices(ny)
    kx = 2.0 * np.pi * wx / Lx
    ky = 2.0 * np.pi * wy / Ly
    # 2/3 rule: keep |wrap| < n/3, exact in integer arithmetic.  Two kept
    # modes then sum to |wrap| < 2n/3, so their product's wrap-around image
    # lands outside the band; keeping |wrap| = n/3 would let it alias back in.
    mask = (3 * np.abs(wx)[:, None] < nx) & (3 * np.abs(wy)[None, :] < ny)
    for arr in (kx, ky, mask):
        arr.setflags(write=False)
    return SpectralGrid(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly),
                        kx=kx, ky=ky, dealias_mask=mask)


def _check_shape(grid: SpectralGrid, arr: np.ndarray, what: str,
                 stacked: bool = False) -> None:
    shape = arr.shape[-2:] if stacked else arr.shape
    if shape != (grid.nx, grid.ny):
        expected = "(..., nx, ny)" if stacked else "(nx, ny)"
        raise ValueError(f"{what} has shape {arr.shape}, expected {expected} = "
                         f"{(grid.nx, grid.ny)}")


def to_spectral(grid: SpectralGrid, phys: np.ndarray) -> np.ndarray:
    """Forward transform of a real physical field, or a stack (..., nx, ny) of
    them, to spectral coefficients.

    The ky >= 0 half, columns 0 .. ny/2, is rfft along y then fft along x;
    every other entry is set from it by c(-k) = conj(c(k)), and the four
    self-conjugate modes are made real, so the output is exactly Hermitian.
    """
    phys = np.asarray(phys)
    _check_shape(grid, phys, "physical field", stacked=True)
    if np.iscomplexobj(phys):
        raise ValueError("to_spectral expects a real-valued field")
    nx, half = grid.nx, grid.ny // 2
    out = np.empty(phys.shape, dtype=np.complex128)
    np.fft.fft(np.fft.rfft(phys.astype(np.float64, copy=False), axis=-1), axis=-2,
               out=out[..., : half + 1])
    # columns ky = 0 and ky = ny/2 are each their own mirror in ky
    edges = out[..., ::half]
    np.conjugate(edges[..., 1 : nx // 2, :], out=edges[..., : nx // 2 : -1, :])
    edges[..., :: nx // 2, :].imag = 0.0
    np.conjugate(out[..., 0, half - 1 : 0 : -1], out=out[..., 0, half + 1 :])
    np.conjugate(out[..., :0:-1, half - 1 : 0 : -1], out=out[..., 1:, half + 1 :])
    return out


def to_physical(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform of spectral coefficients, one (nx, ny) field or a
    stack (..., nx, ny), to real physical fields.

    Only the ky >= 0 half, columns 0 .. ny/2, is read: the other half of a
    real field's spectrum is its conjugate mirror, so the output is real by
    construction and equals ifft2(coeffs).real for every state the package
    builds.
    """
    coeffs = np.asarray(coeffs)
    _check_shape(grid, coeffs, "spectral field", stacked=True)
    return np.fft.irfft2(coeffs[..., : grid.ny // 2 + 1], s=(grid.nx, grid.ny))


def dealias(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes outside the 2/3-rule band of each (nx, ny) slice;
    retained modes are unchanged."""
    coeffs = np.asarray(coeffs)
    _check_shape(grid, coeffs, "spectral field", stacked=True)
    return np.where(grid.dealias_mask, coeffs, 0.0)


def integrate_product(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Domain integral of the product of two real fields from their coefficients.

    Uses the discrete Parseval identity; equals the physical-space Riemann sum
    dx*dy*sum(f*g) to round-off for Hermitian-symmetric inputs.
    """
    _check_shape(grid, np.asarray(a), "spectral field")
    _check_shape(grid, np.asarray(b), "spectral field")
    npts = grid.nx * grid.ny
    return float(np.real(np.vdot(b, a)) * grid.Lx * grid.Ly / npts**2)


class Band(NamedTuple):
    """The ky >= 0 band columns of a grid: their count kb = ceil(ny/3), the
    2/3 mask on them and i kx, i ky, each a read-only (nx, kb) array."""

    kb: int
    mask: np.ndarray
    ikx: np.ndarray
    iky: np.ndarray


def band_width(ny: int) -> int:
    """kb = ceil(ny/3): the columns 0 <= wy < ny/3 of the 2/3 band."""
    return -(-ny // 3)


@lru_cache(maxsize=8)
def _band(nx: int, ny: int, Lx: float, Ly: float) -> Band:
    grid = make_grid(nx, ny, Lx, Ly)
    kb = band_width(ny)
    kx2, ky2 = np.broadcast_arrays(grid.kx[:, None], grid.ky[None, :kb])
    arrays = (np.ascontiguousarray(grid.dealias_mask[:, :kb]), 1j * kx2, 1j * ky2)
    for arr in arrays:
        arr.setflags(write=False)
    return Band(kb, *arrays)


def band(grid: SpectralGrid) -> Band:
    """The grid's band tables, cached per (nx, ny, Lx, Ly) and built on first use."""
    return _band(grid.nx, grid.ny, grid.Lx, grid.Ly)


def take_band(grid: SpectralGrid, fields) -> np.ndarray:
    """The 2/3-band modes of k spectral (nx, ny) fields (a stack or a
    sequence) as one compact (k, nx, kb) stack, zero outside the band."""
    b = band(grid)
    out = np.zeros((len(fields), grid.nx, b.kb), dtype=np.complex128)
    for dst, coeffs in zip(out, fields):
        _check_shape(grid, np.asarray(coeffs), "spectral field")
        np.copyto(dst, coeffs[:, : b.kb], where=b.mask)
    return out


def _check_band(grid: SpectralGrid, arr: np.ndarray) -> None:
    kb = band_width(grid.ny)
    if arr.shape[-2:] != (grid.nx, kb):
        raise ValueError(f"band stack has shape {arr.shape}, expected (..., nx, kb) = "
                         f"{(grid.nx, kb)}")


def mirror_ky0(stack: np.ndarray) -> np.ndarray:
    """The stack (..., nx, n), its column ky = 0 made conjugate-symmetric
    in kx in place: the kx < 0 half is overwritten by the kx > 0 half's mirror."""
    nx = stack.shape[-2]
    np.conjugate(stack[..., 1 : nx // 2, 0], out=stack[..., : nx // 2 : -1, 0])
    return stack


def from_band(grid: SpectralGrid, compact: np.ndarray) -> np.ndarray:
    """The full Hermitian (..., nx, ny) layout of a compact band stack.

    Columns 0 .. kb - 1 are the band columns, except that the kx < 0 half of
    column 0 is the conjugate mirror of its kx > 0 half; columns ny - kb + 1
    .. ny - 1 are the conjugate mirror at (-kx, -ky) of band columns
    kb - 1 .. 1; every other entry is zero.  The result is exactly
    Hermitian-symmetric when the band's (0, 0) entry is real.
    """
    compact = np.asarray(compact)
    _check_band(grid, compact)
    ny, kb = grid.ny, compact.shape[-1]
    out = np.zeros(compact.shape[:-1] + (ny,), dtype=np.complex128)
    out[..., :kb] = compact
    mirror_ky0(out)
    np.conjugate(compact[..., 0, kb - 1 : 0 : -1], out=out[..., 0, ny - kb + 1 :])
    np.conjugate(compact[..., :0:-1, kb - 1 : 0 : -1], out=out[..., 1:, ny - kb + 1 :])
    return out


_scratch = threading.local()


def scratch(name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """The leading shape[0] rows of the calling thread's reusable stack for
    (name, shape[1:], dtype), made on first use.  A request for more rows
    than it has replaces the stack, so each key keeps one stack, sized to its
    largest request.  The array holds whatever its last user left, and stays
    valid only until the thread's next user of the same key."""
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None:
        buffers = _scratch.buffers = {}
    key = (name, tuple(shape[1:]), np.dtype(dtype))
    arr = buffers.get(key)
    if arr is None or len(arr) < shape[0]:
        arr = buffers[key] = None  # free the smaller stack before making the larger
        arr = buffers[key] = np.empty(shape, dtype=dtype)
    return arr[: shape[0]]


def band_to_physical(grid: SpectralGrid, compact: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Real physical fields (..., nx, ny) of a compact band stack (..., nx, kb):
    ifft along x on the kb columns, into scratch, then irfft along y with
    n = ny, into out if given.  For the band of a real field's spectrum this
    equals to_physical of the field."""
    compact = np.asarray(compact)
    _check_band(grid, compact)
    spec_x = np.fft.ifft(compact, axis=-2,
                         out=scratch("band_to_physical", compact.shape))
    return np.fft.irfft(spec_x, n=grid.ny, axis=-1, out=out)


def band_to_spectral(grid: SpectralGrid, phys: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Band columns (..., nx, kb) of the spectra of real fields (..., nx, ny):
    rfft along y, into scratch, then fft along x of the kb band columns, into
    out if given.  Equals to_spectral(phys)[..., :kb] to round-off; no mask
    is applied."""
    phys = np.asarray(phys)
    _check_shape(grid, phys, "physical field", stacked=True)
    if np.iscomplexobj(phys):
        raise ValueError("band_to_spectral expects real-valued fields")
    half = np.fft.rfft(phys, axis=-1, out=scratch(
        "band_to_spectral", phys.shape[:-1] + (grid.ny // 2 + 1,)))
    return np.fft.fft(half[..., : band_width(grid.ny)], axis=-2, out=out)
