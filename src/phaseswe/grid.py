"""Doubly periodic spectral grid: wavenumbers, the 2/3 band, its transforms.

Index i runs over x and index j over y; spectral entry (i, j) carries the
wavevector (kx[i], ky[j]) of the unnormalised ``fft2`` layout, in the usual
signed wrap-around ordering.  The forward transform is unnormalised and the
1/(nx*ny) factor lives in the inverse, so a constant field 1.0 has nx*ny in
its (0, 0) slot.

Spectra have one layout: the compact 2/3 band.  The solver keeps the modes
|wrap| < n/3 per direction (Orszag's 2/3 rule), and every such mode of a
real field is fixed by the ky >= 0 band columns 0 .. kb - 1, kb = ceil(ny/3):
the other band modes are their conjugate mirrors.  So a spectral field, and
dynamics.State, is a complex (..., nx, kb) band stack, zero on the kx rows
outside the band and with column ky = 0 conjugate-symmetric in kx
(``mirror_ky0``).  ``to_spectral`` maps real fields (..., nx, ny) to their
band stacks and is the one place that truncates; ``to_physical`` maps band
stacks back, real by construction; ``from_band`` rebuilds a band stack's
full Hermitian (..., nx, ny) spectrum.  The transforms are ``numpy.fft``,
write their result through ``out=`` when given one, and keep their
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
    "Band",
    "band_width",
    "band",
    "mirror_ky0",
    "from_band",
    "scratch",
    "to_physical",
    "to_spectral",
]

@dataclass(frozen=True)
class SpectralGrid:
    """Uniform doubly periodic grid with precomputed wavenumbers.

    Build through :func:`make_grid`, which validates the arguments.  Grids
    compare and hash by (nx, ny, Lx, Ly), which fix kx and ky.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float
    kx: np.ndarray = field(repr=False, compare=False)
    ky: np.ndarray = field(repr=False, compare=False)

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

    kx = 2.0 * np.pi * _wrap_indices(nx) / Lx
    ky = 2.0 * np.pi * _wrap_indices(ny) / Ly
    for arr in (kx, ky):
        arr.setflags(write=False)
    return SpectralGrid(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly), kx=kx, ky=ky)


class Band(NamedTuple):
    """The ky >= 0 band columns of a grid: their count kb = ceil(ny/3) and
    i kx, i ky on them, each a read-only (nx, kb) array."""

    kb: int
    ikx: np.ndarray
    iky: np.ndarray


def band_width(n: int) -> int:
    """ceil(n/3), the wavenumbers 0 <= w < n/3 kept along an axis of n points
    (kb = band_width(ny) band columns).  2/3 rule: keep |wrap| < n/3, exact
    in integer arithmetic.  Two kept modes then sum to |wrap| < 2n/3, so their
    product's wrap-around image lands outside the band; keeping |wrap| = n/3
    would let it alias back in."""
    return -(-n // 3)


@lru_cache(maxsize=8)
def band(grid: SpectralGrid) -> Band:
    """The grid's band tables, cached per grid value and built on first use."""
    kb = band_width(grid.ny)
    kx2, ky2 = np.broadcast_arrays(grid.kx[:, None], grid.ky[None, :kb])
    arrays = (1j * kx2, 1j * ky2)
    for arr in arrays:
        arr.setflags(write=False)
    return Band(kb, *arrays)


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


def to_physical(grid: SpectralGrid, q: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Real physical fields (..., nx, ny) of band stacks (..., nx, kb): ifft
    along x on the kb columns, into scratch, then irfft along y with n = ny,
    into out if given.  Only the band columns are read, so the result is real
    by construction and equals ifft2(from_band(grid, q)).real."""
    q = np.asarray(q)
    _check_band(grid, q)
    spec_x = np.fft.ifft(q, axis=-2, out=scratch("to_physical", q.shape))
    return np.fft.irfft(spec_x, n=grid.ny, axis=-1, out=out)


def to_spectral(grid: SpectralGrid, phys: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Band stacks (..., nx, kb) of real physical fields (..., nx, ny): rfft
    along y, into scratch, then fft along x of the kb band columns, into out
    if given.  The kx rows outside the band are zeroed and column ky = 0 is
    mirrored (mirror_ky0), so the result is the 2/3 band of the fields'
    exactly Hermitian spectra."""
    phys = np.asarray(phys)
    if phys.shape[-2:] != (grid.nx, grid.ny):
        raise ValueError(f"physical field has shape {phys.shape}, expected "
                         f"(..., nx, ny) = {(grid.nx, grid.ny)}")
    if np.iscomplexobj(phys):
        raise ValueError("to_spectral expects real-valued fields")
    half = np.fft.rfft(phys.astype(np.float64, copy=False), axis=-1, out=scratch(
        "to_spectral", phys.shape[:-1] + (grid.ny // 2 + 1,)))
    out = mirror_ky0(np.fft.fft(half[..., : band_width(grid.ny)], axis=-2, out=out))
    # the 2/3 rule (band_width): the band columns keep wy < ny/3, and on them
    # the out-of-band modes are the kx rows nx/3 <= |wx|
    kbx = band_width(grid.nx)
    out[..., kbx : grid.nx - kbx + 1, :] = 0.0
    return out
