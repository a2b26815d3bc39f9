"""Doubly periodic spectral grid: transforms, wavenumbers, 2/3-rule dealiasing.

Spectral fields are complex (nx, ny) arrays in unnormalised ``fft2`` layout:
index i runs over x, index j over y, and entry (i, j) carries the wavevector
(kx[i], ky[j]) in the usual signed wrap-around ordering.  The forward
transform is unnormalised, the 1/(nx*ny) factor lives in the inverse, so a
constant field 1.0 transforms to nx*ny in the (0, 0) slot and a round trip
reproduces the input to round-off.

Every field the package builds is the transform of a real field, so its
coefficients are Hermitian-symmetric, c(-k) = conj(c(k)); the operators keep
that symmetry, and the tests check it rather than the transforms.  The
inverse transform reads only the ky >= 0 half and is real by construction.
The transforms are ``scipy.fft`` over the last two axes and accept a stack of
fields, shape (..., nx, ny).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

__all__ = [
    "SpectralGrid",
    "make_grid",
    "to_spectral",
    "to_physical",
    "dealias",
    "integrate_product",
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
    them, to spectral coefficients."""
    phys = np.asarray(phys)
    _check_shape(grid, phys, "physical field", stacked=True)
    if np.iscomplexobj(phys):
        raise ValueError("to_spectral expects a real-valued field")
    return scipy.fft.fft2(phys.astype(np.float64, copy=False))


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
    return scipy.fft.irfft2(coeffs[..., : grid.ny // 2 + 1], s=(grid.nx, grid.ny))


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
