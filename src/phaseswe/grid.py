"""Doubly periodic spectral grid: transforms, wavenumbers, 2/3-rule dealiasing.

Spectral fields are complex (nx, ny) arrays in unnormalised ``numpy.fft.fft2``
layout: index i runs over x, index j over y, and entry (i, j) carries the
wavevector (kx[i], ky[j]) in the usual signed wrap-around ordering.  The
forward transform is unnormalised, the 1/(nx*ny) factor lives in the inverse,
so a constant field 1.0 transforms to nx*ny in the (0, 0) slot and a round
trip reproduces the input to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralGrid",
    "make_grid",
    "to_spectral",
    "to_physical",
    "dealias",
    "hermitian_residual",
    "hermitianize",
    "integrate_product",
]

# Relative tolerance for the Hermitian-symmetry and imaginary-residual checks
# in to_physical.  All operators preserve symmetry exactly, so trajectories sit
# far below this; tripping it means a genuinely inconsistent field.
HERMITIAN_RTOL = 1e-12


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


def _check_shape(grid: SpectralGrid, arr: np.ndarray, what: str) -> None:
    if arr.shape != (grid.nx, grid.ny):
        raise ValueError(
            f"{what} has shape {arr.shape}, expected {(grid.nx, grid.ny)}")


def to_spectral(grid: SpectralGrid, phys: np.ndarray) -> np.ndarray:
    """Forward transform of a real physical field to spectral coefficients."""
    phys = np.asarray(phys)
    _check_shape(grid, phys, "physical field")
    if np.iscomplexobj(phys):
        raise ValueError("to_spectral expects a real-valued field")
    return np.fft.fft2(phys.astype(np.float64, copy=False))


def _reflect(c: np.ndarray) -> np.ndarray:
    # c evaluated at the negated wavevector: index map i -> (-i) mod n
    return np.roll(np.flip(c, axis=(0, 1)), shift=(1, 1), axis=(0, 1))


def hermitian_residual(c: np.ndarray) -> float:
    """Max absolute deviation of c from Hermitian symmetry c(-k) = conj(c(k))."""
    return float(np.max(np.abs(c - np.conj(_reflect(c)))))


def hermitianize(c: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian-symmetric part (real physical field)."""
    return 0.5 * (c + np.conj(_reflect(c)))


def to_physical(grid: SpectralGrid, coeffs: np.ndarray,
                scale: float | None = None) -> np.ndarray:
    """Inverse transform of Hermitian-symmetric coefficients to a real field.

    scale, when given, is the coefficient magnitude of the data the field was
    computed from; asymmetry is judged against it.  Fields that are pure
    cancellation residue (for example a velocity component that stays at
    round-off on a symmetric flow) would otherwise fail a check relative to
    their own maximum.

    Raises
    ------
    ValueError
        If coeffs do not satisfy c(-k) = conj(c(k)) to within
        ``HERMITIAN_RTOL`` relative to max(largest coefficient, scale); the
        message names the most offending mode.  Also if the inverse transform
        leaves an imaginary part above round-off of the real field.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    _check_shape(grid, coeffs, "spectral field")
    ref = float(np.max(np.abs(coeffs)))
    if scale is not None:
        ref = max(ref, float(scale))
    if ref > 0.0:
        defect = np.abs(coeffs - np.conj(_reflect(coeffs)))
        worst = float(defect.max())
        if worst > HERMITIAN_RTOL * ref:
            i, j = np.unravel_index(int(defect.argmax()), defect.shape)
            wx = _wrap_indices(grid.nx)[i]
            wy = _wrap_indices(grid.ny)[j]
            raise ValueError(
                "non-Hermitian spectral field: mode (kx index "
                f"{wx}, ky index {wy}) has asymmetry {worst:.3e} "
                f"(relative {worst / ref:.3e})")
    phys = np.fft.ifft2(coeffs)
    real = phys.real
    amp = max(float(np.max(np.abs(real))), ref / (grid.nx * grid.ny))
    if amp > 0.0:
        imag = float(np.max(np.abs(phys.imag)))
        if imag > 1e-12 * amp + 1e-300:
            raise ValueError(f"imaginary residual {imag:.3e} exceeds tolerance "
                             f"(relative {imag / amp:.3e})")
    return real


def dealias(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes outside the 2/3-rule band; retained modes are unchanged."""
    coeffs = np.asarray(coeffs)
    _check_shape(grid, coeffs, "spectral field")
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
