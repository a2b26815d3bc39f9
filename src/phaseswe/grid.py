"""Doubly periodic spectral grid: transforms, wavenumbers, 2/3-rule dealiasing.

Spectral fields are complex (nx, ny) arrays in unnormalised ``fft2`` layout:
index i runs over x, index j over y, and entry (i, j) carries the wavevector
(kx[i], ky[j]) in the usual signed wrap-around ordering.  The forward
transform is unnormalised, the 1/(nx*ny) factor lives in the inverse, so a
constant field 1.0 transforms to nx*ny in the (0, 0) slot and a round trip
reproduces the input to round-off.

The transforms are ``scipy.fft`` over the last two axes and accept a stack of
fields, shape (..., nx, ny); every check in to_physical is made slice by
slice, so one call on a stack raises exactly when one call per slice would.
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
    "hermitian_residual",
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


# (block, mirror block) index pairs along one axis: the negated wavevector
# maps index 0 to itself and 1 .. n-1 to n-1 .. 1
_MIRROR = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))


def _hermitian_defect(c: np.ndarray) -> np.ndarray:
    """|c(k) - conj(c(-k))| per mode over the last two axes, with c(-k) read
    through reversed views of c."""
    d = np.empty_like(c)
    for rows, mirror_rows in _MIRROR:
        for cols, mirror_cols in _MIRROR:
            np.conjugate(c[..., mirror_rows, mirror_cols], out=d[..., rows, cols])
    np.subtract(c, d, out=d)
    return np.abs(d)


def hermitian_residual(c: np.ndarray) -> float:
    """Max absolute deviation of c from Hermitian symmetry c(-k) = conj(c(k))."""
    return float(np.max(_hermitian_defect(np.asarray(c))))


def _first_failure(failed: np.ndarray, stack_shape: tuple) -> tuple[int, str]:
    """Flat index of the first failing slice and its label for a message
    ("" for a single field), or (-1, "") when none fails."""
    hits = np.flatnonzero(failed)
    if hits.size == 0:
        return -1, ""
    k = int(hits[0])
    if not stack_shape:
        return k, ""
    index = np.unravel_index(k, stack_shape)
    return k, f" (slice {', '.join(str(int(i)) for i in index)})"


def to_physical(grid: SpectralGrid, coeffs: np.ndarray,
                scale: float | None = None) -> np.ndarray:
    """Inverse transform of Hermitian-symmetric coefficients to a real field.

    coeffs is one (nx, ny) field or a stack (..., nx, ny); each slice is
    checked on its own, against its own amplitude.  scale, when given, is the
    coefficient magnitude of the data the fields were computed from;
    asymmetry is judged against the larger of it and the slice's maximum.
    Fields that are pure cancellation residue (for example a velocity
    component that stays at round-off on a symmetric flow) would otherwise
    fail a check relative to their own maximum.

    Raises
    ------
    ValueError
        If a slice does not satisfy c(-k) = conj(c(k)) to within
        ``HERMITIAN_RTOL`` relative to max(its largest coefficient, scale);
        the message names the most offending mode, and the slice of a stack.
        Also if the inverse transform leaves an imaginary part above
        round-off of the slice's real field.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    _check_shape(grid, coeffs, "spectral field", stacked=True)
    stack_shape = coeffs.shape[:-2]
    flat = coeffs.reshape(-1, grid.nx, grid.ny)
    ref = np.abs(flat).max(axis=(1, 2))
    if scale is not None:
        ref = np.maximum(ref, float(scale))
    defect = _hermitian_defect(flat)
    worst = defect.max(axis=(1, 2))
    k, where = _first_failure(worst > HERMITIAN_RTOL * ref, stack_shape)
    if k >= 0:
        i, j = np.unravel_index(int(defect[k].argmax()), defect.shape[1:])
        wx = _wrap_indices(grid.nx)[i]
        wy = _wrap_indices(grid.ny)[j]
        raise ValueError(
            f"non-Hermitian spectral field{where}: mode (kx index {wx}, ky index "
            f"{wy}) has asymmetry {worst[k]:.3e} (relative {worst[k] / ref[k]:.3e})")
    phys = scipy.fft.ifft2(flat)
    amp = np.maximum(np.abs(phys.real).max(axis=(1, 2)), ref / (grid.nx * grid.ny))
    imag = np.abs(phys.imag).max(axis=(1, 2))
    k, where = _first_failure((amp > 0.0) & (imag > 1e-12 * amp + 1e-300), stack_shape)
    if k >= 0:
        raise ValueError(f"imaginary residual{where} {imag[k]:.3e} exceeds tolerance "
                         f"(relative {imag[k] / amp[k]:.3e})")
    return phys.real.reshape(coeffs.shape)


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
