"""Rotating shallow water on the f-plane: linear and nonlinear operators.

The state (u, v, eta) evolves as U_t = L U + N(U) with

    L U = (f v - g eta_x,  -f u - g eta_y,  -H (u_x + v_y))
    N(U) = (-(u.grad) u,  -div[u (eta - b)])

where b is the bottom topography.  L acts diagonally per spectral mode as the
3x3 block [[0, f, -i g kx], [-f, 0, -i g ky], [-i H kx, -i H ky, 0]] with
eigenvalues {0, +i omega, -i omega}, omega = sqrt(f^2 + g H |k|^2).  L is
skew-adjoint in the energy inner product H (u u' + v v') + g eta eta'.

N is a band kernel: it reads only the 2/3-band modes of its input, through
the compact (nx, kb) band columns of grid.py, and returns a state that is
zero outside the band and exactly Hermitian-symmetric.  Its seven inverse
and four forward transforms are one band_to_physical and one
band_to_spectral call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft

from .grid import SpectralGrid, band, band_to_physical, band_to_spectral, from_band
# to_physical and to_spectral stay module attributes: perfbench/tracing.py
# patches them here
from .grid import to_physical, to_spectral  # noqa: F401

__all__ = [
    "PhysicsParams",
    "State",
    "apply_linear",
    "apply_nonlinear",
    "dispersion_omega",
    "max_frequency",
    "energy_inner",
    "energy_norm",
]


@dataclass(frozen=True)
class PhysicsParams:
    """Physical constants and bottom topography.

    b is the spectral field of a real topography, already dealiased where it
    matters; its physical maximum must stay below the mean depth H.  b_phys,
    the physical topography, is computed once here for that check, by the
    same half-spectrum inverse as grid.to_physical, and kept for the
    diagnostics.
    """

    f: float
    g: float
    H: float
    b: np.ndarray = field(repr=False)
    b_phys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if not self.H > 0:
            raise ValueError(f"H must be positive, got {self.H}")
        b = np.asarray(self.b, dtype=np.complex128)
        object.__setattr__(self, "b", b)
        if b.ndim != 2:
            raise ValueError(f"b must be a 2D spectral field, got shape {b.shape}")
        b_phys = scipy.fft.irfft2(b[:, : b.shape[1] // 2 + 1], s=b.shape)
        b_phys.setflags(write=False)
        object.__setattr__(self, "b_phys", b_phys)
        bmax = float(b_phys.max())
        if bmax >= self.H:
            raise ValueError(
                f"topography peak {bmax:.6g} must stay below H = {self.H:.6g}")


def flat_bottom(grid: SpectralGrid, f: float, g: float, H: float) -> PhysicsParams:
    """PhysicsParams with b identically zero."""
    return PhysicsParams(f=f, g=g, H=H,
                         b=np.zeros((grid.nx, grid.ny), dtype=np.complex128))


@dataclass(frozen=True)
class State:
    """Spectral shallow-water state (u, v, eta) at model time t.

    Arithmetic (+, -, scalar *) acts componentwise on the fields; the time
    stamp of the left operand is kept.  Propagators and steppers set t
    explicitly, so the stamp on intermediate combinations is bookkeeping only.
    """

    grid: SpectralGrid
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)
    t: float = 0.0

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        for name in ("u", "v", "eta"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if arr.shape != shape:
                raise ValueError(
                    f"field {name} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)

    def __add__(self, other: "State") -> "State":
        self._check_compatible(other)
        return replace(self, u=self.u + other.u, v=self.v + other.v,
                       eta=self.eta + other.eta)

    def __sub__(self, other: "State") -> "State":
        self._check_compatible(other)
        return replace(self, u=self.u - other.u, v=self.v - other.v,
                       eta=self.eta - other.eta)

    def __mul__(self, a: float) -> "State":
        return replace(self, u=a * self.u, v=a * self.v, eta=a * self.eta)

    __rmul__ = __mul__

    def _check_compatible(self, other: "State") -> None:
        if self.grid is not other.grid and (
                (self.grid.nx, self.grid.ny, self.grid.Lx, self.grid.Ly)
                != (other.grid.nx, other.grid.ny, other.grid.Lx, other.grid.Ly)):
            raise ValueError("states live on different grids")


def _check_b(state: State, params: PhysicsParams) -> None:
    if params.b.shape != (state.grid.nx, state.grid.ny):
        raise ValueError(
            f"topography shape {params.b.shape} does not match grid "
            f"{(state.grid.nx, state.grid.ny)}")


def apply_linear(state: State, params: PhysicsParams) -> State:
    """Tendency L U: rotation, pressure gradient, divergence.  Per-mode diagonal."""
    kx2, ky2 = state.grid.wavenumber_mesh()
    ikx = 1j * kx2
    iky = 1j * ky2
    du = params.f * state.v - params.g * (ikx * state.eta)
    dv = -params.f * state.u - params.g * (iky * state.eta)
    deta = -params.H * (ikx * state.u + iky * state.v)
    return replace(state, u=du, v=dv, eta=deta)


def apply_nonlinear(state: State, params: PhysicsParams) -> State:
    """Tendency N(U): momentum advection and flux-form continuity.

    Products are formed in physical space; inputs are truncated to the 2/3
    band |wrap| < n/3 first (a no-op on band-limited states) and the result is
    dealiased.  On that band no product of two retained modes aliases back
    into it, so for band-limited inputs this equals the truncated convolution.
    The mean eta tendency is exactly zero because both continuity terms are
    divergences.  Only the band columns of the input are read, and the result
    is rebuilt from its band columns, so it is exactly Hermitian.
    """
    _check_b(state, params)
    g = state.grid
    bd = band(g)
    kb = bd.kb

    # (u, v, eta - b) truncated to the band, then the four velocity gradients
    c = np.zeros((7, g.nx, kb), dtype=np.complex128)
    for dst, coeffs in zip(c, (state.u[:, :kb], state.v[:, :kb],
                               state.eta[:, :kb] - params.b[:, :kb])):
        np.copyto(dst, coeffs, where=bd.mask)
    np.multiply(bd.ikx, c[0], out=c[3])
    np.multiply(bd.iky, c[0], out=c[4])
    np.multiply(bd.ikx, c[1], out=c[5])
    np.multiply(bd.iky, c[1], out=c[6])
    phys = band_to_physical(g, c)
    u, v, depth, ux, uy, vx, vy = phys

    # the four products overwrite the gradients, each after their last use
    np.negative(u * ux + v * uy, out=phys[3])
    np.negative(u * vx + v * vy, out=phys[4])
    np.multiply(u, depth, out=phys[5])
    np.multiply(v, depth, out=phys[6])
    du, dv, flux_x, flux_y = band_to_spectral(g, phys[3:])
    # dealiased into c's first three fields, which are zero outside the band
    for dst, coeffs in zip(c, (du, dv, -(bd.ikx * flux_x + bd.iky * flux_y))):
        np.copyto(dst, coeffs, where=bd.mask)
    full = from_band(g, c[:3])
    return replace(state, u=full[0], v=full[1], eta=full[2])


def dispersion_omega(kappa, params: PhysicsParams) -> np.ndarray:
    """Inertia-gravity frequency omega = sqrt(f^2 + g H |kappa|^2).

    kappa is a (kx, ky) pair of scalars or broadcastable arrays.
    """
    kx, ky = kappa
    return np.sqrt(params.f**2 + params.g * params.H * (np.asarray(kx)**2
                                                       + np.asarray(ky)**2))


def max_frequency(grid: SpectralGrid, params: PhysicsParams) -> float:
    """Largest |eigenvalue| of L over all grid modes (attained at the Nyquist corner)."""
    kx2, ky2 = grid.wavenumber_mesh()
    return float(np.max(dispersion_omega((kx2, ky2), params)))


def energy_inner(a: State, b: State, params: PhysicsParams) -> float:
    """Energy inner product integral H (u u' + v v') + g eta eta' over the domain.

    Evaluated from the spectral coefficients via Parseval; L is skew-adjoint
    and e^{Lt} is an isometry under this product.  Works for complex
    intermediate states as well (conjugate-linear in b).
    """
    a._check_compatible(b)
    g = a.grid
    npts = g.nx * g.ny
    quad = (params.H * (np.vdot(b.u, a.u) + np.vdot(b.v, a.v))
            + params.g * np.vdot(b.eta, a.eta))
    return float(np.real(quad) * g.Lx * g.Ly / npts**2)


def energy_norm(a: State, params: PhysicsParams) -> float:
    return float(np.sqrt(max(energy_inner(a, a, params), 0.0)))
