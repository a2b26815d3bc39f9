"""Independent reference implementations that the checks compare against.

Each oracle takes the slow, obvious route on purpose and calls none of the
fast paths it checks: the pseudo-spectral product is a direct O(n^4) sum over
integer wavenumbers, the linear operator is a dense 3x3 matrix per mode, and
the Chebyshev coefficients come from the Bessel identity through
``scipy.special.jv``.  ``phaseswe validate`` and the test suite share this
module, so there is one copy of each reference.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from .dynamics import PhysicsParams, State
from .grid import SpectralGrid, dealias, to_spectral

__all__ = [
    "band_limited_state",
    "wrap_indices",
    "truncated_convolution",
    "nonlinear_tendency",
    "linear_mode_matrix",
    "linear_tendency",
    "dense_exp",
    "bessel_cheb_coeffs",
]


def band_limited_state(grid: SpectralGrid, rng, vel_scale: float = 1.0,
                       eta_scale: float = 50.0, t: float = 0.0) -> State:
    """Random Hermitian-symmetric state supported on the 2/3 band."""
    def field(scale):
        phys = scale * rng.standard_normal((grid.nx, grid.ny))
        return dealias(grid, to_spectral(grid, phys))

    return State(grid=grid, u=field(vel_scale), v=field(vel_scale),
                 eta=field(eta_scale), t=t)


def wrap_indices(n: int) -> np.ndarray:
    """Signed integer wavenumbers in FFT order: 0, 1, ..., n/2 - 1, -n/2, ..., -1."""
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def truncated_convolution(grid: SpectralGrid, ca: np.ndarray,
                          cb: np.ndarray) -> np.ndarray:
    """Direct truncated-convolution oracle for the pseudo-spectral product.

    out(k) = (1/(nx ny)) sum_{p + q = k} ca(p) cb(q) over band-limited p, q,
    restricted to band-limited k, where the band is |w| < n/3 per direction.
    Wavevectors add exactly, with no wrap-around, so this equals
    multiply-in-physical-space-then-dealias only when no product of band
    modes aliases back into the band.
    """
    nx, ny = grid.nx, grid.ny
    wx = wrap_indices(nx)
    wy = wrap_indices(ny)
    keep_x = [i for i in range(nx) if 3 * abs(wx[i]) < nx]
    keep_y = [j for j in range(ny) if 3 * abs(wy[j]) < ny]
    index_x = {int(wx[i]): i for i in range(nx)}
    index_y = {int(wy[j]): j for j in range(ny)}

    out = np.zeros((nx, ny), dtype=np.complex128)
    for i in keep_x:
        for j in keep_y:
            for p in keep_x:
                for q in keep_y:
                    rx = int(wx[i]) - int(wx[p])
                    ry = int(wy[j]) - int(wy[q])
                    if rx in index_x and ry in index_y:
                        r, s = index_x[rx], index_y[ry]
                        if 3 * abs(rx) < nx and 3 * abs(ry) < ny:
                            out[i, j] += ca[p, q] * cb[r, s]
    return out / (nx * ny)


def nonlinear_tendency(state: State, params: PhysicsParams) -> State:
    """N(U) = (-(u.grad) u, -div[u (eta - b)]) from truncated convolutions."""
    grid = state.grid
    ikx = 1j * grid.kx[:, None]
    iky = 1j * grid.ky[None, :]

    def conv(a, b):
        return truncated_convolution(grid, a, b)

    u, v, depth = state.u, state.v, state.eta - params.b
    return State(grid=grid,
                 u=-(conv(u, ikx * u) + conv(v, iky * u)),
                 v=-(conv(u, ikx * v) + conv(v, iky * v)),
                 eta=-(ikx * conv(u, depth) + iky * conv(v, depth)),
                 t=state.t)


def linear_mode_matrix(kx: float, ky: float, f: float, g: float,
                       H: float) -> np.ndarray:
    """Dense per-mode generator acting on the coefficient vector (u, v, eta)."""
    return np.array([
        [0.0, f, -1j * g * kx],
        [-f, 0.0, -1j * g * ky],
        [-1j * H * kx, -1j * H * ky, 0.0],
    ])


def _per_mode(state: State, params: PhysicsParams, matrix_fn) -> State:
    # apply matrix_fn(per-mode generator) to (u, v, eta) one mode at a time
    grid = state.grid
    vec = np.stack([state.u, state.v, state.eta])
    out = np.empty_like(vec)
    for i in range(grid.nx):
        for j in range(grid.ny):
            mat = linear_mode_matrix(grid.kx[i], grid.ky[j],
                                     params.f, params.g, params.H)
            out[:, i, j] = matrix_fn(mat) @ vec[:, i, j]
    return State(grid=grid, u=out[0], v=out[1], eta=out[2], t=state.t)


def linear_tendency(state: State, params: PhysicsParams) -> State:
    """L U as the dense per-mode matrix times the coefficient vector."""
    return _per_mode(state, params, lambda mat: mat)


def dense_exp(t: float, state: State, params: PhysicsParams) -> State:
    """e^{Lt} U through scipy.linalg.expm of each per-mode matrix."""
    # imported here: every CLI command imports this module through
    # validation, and scipy.linalg alone adds about 6 MB of resident memory
    import scipy.linalg

    return _per_mode(state, params, lambda mat: scipy.linalg.expm(t * mat))


def bessel_cheb_coeffs(Lambda: float, n_poly: int) -> np.ndarray:
    """Chebyshev coefficients of e^{l}: a_k = (2 - delta_k0) J_k(Lambda)."""
    k = np.arange(n_poly + 1)
    return np.where(k == 0, 1.0, 2.0) * scipy.special.jv(k, Lambda)
