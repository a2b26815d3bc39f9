"""Rotating shallow water on the f-plane: linear and nonlinear operators.

The state (u, v, eta) evolves as U_t = L U + N(U) with

    L U = (f v - g eta_x,  -f u - g eta_y,  -H (u_x + v_y))
    N(U) = (-(u.grad) u,  -div[u (eta - b)])

where b is the bottom topography.  L acts diagonally per spectral mode as the
3x3 block [[0, f, -i g kx], [-f, 0, -i g ky], [-i H kx, -i H ky, 0]] with
eigenvalues {0, +i omega, -i omega}, omega = sqrt(f^2 + g H |k|^2).  L is
skew-adjoint in the energy inner product H (u u' + v v') + g eta eta'.
Its per-mode couplings on the band are cached per (grid, f, g, H), and one
kernel, _add_linear, applies them: apply_linear here and both exponential
routes of the propagator module.

PhysicsParams is the physical system, (grid, f, g, H, b), and every band
kernel reads its grid from there; every State entry point rejects a state on
another grid (require_same_grid).  A State holds U as q, its compact (3, nx,
kb) band stack (grid module), kb = ceil(ny/3), and PhysicsParams holds b as
its (nx, kb) band.  N is a band kernel: apply_nonlinear(q, params) maps the
band stack of U to that of N(U), zero outside the 2/3 band and the band of an
exactly Hermitian field.  Its seven inverse and four forward transforms are
one to_physical and one to_spectral call (numpy.fft), and every intermediate
lives in the calling thread's grid.scratch arrays, written through out=: the
(7, nx, kb) gradient stack, the (7, nx, ny) physical stack, one physical
product and the (4, nx, kb) forward result, plus the transforms' own scratch.
The band stack it returns is the only array a call allocates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .grid import (SpectralGrid, band, band_width, from_band, scratch, to_physical,
                   to_spectral)

__all__ = [
    "PhysicsParams",
    "State",
    "apply_linear",
    "apply_nonlinear",
    "require_same_grid",
    "dispersion_omega",
    "max_frequency",
    "energy_inner",
    "energy_norm",
]


@dataclass(frozen=True, eq=False)
class PhysicsParams:
    """Physical constants and the bottom topography on a grid; == is identity.

    b_phys is passed as the real physical topography (nx, ny) and kept as
    the physical field of its 2/3 band b = to_spectral(grid, b_phys), the
    (nx, kb) band stack the dynamics reads, so the diagnostics see the same
    topography.  Both are read-only, and b_phys must peak below the depth H.
    """

    grid: SpectralGrid = field(repr=False)
    f: float
    g: float
    H: float
    b_phys: np.ndarray = field(repr=False)
    b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if not self.H > 0:
            raise ValueError(f"H must be positive, got {self.H}")
        b = to_spectral(self.grid, self.b_phys)
        b_phys = to_physical(self.grid, b)
        for name, arr in (("b", b), ("b_phys", b_phys)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        bmax = float(b_phys.max())
        if bmax >= self.H:
            raise ValueError(
                f"topography peak {bmax:.6g} must stay below H = {self.H:.6g}")


def flat_bottom(grid: SpectralGrid, f: float, g: float, H: float) -> PhysicsParams:
    """PhysicsParams with b identically zero."""
    return PhysicsParams(grid, f, g, H, np.zeros((grid.nx, grid.ny)))


def require_same_grid(state: State, params: PhysicsParams) -> None:
    """ValueError, naming both grids, unless the state lives on params.grid."""
    if state.grid != params.grid:
        raise ValueError(f"state grid {state.grid} does not match the physics' "
                         f"grid {params.grid}")


@dataclass(frozen=True, eq=False)
class State:
    """Shallow-water state (u, v, eta) at model time t, held as q: the compact
    complex (3, nx, kb) band stack of grid.to_spectral, kb = ceil(ny/3).
    == is identity.

    Any other shape, or a nonzero entry outside the 2/3 band, is a
    ValueError, so every State is band-limited by type.  q is kept as a
    read-only view of the array passed in (not a copy, and the caller's
    array keeps its own write flag).  u, v and eta are read-only full
    (nx, ny) spectra, built from q on each access by grid.from_band.
    Arithmetic (+, -, scalar *) acts on q and keeps the left operand's time
    stamp; propagators and steppers set t explicitly.
    """

    grid: SpectralGrid
    q: np.ndarray = field(repr=False)
    t: float = 0.0

    def __post_init__(self):
        nx, kb = self.grid.nx, band_width(self.grid.ny)
        q = np.asarray(self.q, dtype=np.complex128)
        if q.shape != (3, nx, kb):
            raise ValueError(f"state band stack has shape {q.shape}, expected "
                             f"(3, nx, kb) = {(3, nx, kb)}")
        # on the band columns, the out-of-band modes are the kx rows nx/3 <= |wx|
        if np.any(q[:, band_width(nx) : nx - band_width(nx) + 1]):
            raise ValueError("state has nonzero modes outside the 2/3 band")
        q = q.view()
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def _full(self, i: int) -> np.ndarray:
        out = from_band(self.grid, self.q[i])
        out.setflags(write=False)
        return out

    u = property(lambda self: self._full(0), doc="Read-only full spectrum of u.")
    v = property(lambda self: self._full(1), doc="Read-only full spectrum of v.")
    eta = property(lambda self: self._full(2), doc="Read-only full spectrum of eta.")

    def __add__(self, other: "State") -> "State":
        self._check_compatible(other)
        return replace(self, q=self.q + other.q)

    def __sub__(self, other: "State") -> "State":
        self._check_compatible(other)
        return replace(self, q=self.q - other.q)

    def __mul__(self, a: float) -> "State":
        return replace(self, q=a * self.q)

    __rmul__ = __mul__

    def _check_compatible(self, other: "State") -> None:
        if self.grid != other.grid:
            raise ValueError(f"states live on different grids: {self.grid} "
                             f"and {other.grid}")


@dataclass(frozen=True, eq=False)
class _Couplings:
    """Per-mode entries of L on the band: the scalar f, the (nx, kb) couplings
    -g i kx, -g i ky, -H i kx, -H i ky and omega, and the whole grid's max
    omega.  == is identity, so a table cached per couplings keys on this one."""

    f: float
    gx: np.ndarray
    gy: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    omega: np.ndarray
    max_omega: float


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=16)
def _couplings(grid: SpectralGrid, f: float, g: float, H: float) -> _Couplings:
    """Read-only couplings of L on the band columns."""
    b = band(grid)
    kx2, ky2 = grid.wavenumber_mesh()
    omega = np.sqrt(f**2 + g * H * (kx2**2 + ky2**2))  # dispersion_omega, every mode
    arrays = _frozen((-g) * b.ikx, (-g) * b.iky, (-H) * b.ikx, (-H) * b.iky,
                     omega[:, : b.kb].copy())
    return _Couplings(f, *arrays, float(np.max(omega)))


def couplings(params: PhysicsParams) -> _Couplings:
    """L's couplings for params, one cached table per (grid, f, g, H)."""
    return _couplings(params.grid, float(params.f), float(params.g), float(params.H))


def _add_linear(cp: _Couplings, q: np.ndarray, out: np.ndarray,
                tmp: np.ndarray) -> None:
    """out += L q for (3, nx, kb) band stacks, L given by its couplings;
    into zeros, this is L q.  The products go through the (2, nx, kb)
    scratch tmp: out[0] += f q1 + gx q2, out[1] += gy q2 - f q0 and
    out[2] += hx q0 + hy q1, in that order of operations."""
    a, b = tmp
    np.multiply(cp.f, q[1], out=a)
    np.multiply(cp.gx, q[2], out=b)
    a += b
    out[0] += a
    np.multiply(cp.gy, q[2], out=a)
    np.multiply(cp.f, q[0], out=b)
    a -= b
    out[1] += a
    np.multiply(cp.hx, q[0], out=a)
    np.multiply(cp.hy, q[1], out=b)
    a += b
    out[2] += a


def apply_linear(state: State, params: PhysicsParams) -> State:
    """Tendency L U: rotation, pressure gradient, divergence.  Per-mode diagonal."""
    require_same_grid(state, params)
    out = np.zeros_like(state.q)
    _add_linear(couplings(params), state.q, out, np.empty_like(out[:2]))
    return replace(state, q=out)


def apply_nonlinear(q: np.ndarray, params: PhysicsParams) -> np.ndarray:
    """Band stack of N(U), momentum advection and flux-form continuity, for
    the state U whose (3, nx, kb) band stack is q.

    q must be zero outside the 2/3 band, as a State's q, its shifts and their
    sums are; nothing here truncates it again.  Products are formed in
    physical space and to_spectral keeps their 2/3 band, so no product of two
    retained modes aliases back into the band: the truncated convolution.
    The mean eta tendency is exactly zero, both continuity terms being
    divergences.  The result is the band of an exactly Hermitian field:
    to_spectral mirrors column ky = 0, and i kx keeps the mirror.
    """
    grid = params.grid
    bd = band(grid)
    nx, ny, kb = grid.nx, grid.ny, bd.kb
    if np.shape(q) != (3, nx, kb):
        raise ValueError(f"apply_nonlinear needs a (3, nx, kb) = "
                         f"{(3, nx, kb)} band stack, got shape {np.shape(q)}")

    # (u, v, eta - b), then the four velocity gradients
    c = scratch("apply_nonlinear.c", (7, nx, kb))
    c[:2] = q[:2]
    np.subtract(q[2], params.b, out=c[2])
    np.multiply(bd.ikx, c[0], out=c[3])
    np.multiply(bd.iky, c[0], out=c[4])
    np.multiply(bd.ikx, c[1], out=c[5])
    np.multiply(bd.iky, c[1], out=c[6])
    phys = to_physical(grid, c, out=scratch("apply_nonlinear.phys", (7, nx, ny),
                                            np.float64))
    u, v, depth, ux, uy, vx, vy = phys

    # the four products overwrite the gradients, each after their last use
    tmp = scratch("apply_nonlinear.tmp", (nx, ny), np.float64)
    np.multiply(u, ux, out=ux)
    ux += np.multiply(v, uy, out=tmp)
    np.negative(ux, out=ux)
    np.multiply(u, vx, out=uy)
    uy += np.multiply(v, vy, out=tmp)
    np.negative(uy, out=uy)
    np.multiply(u, depth, out=vx)
    np.multiply(v, depth, out=vy)
    products = to_spectral(grid, phys[3:],
                           out=scratch("apply_nonlinear.products", (4, nx, kb)))
    # du and dv, then -(i kx flux_x + i ky flux_y)
    out = np.empty((3, nx, kb), dtype=np.complex128)
    out[:2] = products[:2]
    np.multiply(bd.ikx, products[2], out=out[2])
    out[2] += np.multiply(bd.iky, products[3], out=c[4])
    np.negative(out[2], out=out[2])
    return out


def dispersion_omega(kappa, params: PhysicsParams) -> np.ndarray:
    """Inertia-gravity frequency omega = sqrt(f^2 + g H |kappa|^2).

    kappa is a (kx, ky) pair of scalars or broadcastable arrays.
    """
    kx, ky = kappa
    return np.sqrt(params.f**2 + params.g * params.H * (np.asarray(kx)**2
                                                       + np.asarray(ky)**2))


def max_frequency(params: PhysicsParams) -> float:
    """Largest |eigenvalue| of L over all grid modes (attained at the Nyquist corner)."""
    return couplings(params).max_omega


def energy_inner(a: State, b: State, params: PhysicsParams) -> float:
    """Energy inner product integral H (u u' + v v') + g eta eta' over the domain.

    Evaluated from the band stacks via Parseval: the full spectra's sum is
    the band's with weight 1 on column ky = 0, which holds both kx and -kx,
    and 2 on every other column, which stands for itself and its mirror
    (ky = ny/2 lies outside the band).  L is skew-adjoint and e^{Lt} is an
    isometry under this product.
    """
    a._check_compatible(b)
    g = a.grid
    npts = g.nx * g.ny
    weights = np.where(np.arange(a.q.shape[-1]) == 0, 1.0, 2.0)
    coef = np.array([params.H, params.H, params.g])[:, None, None]
    quad = np.vdot(b.q, coef * weights * a.q)
    return float(np.real(quad) * g.Lx * g.Ly / npts**2)


def energy_norm(a: State, params: PhysicsParams) -> float:
    return float(np.sqrt(max(energy_inner(a, a, params), 0.0)))
