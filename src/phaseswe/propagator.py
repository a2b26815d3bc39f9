"""Exponential propagators e^{Lt}: exact per-mode oracle and Chebyshev expansion.

Per mode, L satisfies L^3 = -omega^2 L, so the exponential has the closed form

    e^{Lt} = I + (sin(omega t)/omega) L + ((1 - cos(omega t))/omega^2) L^2

with the omega -> 0 limit I + t L.  This is exact (to round-off) and serves
as the oracle for the iterative route.  Its cost is paid in tables: the
per-mode couplings of L and omega are cached per (nx, ny, Lx, Ly, f, g, H),
and c1(t) = sin(omega t)/omega and c2(t) = (1 - cos omega t)/omega^2 per |t|
(c1 is odd, c2 even), filled on first use.  A run only asks for the few
times its StepConfig fixes (the node shifts s_k, dt and dt/2), so the
trigonometry is evaluated once per distinct |t|.  L is applied through the
cached couplings into stacked (3, nx, ny) arrays, with no State built per
application, and forward_shift computes L U and L^2 U once for all the
shifts e^{L s_k} U of one averaged tendency.

The Chebyshev route approximates e^{l} for l on the spectral interval
i[-Lambda, Lambda] by a degree-n polynomial evaluated matrix-free through
repeated application of L.  With the basis

    Q_0 = I,   Q_1(Lt) = (t/Lambda) L,
    Q_{k+1}(Lt) = (2 t/Lambda) L Q_k(Lt) + Q_{k-1}(Lt)

(the i factors of the standard Chebyshev recurrence folded into the basis),
the expansion coefficients are real: a_k = (2 - delta_{k0}) J_k(Lambda) with
J_k the Bessel function of the first kind.  They are computed here by a
discrete cosine transform of e^{i Lambda cos(theta)} over Chebyshev nodes,
and the Bessel identity is kept as an independent cross-check in the tests.
All recurrence intermediates stay Hermitian-symmetric for real input states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import scipy.fft

# apply_linear stays a module attribute: perfbench/tracing.py patches it here
from .dynamics import PhysicsParams, State, apply_linear, dispersion_omega  # noqa: F401
from .grid import SpectralGrid, make_grid

__all__ = [
    "PropagatorSpec",
    "exact_exp",
    "cheb_coeffs",
    "choose_npoly",
    "cheb_exp",
    "propagate",
    "forward_shift",
]

DEFAULT_CHEB_TOL = 1e-10


@dataclass(frozen=True)
class PropagatorSpec:
    """Which exponential route to use, and the Chebyshev parameters if iterative.

    Lambda bounds |t| * max_frequency over every exponential the caller will
    request; exceeding it is an error, never silent extrapolation.
    """

    kind: str
    Lambda: float = 0.0
    n_poly: int = 1

    def __post_init__(self):
        if self.kind not in ("exact", "chebyshev"):
            raise ValueError(f"unknown propagator kind {self.kind!r}")
        if self.Lambda < 0:
            raise ValueError(f"Lambda must be nonnegative, got {self.Lambda}")
        if self.n_poly < 1:
            raise ValueError(f"n_poly must be at least 1, got {self.n_poly}")

    @classmethod
    def exact(cls) -> "PropagatorSpec":
        return cls(kind="exact")

    @classmethod
    def chebyshev(cls, Lambda: float, tol: float = DEFAULT_CHEB_TOL) -> "PropagatorSpec":
        """The Chebyshev route on i[-Lambda, Lambda], degree chosen from tol."""
        return cls(kind="chebyshev", Lambda=float(Lambda),
                   n_poly=choose_npoly(Lambda, tol))


# Table sizes.  A step asks for at most M + 2 distinct |t| (the live node
# shifts, dt and dt/2), so a step's whole set stays cached for M up to 62;
# each entry is two real (nx, ny) arrays.
_COUPLING_TABLES = 8
_COEFF_TABLES = 64


class _Couplings(NamedTuple):
    """Per-mode entries of L: the rotation scalar f, the (nx, ny) gradient
    couplings -g i kx, -g i ky, -H i kx, -H i ky, and omega."""

    f: float
    gx: np.ndarray
    gy: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    omega: np.ndarray
    max_omega: float

    def scaled(self, c: float) -> "_Couplings":
        """The couplings of c L."""
        return self._replace(f=c * self.f, gx=c * self.gx, gy=c * self.gy,
                             hx=c * self.hx, hy=c * self.hy)


def _table_key(grid: SpectralGrid, params: PhysicsParams) -> tuple:
    """The values L depends on: (nx, ny, Lx, Ly, f, g, H)."""
    return (grid.nx, grid.ny, grid.Lx, grid.Ly,
            float(params.f), float(params.g), float(params.H))


@lru_cache(maxsize=_COUPLING_TABLES)
def _couplings(nx: int, ny: int, Lx: float, Ly: float,
               f: float, g: float, H: float) -> _Couplings:
    """Read-only couplings of L, cached per (nx, ny, Lx, Ly, f, g, H)."""
    kx2, ky2 = make_grid(nx, ny, Lx, Ly).wavenumber_mesh()
    # full (nx, ny) arrays: a broadcast (nx, 1) complex multiply is slower
    ikx, iky = 1j * np.stack(np.broadcast_arrays(kx2, ky2))
    # dispersion_omega reads only f, g and H from its params
    omega = dispersion_omega((kx2, ky2), SimpleNamespace(f=f, g=g, H=H))
    arrays = ((-g) * ikx, (-g) * iky, (-H) * ikx, (-H) * iky, omega)
    for arr in arrays:
        arr.setflags(write=False)
    return _Couplings(f, *arrays, float(np.max(omega)))


@lru_cache(maxsize=_COEFF_TABLES)
def _exp_coeffs(key: tuple, abs_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only c1(|t|) = sin(omega t)/omega and c2(|t|) = (1 - cos omega t)/omega^2,
    with the omega = 0 limits |t| and t^2/2, for the couplings of key.

    c1 is odd in t and c2 even, so one entry serves e^{Lt} and e^{-Lt}."""
    om = _couplings(*key).omega
    safe = np.where(om > 0.0, om, 1.0)
    c1 = np.where(om > 0.0, np.sin(om * abs_t) / safe, abs_t)
    c2 = np.where(om > 0.0, (1.0 - np.cos(om * abs_t)) / safe**2, 0.5 * abs_t * abs_t)
    for arr in (c1, c2):
        arr.setflags(write=False)
    return c1, c2


def _add_linear(cp: _Couplings, q: np.ndarray, out: np.ndarray) -> None:
    """out += L q for stacked (3, nx, ny) arrays, L given by its couplings."""
    out[0] += cp.f * q[1] + cp.gx * q[2]
    out[1] += cp.gy * q[2] - cp.f * q[0]
    out[2] += cp.hx * q[0] + cp.hy * q[1]


def _linear(cp: _Couplings, q) -> np.ndarray:
    """L q as a new stacked (3, nx, ny) array; q is a stacked array or a
    (u, v, eta) tuple of fields."""
    out = np.empty((3,) + q[0].shape, dtype=np.complex128)
    np.multiply(q[1], cp.f, out=out[0])
    out[0] += cp.gx * q[2]
    np.multiply(cp.gy, q[2], out=out[1])
    out[1] -= cp.f * q[0]
    np.multiply(cp.hx, q[0], out=out[2])
    out[2] += cp.hy * q[1]
    return out


def _from_stack(state: State, q: np.ndarray, t: float) -> State:
    return replace(state, u=q[0], v=q[1], eta=q[2], t=state.t + t)


def _closed_form(key: tuple, t: float, q, lu: np.ndarray, llu: np.ndarray) -> np.ndarray:
    """e^{Lt} q = q + c1(t) L q + c2(t) L^2 q from the cached coefficients,
    as a new stacked array."""
    c1, c2 = _exp_coeffs(key, abs(t))
    out = np.multiply(llu, c2)
    tmp = np.empty_like(out[0])
    combine = np.subtract if t < 0.0 else np.add  # c1 is odd in t
    for i in range(3):
        out[i] += q[i]
        np.multiply(lu[i], c1, out=tmp)
        combine(out[i], tmp, out=out[i])
    return out


def _exact_shift(state: State, params: PhysicsParams) -> Callable[[float], State]:
    """t -> e^{Lt} state, with L state and L^2 state computed once here."""
    key = _table_key(state.grid, params)
    cp = _couplings(*key)
    q = (state.u, state.v, state.eta)
    lu = _linear(cp, q)
    llu = _linear(cp, lu)
    return lambda t: _from_stack(state, _closed_form(key, t, q, lu, llu), t)


def exact_exp(t: float, state: State, params: PhysicsParams) -> State:
    """Apply e^{Lt} exactly via the per-mode closed form; advances the time stamp."""
    return _exact_shift(state, params)(t)


@lru_cache(maxsize=64)
def cheb_coeffs(Lambda: float, n_poly: int) -> np.ndarray:
    """Real, read-only expansion coefficients a_0 .. a_{n_poly} for e^{l},
    l in i[-Lambda, Lambda]; cached per (Lambda, n_poly)."""
    if Lambda < 0:
        raise ValueError(f"Lambda must be nonnegative, got {Lambda}")
    if n_poly < 1:
        raise ValueError(f"n_poly must be at least 1, got {n_poly}")
    # Chebyshev coefficients b_k of h(x) = e^{i Lambda x} on [-1, 1] via a
    # type-II DCT at the Chebyshev roots, then rotated by (-i)^k so that the
    # coefficients of the Q_k basis come out real.
    npts = max(64, 2 * (n_poly + 1), int(np.ceil(Lambda)) + 64)
    theta = np.pi * (np.arange(npts) + 0.5) / npts
    h = np.exp(1j * Lambda * np.cos(theta))
    b = (scipy.fft.dct(h.real, type=2) + 1j * scipy.fft.dct(h.imag, type=2)) / npts
    b[0] *= 0.5
    rot = (-1j) ** np.arange(n_poly + 1)
    a = rot * b[:n_poly + 1]
    imag = float(np.max(np.abs(a.imag)))
    scale = max(float(np.max(np.abs(a))), 1.0)
    if imag > 1e-12 * scale:
        raise RuntimeError(f"non-real Chebyshev coefficient residual {imag:.3e}")
    a = np.ascontiguousarray(a.real)
    a.setflags(write=False)
    return a


def choose_npoly(Lambda: float, tol: float = DEFAULT_CHEB_TOL) -> int:
    """Smallest degree whose discarded tail coefficients are all below tol.

    For tol >= 1e-12 the result satisfies n <= Lambda + 2 Lambda^(1/3) + 40,
    reflecting the superexponential decay of the coefficients past k = Lambda.
    """
    if Lambda < 0:
        raise ValueError(f"Lambda must be nonnegative, got {Lambda}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    generous = int(np.ceil(Lambda + 2.0 * Lambda ** (1.0 / 3.0))) + 60
    a = cheb_coeffs(Lambda, generous)
    below = np.abs(a) < tol
    n = generous
    while n >= 1 and below[n]:
        n -= 1
    return max(n, 1)


def cheb_exp(t: float, state: State, params: PhysicsParams,
             spec: PropagatorSpec) -> State:
    """Apply e^{Lt} through the matrix-free Chebyshev recurrence.

    Requires |t| * max_frequency <= spec.Lambda; t = 0 returns the state
    unchanged (e^0 is the identity).
    """
    if spec.kind != "chebyshev":
        raise ValueError(f"cheb_exp needs a chebyshev spec, got kind {spec.kind!r}")
    if t == 0.0:
        return state
    cp = _couplings(*_table_key(state.grid, params))
    lam_needed = abs(t) * cp.max_omega
    if lam_needed > spec.Lambda * (1.0 + 1e-9):
        raise ValueError(
            f"|t| * max_frequency = {lam_needed:.6g} exceeds Lambda = "
            f"{spec.Lambda:.6g}; enlarge Lambda or shorten t")

    a = cheb_coeffs(spec.Lambda, spec.n_poly)
    scaled = cp.scaled(2.0 * t / spec.Lambda)

    # Q_{k+1} = (2 t / Lambda) L Q_k + Q_{k-1} overwrites Q_{k-1}'s buffer,
    # so the recurrence runs on two (3, nx, ny) arrays and one accumulator
    q_prev = np.stack((state.u, state.v, state.eta))
    q = np.zeros_like(q_prev)
    _add_linear(scaled, q_prev, q)
    q *= 0.5
    acc = a[0] * q_prev + a[1] * q
    for k in range(2, spec.n_poly + 1):
        _add_linear(scaled, q, q_prev)
        acc += a[k] * q_prev
        q_prev, q = q, q_prev
    # real coefficients and a real recurrence keep Hermitian inputs Hermitian,
    # so no symmetry projection is needed here
    return _from_stack(state, acc, t)


def propagate(t: float, state: State, params: PhysicsParams,
              spec: PropagatorSpec) -> State:
    """Apply e^{Lt} by the route selected in spec."""
    if spec.kind == "exact":
        return exact_exp(t, state, params)
    return cheb_exp(t, state, params, spec)


def forward_shift(state: State, params: PhysicsParams,
                  spec: PropagatorSpec) -> Callable[[float], State]:
    """The map s -> e^{Ls} state, for many s applied to one state.

    On the exact route L state and L^2 state are computed once, here, and
    each shift only combines them with the cached coefficients; the result
    is bitwise exact_exp(s, state, params).  On the Chebyshev route each
    shift is a cheb_exp call.
    """
    if spec.kind == "exact":
        return _exact_shift(state, params)
    return lambda s: cheb_exp(s, state, params, spec)
