"""Exponential propagators e^{Lt}: exact per-mode oracle and Chebyshev expansion.

Per mode, L satisfies L^3 = -omega^2 L, so the exponential has the closed form

    e^{Lt} = I + (sin(omega t)/omega) L + ((1 - cos(omega t))/omega^2) L^2

with the omega -> 0 limit I + t L.  This is exact (to round-off) and serves
as the oracle for the iterative route.

One kernel, shift(q, grid, params, spec), maps s -> e^{Ls} q for a stacked
(3, nx, ncols) array q: ncols = ny is the whole grid, ncols = kb = ceil(ny/3)
the compact 2/3 band of grid.take_band.  Its tables are cached per
(nx, ny, Lx, Ly, f, g, H) and ncols: L's per-mode couplings and omega, and
per |t| c1(t) = sin(omega t)/omega and c2(t) = (1 - cos omega t)/omega^2 (c1
is odd, c2 even), so the trigonometry runs once per distinct |t| a run asks
for (its node shifts, dt and dt/2).  A band entry copies the whole-grid
entry's columns and every operation is per mode, so a band shift is bitwise
the band columns of a whole-grid one.  propagate, exact_exp and cheb_exp
wrap shift for States; the averaged tendency and the stepper use the band.

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
from .grid import SpectralGrid, band_width, make_grid

__all__ = [
    "PropagatorSpec",
    "exact_exp",
    "cheb_coeffs",
    "choose_npoly",
    "cheb_exp",
    "propagate",
    "shift",
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
# shifts, dt and dt/2), each a whole-grid entry of two real (nx, ny) arrays
# and its band copy, so a step's whole set stays cached for M up to 62.
_COUPLING_TABLES = 16
_COEFF_TABLES = 128


class _Couplings(NamedTuple):
    """Per-mode entries of L: the scalar f, the (nx, ncols) couplings -g i kx,
    -g i ky, -H i kx, -H i ky and omega, and the whole grid's max omega."""

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


def _columns(arrays, ncols: int) -> tuple:
    """Read-only contiguous first ncols columns of (nx, ny) arrays: the arrays
    themselves for ncols = ny, copies for the band."""
    out = tuple(np.ascontiguousarray(arr[:, :ncols]) for arr in arrays)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=_COUPLING_TABLES)
def _couplings(key: tuple, ncols: int) -> _Couplings:
    """Read-only couplings of L on the first ncols columns, for the key of
    _table_key; a band entry copies the whole-grid entry's columns."""
    nx, ny, Lx, Ly, f, g, H = key
    if ncols != ny:
        whole = _couplings(key, ny)
        return whole._replace(**dict(zip(("gx", "gy", "hx", "hy", "omega"),
                                         _columns(whole[1:6], ncols))))
    kx2, ky2 = make_grid(nx, ny, Lx, Ly).wavenumber_mesh()
    # full (nx, ny) arrays: a broadcast (nx, 1) complex multiply is slower
    ikx, iky = 1j * np.stack(np.broadcast_arrays(kx2, ky2))
    # dispersion_omega reads only f, g and H from its params
    omega = dispersion_omega((kx2, ky2), SimpleNamespace(f=f, g=g, H=H))
    arrays = _columns(((-g) * ikx, (-g) * iky, (-H) * ikx, (-H) * iky, omega), ny)
    return _Couplings(f, *arrays, float(np.max(omega)))


@lru_cache(maxsize=_COEFF_TABLES)
def _exp_coeffs(key: tuple, ncols: int, abs_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only c1(|t|) = sin(omega t)/omega and c2(|t|) = (1 - cos omega t)/omega^2,
    with the omega = 0 limits |t| and t^2/2, on the first ncols columns; a
    band entry copies the whole-grid entry's.  c1 is odd in t and c2 even,
    so one entry serves e^{Lt} and e^{-Lt}."""
    if ncols != key[1]:
        return _columns(_exp_coeffs(key, key[1], abs_t), ncols)
    om = _couplings(key, ncols).omega
    safe = np.where(om > 0.0, om, 1.0)
    c1 = np.where(om > 0.0, np.sin(om * abs_t) / safe, abs_t)
    c2 = np.where(om > 0.0, (1.0 - np.cos(om * abs_t)) / safe**2, 0.5 * abs_t * abs_t)
    return _columns((c1, c2), ncols)


def _add_linear(cp: _Couplings, q: np.ndarray, out: np.ndarray) -> None:
    """out += L q for stacked (3, nx, ncols) arrays, L given by its couplings;
    into zeros, this is L q."""
    out[0] += cp.f * q[1] + cp.gx * q[2]
    out[1] += cp.gy * q[2] - cp.f * q[0]
    out[2] += cp.hx * q[0] + cp.hy * q[1]


def _closed_form(coeffs, t: float, q: np.ndarray, lu: np.ndarray,
                 llu: np.ndarray) -> np.ndarray:
    """e^{Lt} q = q + c1(t) L q + c2(t) L^2 q from the coefficients (c1, c2)
    of |t|, as a new stacked array."""
    c1, c2 = coeffs
    out = np.multiply(llu, c2)
    tmp = np.empty_like(out[0])
    combine = np.subtract if t < 0.0 else np.add  # c1 is odd in t
    for i in range(3):
        out[i] += q[i]
        np.multiply(lu[i], c1, out=tmp)
        combine(out[i], tmp, out=out[i])
    return out


def shift(q: np.ndarray, grid: SpectralGrid, params: PhysicsParams,
          spec: PropagatorSpec) -> Callable[[float], np.ndarray]:
    """The map s -> e^{Ls} q for a whole-grid (3, nx, ny) or band
    (3, nx, kb) stack q, as new stacks; q is not modified.  On the exact
    route L q and L^2 q are computed once, here; on the Chebyshev route each
    shift runs the recurrence on a copy of q."""
    if q.shape not in ((3, grid.nx, grid.ny), (3, grid.nx, band_width(grid.ny))):
        raise ValueError(f"shift needs a (3, nx, ny) or (3, nx, kb) stack for the "
                         f"{grid.nx} x {grid.ny} grid, got shape {q.shape}")
    key, ncols = _table_key(grid, params), q.shape[-1]
    cp = _couplings(key, ncols)
    if spec.kind == "exact":
        lu, llu = np.zeros_like(q), np.zeros_like(q)
        _add_linear(cp, q, lu)
        _add_linear(cp, lu, llu)
        return lambda s: _closed_form(_exp_coeffs(key, ncols, abs(s)), s, q, lu, llu)
    return lambda s: _cheb_stack(cp, q.copy(), s, spec)


def propagate(t: float, state: State, params: PhysicsParams,
              spec: PropagatorSpec) -> State:
    """Apply e^{Lt} by the route selected in spec; advances the time stamp."""
    q = shift(np.stack((state.u, state.v, state.eta)), state.grid, params, spec)(t)
    return replace(state, u=q[0], v=q[1], eta=q[2], t=state.t + t)


def exact_exp(t: float, state: State, params: PhysicsParams) -> State:
    """Apply e^{Lt} exactly via the per-mode closed form; advances the time stamp."""
    return propagate(t, state, params, PropagatorSpec.exact())


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
    return propagate(t, state, params, spec)


def _cheb_stack(cp: _Couplings, q0: np.ndarray, t: float,
                spec: PropagatorSpec) -> np.ndarray:
    """The Chebyshev recurrence for e^{Lt} on a stacked array q0, which it
    overwrites; L is given by its couplings, whole-grid or band."""
    lam_needed = abs(t) * cp.max_omega
    if lam_needed > spec.Lambda * (1.0 + 1e-9):
        raise ValueError(
            f"|t| * max_frequency = {lam_needed:.6g} exceeds Lambda = "
            f"{spec.Lambda:.6g}; enlarge Lambda or shorten t")

    a = cheb_coeffs(spec.Lambda, spec.n_poly)
    scaled = cp.scaled(2.0 * t / spec.Lambda)

    # Q_{k+1} = (2 t / Lambda) L Q_k + Q_{k-1} overwrites Q_{k-1}'s buffer,
    # so the recurrence runs on two stacked arrays and one accumulator
    q_prev = q0
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
    return acc
