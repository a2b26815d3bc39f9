"""Exponential propagators e^{Lt}: exact per-mode oracle and Chebyshev expansion.

Per mode, L satisfies L^3 = -omega^2 L, so the exponential has the closed form

    e^{Lt} = I + (sin(omega t)/omega) L + ((1 - cos(omega t))/omega^2) L^2

with the omega -> 0 limit I + t L.  This is exact (to round-off) and serves
as the oracle for the iterative route.

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

import numpy as np
import scipy.fft

from .dynamics import PhysicsParams, State, apply_linear, dispersion_omega, max_frequency

__all__ = [
    "PropagatorSpec",
    "exact_exp",
    "cheb_coeffs",
    "choose_npoly",
    "cheb_exp",
    "propagate",
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


def exact_exp(t: float, state: State, params: PhysicsParams) -> State:
    """Apply e^{Lt} exactly via the per-mode closed form; advances the time stamp."""
    g = state.grid
    kx2, ky2 = g.wavenumber_mesh()
    om = dispersion_omega((kx2, ky2), params)
    safe = np.where(om > 0.0, om, 1.0)
    c1 = np.where(om > 0.0, np.sin(om * t) / safe, t)
    c2 = np.where(om > 0.0, (1.0 - np.cos(om * t)) / safe**2, 0.5 * t * t)
    lu = apply_linear(state, params)
    llu = apply_linear(lu, params)
    return replace(state,
                   u=state.u + c1 * lu.u + c2 * llu.u,
                   v=state.v + c1 * lu.v + c2 * llu.v,
                   eta=state.eta + c1 * lu.eta + c2 * llu.eta,
                   t=state.t + t)


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
    lam_needed = abs(t) * max_frequency(state.grid, params)
    if lam_needed > spec.Lambda * (1.0 + 1e-9):
        raise ValueError(
            f"|t| * max_frequency = {lam_needed:.6g} exceeds Lambda = "
            f"{spec.Lambda:.6g}; enlarge Lambda or shorten t")

    a = cheb_coeffs(spec.Lambda, spec.n_poly)
    # the couplings of (2 t / Lambda) L per mode: a scalar for rotation and
    # full (nx, ny) arrays for the gradients, which multiply faster than
    # broadcast (nx, 1) and (1, ny) vectors
    c = 2.0 * t / spec.Lambda
    ik = 1j * np.stack(np.broadcast_arrays(*state.grid.wavenumber_mesh()))
    f = c * params.f
    gx, gy = (-c * params.g) * ik
    hx, hy = (-c * params.H) * ik

    def add_linear(q: np.ndarray, out: np.ndarray) -> None:
        # out += (2 t / Lambda) L q
        out[0] += f * q[1] + gx * q[2]
        out[1] += gy * q[2] - f * q[0]
        out[2] += hx * q[0] + hy * q[1]

    # Q_{k+1} = (2 t / Lambda) L Q_k + Q_{k-1} overwrites Q_{k-1}'s buffer,
    # so the recurrence runs on two (3, nx, ny) arrays and one accumulator
    q_prev = np.stack((state.u, state.v, state.eta))
    q = np.zeros_like(q_prev)
    add_linear(q_prev, q)
    q *= 0.5
    acc = a[0] * q_prev + a[1] * q
    for k in range(2, spec.n_poly + 1):
        add_linear(q, q_prev)
        acc += a[k] * q_prev
        q_prev, q = q, q_prev
    # real coefficients and a real recurrence keep Hermitian inputs Hermitian,
    # so no symmetry projection is needed here
    return replace(state, u=acc[0], v=acc[1], eta=acc[2], t=state.t + t)


def propagate(t: float, state: State, params: PhysicsParams,
              spec: PropagatorSpec) -> State:
    """Apply e^{Lt} by the route selected in spec."""
    if spec.kind == "exact":
        return exact_exp(t, state, params)
    return cheb_exp(t, state, params, spec)
