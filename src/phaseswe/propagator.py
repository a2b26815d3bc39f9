"""Exponential propagators e^{Lt}: exact per-mode oracle and Chebyshev expansion.

Per mode, L satisfies L^3 = -omega^2 L, so the exponential has the closed form

    e^{Lt} = I + (sin(omega t)/omega) L + ((1 - cos(omega t))/omega^2) L^2

with the omega -> 0 limit I + t L.  This is exact (to round-off) and serves
as the oracle for the iterative route.

One kernel, shift(q, params, spec, times), returns the stack
(len(times), 3, nx, kb) of e^{Lt} q for a (3, nx, kb) stack q of the compact
2/3 band of params.grid, kb = ceil(ny/3), the layout of a State's q; it
takes no other.  Each row is bitwise the shift of its time alone, and a call
computes what its rows share once: L q and L^2 q on the exact route, one
recurrence on the Chebyshev route.  Its tables hold band columns only: L's
per-mode couplings and omega, cached per (grid, f, g, H) in the dynamics
module, which also applies them (_add_linear), and per couplings and |t|
c1(t) = sin(omega t)/omega and c2(t) = (1 - cos omega t)/omega^2 (c1 is
odd, c2 even), so the trigonometry runs once per distinct |t| a run asks for
(its node shifts, dt and dt/2).  propagate, exact_exp and cheb_exp apply
shift to a State's q, as the averaged tendency and the stepper do, and
return the result as a State.

The Chebyshev route approximates e^{l} for l on the spectral interval
i[-Lambda, Lambda] by a degree-n polynomial evaluated matrix-free through
repeated application of L.  With the basis

    Q_0 = I,   Q_1(Lt) = (t/Lambda) L,
    Q_{k+1}(Lt) = (2 t/Lambda) L Q_k(Lt) + Q_{k-1}(Lt)

(the i factors of the standard Chebyshev recurrence folded into the basis),
the expansion coefficients are real: a_k = (2 - delta_{k0}) J_k(Lambda) with
J_k the Bessel function of the first kind.  They are computed here by a
discrete cosine transform of e^{i Lambda cos(theta)} over Chebyshev nodes
(an FFT through numpy.fft), and the Bessel identity is kept as an
independent cross-check in the tests.
All recurrence intermediates stay Hermitian-symmetric for real input states.

Each Chebyshev exponential is sized to its own argument: Lambda_t =
|t| max_omega, with max_omega the whole grid's (dynamics.max_frequency), and
degree choose_npoly(Lambda_t, tol), the coefficients cached per
(Lambda_t, tol).  The spec's Lambda only bounds the arguments.  The
recurrence operator (2 t/Lambda_t) L = sign(t) S, S = (2/max_omega) L, is
then the same for every |t| up to sign, and Q_k(-S) = (-1)^k Q_k(S), so one
recurrence in S, from one cached read-only table per couplings, serves every
time of a call: the sign of t negates the odd coefficients, and each row
accumulates up to its own degree.  Both routes write through out= into the
calling thread's grid.scratch arrays (L q and L^2 q, or the recurrence's
rolling Q_{k-1}, Q_k and product), so node threads may shift concurrently
and a call allocates only the stack it returns, or nothing when given out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import (PhysicsParams, State, _add_linear, _Couplings, _frozen,
                       couplings)
# apply_linear stays a module attribute: perfbench/tracing.py patches it here
from .dynamics import apply_linear  # noqa: F401
from .grid import band_width, scratch

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
    request; exceeding it is an error, never silent extrapolation.  Each
    Chebyshev exponential is sized to its own argument from tol.
    """

    kind: str
    Lambda: float = 0.0
    tol: float = DEFAULT_CHEB_TOL

    def __post_init__(self):
        if self.kind not in ("exact", "chebyshev"):
            raise ValueError(f"unknown propagator kind {self.kind!r}")
        if self.Lambda < 0:
            raise ValueError(f"Lambda must be nonnegative, got {self.Lambda}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")

    @classmethod
    def exact(cls) -> "PropagatorSpec":
        return cls(kind="exact")

    @classmethod
    def chebyshev(cls, Lambda: float, tol: float = DEFAULT_CHEB_TOL) -> "PropagatorSpec":
        """The Chebyshev route on i[-Lambda, Lambda], degrees chosen from tol."""
        return cls(kind="chebyshev", Lambda=float(Lambda), tol=float(tol))

    @property
    def n_poly(self) -> int:
        """The degree at the bound Lambda, the largest any call runs."""
        return choose_npoly(self.Lambda, self.tol)


# A step asks for at most M + 2 distinct |t| (the live node shifts, dt and
# dt/2), each an entry of two real (nx, kb) arrays, so a step's whole set
# stays cached for M up to 126.
_COEFF_TABLES = 128


@lru_cache(maxsize=16)
def _recurrence(cp: _Couplings) -> _Couplings:
    """Read-only couplings of S = (2/max_omega) L on the band columns: with
    Lambda_t = |t| max_omega, the recurrence operator (2 t/Lambda_t) L of
    every e^{Lt} with t > 0, and -S that of every t < 0."""
    c = 2.0 / cp.max_omega
    arrays = _frozen(c * cp.gx, c * cp.gy, c * cp.hx, c * cp.hy)
    return replace(cp, f=c * cp.f, **dict(zip(("gx", "gy", "hx", "hy"), arrays)))


@lru_cache(maxsize=_COEFF_TABLES)
def _exp_coeffs(cp: _Couplings, abs_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only c1(|t|) = sin(omega t)/omega and c2(|t|) = (1 - cos omega t)/omega^2,
    with the omega = 0 limits |t| and t^2/2, on the band columns.  c1 is odd
    in t and c2 even, so one entry serves e^{Lt} and e^{-Lt}."""
    om = cp.omega
    safe = np.where(om > 0.0, om, 1.0)
    c1 = np.where(om > 0.0, np.sin(om * abs_t) / safe, abs_t)
    c2 = np.where(om > 0.0, (1.0 - np.cos(om * abs_t)) / safe**2, 0.5 * abs_t * abs_t)
    return _frozen(c1, c2)


def _closed_form(coeffs, t: float, q: np.ndarray, lu: np.ndarray,
                 llu: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = e^{Lt} q = q + c1(t) L q + c2(t) L^2 q for stacked arrays, from
    the coefficients (c1, c2) of |t|; tmp is an (nx, kb) scratch."""
    c1, c2 = coeffs
    np.multiply(llu, c2, out=out)
    combine = np.subtract if t < 0.0 else np.add  # c1 is odd in t
    for i in range(3):
        out[i] += q[i]
        np.multiply(lu[i], c1, out=tmp)
        combine(out[i], tmp, out=out[i])


def shift(q: np.ndarray, params: PhysicsParams, spec: PropagatorSpec, times,
          out: np.ndarray | None = None) -> np.ndarray:
    """The stack (len(times), 3, nx, kb) of e^{Lt} q, one row per t in times,
    for a (3, nx, kb) band stack q of params.grid, which is not modified;
    written into out if given, else a new array.  Every row is bitwise the
    row a call with its time alone gives.  On the exact route L q and L^2 q
    are computed once per call; on the Chebyshev route one recurrence serves
    every row, and t = 0 is a copy of q."""
    grid = params.grid
    expected = (3, grid.nx, band_width(grid.ny))
    if q.shape != expected:
        raise ValueError(f"shift needs a (3, nx, kb) band stack, {expected} for the "
                         f"{grid.nx} x {grid.ny} grid, got shape {q.shape}")
    cp = couplings(params)
    times = [float(t) for t in times]
    if out is None:
        out = np.empty((len(times),) + q.shape, dtype=np.complex128)
    elif out.shape != (len(times),) + q.shape:
        raise ValueError(f"shift's out has shape {out.shape}, expected "
                         f"{(len(times),) + q.shape}")
    if not times:
        return out
    if spec.kind == "chebyshev":
        _cheb_rows(cp, q, times, spec, out)
        return out
    lu, llu = scratch("shift.lu", q.shape), scratch("shift.llu", q.shape)
    tmp = scratch("shift.tmp", (2,) + q.shape[1:])
    lu.fill(0.0)
    llu.fill(0.0)
    _add_linear(cp, q, lu, tmp)
    _add_linear(cp, lu, llu, tmp)
    for row, t in zip(out, times):
        _closed_form(_exp_coeffs(cp, abs(t)), t, q, lu, llu, row, tmp[0])
    return out


def propagate(t: float, state: State, params: PhysicsParams,
              spec: PropagatorSpec) -> State:
    """Apply e^{Lt} by the route selected in spec to the state's band stack;
    the time stamp advances by t."""
    q = shift(state.q, params, spec, (t,))[0]
    return State(state.grid, q, t=state.t + t)


def exact_exp(t: float, state: State, params: PhysicsParams) -> State:
    """Apply e^{Lt} exactly via the per-mode closed form, as propagate does."""
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
    # coefficients of the Q_k basis come out real.  The DCT,
    # 2 sum_n h_n cos(pi k (2n + 1)/(2 npts)), is the FFT of h's even
    # extension, each term k < npts turned by e^{-i pi k/(2 npts)}.
    npts = max(64, 2 * (n_poly + 1), int(np.ceil(Lambda)) + 64)
    k = np.arange(npts)
    theta = np.pi * (k + 0.5) / npts
    h = np.exp(1j * Lambda * np.cos(theta))
    b = (np.exp(-0.5j * np.pi * k / npts)
         * np.fft.fft(np.concatenate((h, h[::-1])))[:npts]) / npts
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
    """Apply e^{Lt} through the matrix-free Chebyshev recurrence, as propagate
    does.  Requires |t| * max_frequency <= spec.Lambda."""
    if spec.kind != "chebyshev":
        raise ValueError(f"cheb_exp needs a chebyshev spec, got kind {spec.kind!r}")
    return propagate(t, state, params, spec)


@lru_cache(maxsize=_COEFF_TABLES)
def _sized_coeffs(Lambda: float, tol: float) -> np.ndarray:
    """Read-only coefficients a_0 .. a_n of e^{l} on i[-Lambda, Lambda] at the
    degree n = choose_npoly(Lambda, tol); cached per (Lambda, tol)."""
    return cheb_coeffs(Lambda, choose_npoly(Lambda, tol))


def _cheb_rows(cp: _Couplings, q: np.ndarray, times: list[float],
               spec: PropagatorSpec, out: np.ndarray) -> None:
    """out[j] = e^{L t_j} q through the Chebyshev recurrence on
    i[-Lambda_t, Lambda_t], Lambda_t = |t_j| max_omega; t_j = 0 is a copy.

    With S = (2/max_omega) L, Q_0 = I, Q_1 = S/2 and Q_{k+1} = S Q_k + Q_{k-1},
    e^{Lt} = sum_k a_k Q_k(sign(t) S) and Q_k(-S) = (-1)^k Q_k(S), so one
    recurrence in S serves every row: the sign of t negates the odd a_k.
    Rows run in order of falling degree, each accumulating Q_0 .. Q_n of its
    own degree n in the same order as a recurrence of its own.  Q_{k+1}
    overwrites Q_{k-1}'s buffer; the two and one scratch stack are the
    calling thread's, so node threads may shift concurrently."""
    max_omega = cp.max_omega
    rows = []  # (coefficients with the sign of t folded in, output row)
    for row, t in zip(out, times):
        if t == 0.0:
            np.copyto(row, q)
            continue
        lam_needed = abs(t) * max_omega
        if lam_needed > spec.Lambda * (1.0 + 1e-9):
            raise ValueError(
                f"|t| * max_frequency = {lam_needed:.6g} exceeds Lambda = "
                f"{spec.Lambda:.6g}; enlarge Lambda or shorten t")
        a = _sized_coeffs(lam_needed, spec.tol)
        if t < 0.0:
            a = a.copy()
            a[1::2] = -a[1::2]
        rows.append((a, row))
    if not rows:
        return
    rows.sort(key=lambda r: len(r[0]), reverse=True)
    rc = _recurrence(cp)
    q_prev, q_k, tmp = (scratch(name, q.shape) for name in ("cheb.prev", "cheb.k", "cheb.tmp"))
    for a, row in rows:
        np.multiply(q, a[0], out=row)
    np.copyto(q_prev, q)
    q_k.fill(0.0)
    _add_linear(rc, q, q_k, tmp[:2])
    q_k *= 0.5
    for k in range(1, len(rows[0][0])):
        if k > 1:
            _add_linear(rc, q_k, q_prev, tmp[:2])
            q_prev, q_k = q_k, q_prev
        for a, row in rows:
            if len(a) <= k:
                break
            np.multiply(q_k, a[k], out=tmp)
            row += tmp
    # real coefficients and a real recurrence keep Hermitian inputs Hermitian,
    # so no symmetry projection is needed here
