"""Finite-window phase averaging of the nonlinear tendency.

The averaged tendency is the weighted quadrature

    <N>_T (U) = sum_{k=-M..M} w_k e^{-L s_k} N(e^{L s_k} U),   s_k = k T / M

with weights w_k proportional to the one kernel, the compactly supported bump
rho(x) = exp(-1/(1 - x^2)) at x = s_k / T (Peddle, Haut & Wingate, SISC
2019), normalised to sum exactly to one.  The bump vanishes with all
derivatives at the window edges, so the endpoint nodes carry zero weight.

e^{Lt} acts mode by mode and N reads and returns only the 2/3 band, so every
node term lives on the band.  The core, band_averaged_tendency, runs on U's
compact (3, nx, kb) band stack (grid.take_band): one propagator.shift serves
every forward shift (on the exact route: L U and L^2 U once per call), and
each node's backward shift and the weighted sum stay on the band.  Each node
hands the nonlinearity the full state rebuilt from its shifted band and
keeps the band of the result: a custom nonlinearity sees and returns the 2/3
band.  averaged_tendency wraps the core for States.  Node evaluations may
run concurrently; the weighted reduction always runs in ascending node
order on the calling thread, so results are bitwise identical for any
worker count, and to the explicit loop of full-array propagate calls.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PhysicsParams, State, apply_nonlinear
from .grid import SpectralGrid, from_band, take_band
from .propagator import PropagatorSpec, shift
# propagate stays a module attribute: perfbench/tracing.py patches it here
from .propagator import propagate  # noqa: F401

__all__ = [
    "Quadrature",
    "kernel_weights",
    "default_node_count",
    "averaged_tendency",
    "band_averaged_tendency",
]


@dataclass(frozen=True)
class Quadrature:
    """Symmetric averaging nodes s and weights w over the window [-T, T]."""

    T: float
    M: int
    s: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = 2 * self.M + 1
        if self.s.shape != (n,) or self.w.shape != (n,):
            raise ValueError(f"need {n} nodes and weights for M = {self.M}")
        if abs(float(self.w.sum()) - 1.0) > 1e-14:
            raise ValueError("quadrature weights must sum to 1")
        if not np.allclose(self.s, -self.s[::-1], rtol=0.0, atol=1e-12 * (self.T + 1.0)):
            raise ValueError("quadrature nodes must be symmetric about 0")
        if not np.allclose(self.w, self.w[::-1], rtol=0.0, atol=1e-14):
            raise ValueError("quadrature weights must be symmetric")


def kernel_weights(T: float, M: int) -> Quadrature:
    """Build the bump-kernel quadrature for window half-width T with 2M + 1 nodes.

    T = 0 requires M = 0 and yields the single node s = 0 with weight 1
    (the averaged tendency then reduces to the plain nonlinearity).  T > 0
    with M = 0 is the same degenerate single-node average.
    """
    if T < 0:
        raise ValueError(f"window T must be nonnegative, got {T}")
    if M < 0:
        raise ValueError(f"node count M must be nonnegative, got {M}")
    if T == 0.0 and M != 0:
        raise ValueError("T = 0 admits only M = 0")
    if M == 0:
        return Quadrature(T=float(T), M=0, s=np.zeros(1), w=np.ones(1))
    k = np.arange(-M, M + 1)
    s = k * (T / M)
    x = s / T
    rho = np.zeros_like(x)
    inside = np.abs(x) < 1.0  # the bump vanishes on and beyond the window edges
    rho[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    w = rho / float(rho.sum())
    # renormalise the round-off so the sum is exactly 1.0
    w = w / float(w.sum())
    for arr in (s, w):
        arr.setflags(write=False)
    return Quadrature(T=float(T), M=int(M), s=s, w=w)


def default_node_count(T: float, lambda_max: float) -> int:
    """Node parameter M resolving the fastest phase at about pi per node spacing."""
    if T <= 0.0:
        return 0
    return max(4, int(np.ceil(T * lambda_max / np.pi)))


def averaged_tendency(state: State, quadrature: Quadrature, params: PhysicsParams,
                      propagator_spec: PropagatorSpec,
                      executor: Executor | None = None,
                      nonlinear=apply_nonlinear) -> State:
    """band_averaged_tendency of the state's 2/3 band, as a State that is zero
    outside the band and exactly Hermitian-symmetric."""
    grid = state.grid
    q = take_band(grid, (state.u, state.v, state.eta))
    full = from_band(grid, band_averaged_tendency(
        q, grid, state.t, quadrature, params, propagator_spec, executor, nonlinear))
    return State(grid=grid, u=full[0], v=full[1], eta=full[2], t=state.t)


def band_averaged_tendency(q: np.ndarray, grid: SpectralGrid, t: float,
                           quadrature: Quadrature, params: PhysicsParams,
                           propagator_spec: PropagatorSpec,
                           executor: Executor | None = None,
                           nonlinear=apply_nonlinear) -> np.ndarray:
    """The averaged tendency's band stack, for the state at time t whose
    compact (3, nx, kb) band stack is q.

    Zero-weight nodes (the bump kernel's endpoints) are skipped.  With an
    executor the node terms run concurrently; the reduction runs in ascending
    node order either way, so the result is bitwise independent of the worker
    count.  nonlinear may be swapped out (a zero tendency, say, for the purely
    linear part of a scheme); it is handed States that are zero outside the
    2/3 band, and only the band of what it returns is kept.
    """
    live = [i for i in range(len(quadrature.s)) if quadrature.w[i] != 0.0]
    # on the calling thread, so pool threads share one L U and L^2 U; a
    # quadrature whose only live node is s = 0 needs no shift at all
    forward = (shift(q, grid, params, propagator_spec)
               if any(quadrature.s[i] != 0.0 for i in live) else None)

    def term(i: int) -> np.ndarray:
        s = float(quadrature.s[i])
        try:
            moved = from_band(grid, q if s == 0.0 else forward(s))
            tend = nonlinear(State(grid=grid, u=moved[0], v=moved[1], eta=moved[2],
                                   t=t + s), params)
            tend = take_band(grid, (tend.u, tend.v, tend.eta))
            if s == 0.0:
                return tend
            return shift(tend, grid, params, propagator_spec)(-s)
        except Exception as exc:
            k = i - quadrature.M
            raise RuntimeError(
                f"averaging node k = {k} (s = {s:.6g} s) failed: {exc}") from exc

    results = list((map if executor is None else executor.map)(term, live))

    acc = quadrature.w[live[0]] * results[0]
    for i, res in zip(live[1:], results[1:]):
        acc += quadrature.w[i] * res
    return acc
