"""Finite-window phase averaging of the nonlinear tendency.

The averaged tendency is the weighted quadrature

    <N>_T (U) = sum_{k=-M..M} w_k e^{-L s_k} N(e^{L s_k} U),   s_k = k T / M

with weights w_k proportional to the one kernel, the compactly supported bump
rho(x) = exp(-1/(1 - x^2)) at x = s_k / T (Peddle, Haut & Wingate, SISC
2019), normalised to sum exactly to one.  The bump vanishes with all
derivatives at the window edges, so the endpoint nodes carry zero weight.

e^{Lt} acts mode by mode and N, like any nonlinear(q, params), maps a
(3, nx, kb) band stack to a band stack on params.grid, so the core,
band_averaged_tendency(q, quadrature, params, spec, ...), runs every node
term on U's band stack q (dynamics.State): one
propagator.shift call on the calling thread computes every forward shift
(from one L U and L^2 U on the exact route, one Chebyshev recurrence on the
other) into a grid.scratch stack of the calling thread; then each node
applies nonlinear and its own backward shift, into its row of a second
scratch stack, and the weighted sum follows.  A failing forward shift is
raised as a RuntimeError naming the window's largest |s|, a failing node
term as one naming the node.  averaged_tendency wraps the core for States,
passing state.q straight through.
Node evaluations may run concurrently; the weighted reduction always runs
in ascending node order on the calling thread, so results are bitwise
identical for any worker count, and to the explicit loop of propagate calls.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PhysicsParams, State, apply_nonlinear
from .grid import scratch
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


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Symmetric averaging nodes s and weights w over the window [-T, T];
    == is identity."""

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
    """band_averaged_tendency of the state's band stack, as a State."""
    return State(state.grid, band_averaged_tendency(
        state.q, quadrature, params, propagator_spec, executor, nonlinear), t=state.t)


def band_averaged_tendency(q: np.ndarray, quadrature: Quadrature,
                           params: PhysicsParams, propagator_spec: PropagatorSpec,
                           executor: Executor | None = None,
                           nonlinear=apply_nonlinear) -> np.ndarray:
    """The averaged tendency's band stack, for the state whose compact
    (3, nx, kb) band stack on params.grid is q.

    Zero-weight nodes (the bump kernel's endpoints) are skipped.  With an
    executor the node terms run concurrently; the reduction runs in ascending
    node order either way, so the result is bitwise independent of the worker
    count.  nonlinear may be swapped out (a zero tendency, say, for the purely
    linear part of a scheme); like apply_nonlinear, it maps a band stack, the
    node's shifted q, and params to a band stack.
    """
    live = [i for i in range(len(quadrature.s)) if quadrature.w[i] != 0.0]
    # every forward shift in one call on the calling thread, into its
    # scratch: one L U and L^2 U, or one Chebyshev recurrence; the node
    # s = 0 needs no shift, and a window of that node alone none at all
    moving = [i for i in live if quadrature.s[i] != 0.0]
    stack = scratch("band_averaged_tendency.forward", (len(moving),) + q.shape)
    try:
        forward = dict(zip(moving, shift(q, params, propagator_spec,
                                         quadrature.s[moving], out=stack)))
    except Exception as exc:
        s_max = float(np.max(np.abs(quadrature.s[moving])))
        raise RuntimeError(f"forward shifts of the averaging nodes "
                           f"(|s| up to {s_max:.6g} s) failed: {exc}") from exc

    # each moving node's backward shift lands in its own row of one more
    # scratch stack, so no node result is allocated and freed per call
    terms = scratch("band_averaged_tendency.terms", (len(live),) + q.shape)

    def term(j: int) -> np.ndarray:
        i = live[j]
        s = float(quadrature.s[i])
        try:
            tend = nonlinear(forward.get(i, q), params)
            return tend if s == 0.0 else shift(tend, params, propagator_spec, (-s,),
                                               out=terms[j : j + 1])[0]
        except Exception as exc:
            k = i - quadrature.M
            raise RuntimeError(
                f"averaging node k = {k} (s = {s:.6g} s) failed: {exc}") from exc

    results = list((map if executor is None else executor.map)(term, range(len(live))))

    acc = quadrature.w[live[0]] * results[0]
    tmp = scratch("band_averaged_tendency.term", q.shape)
    for i, res in zip(live[1:], results[1:]):
        acc += np.multiply(quadrature.w[i], res, out=tmp)
    return acc
