"""Finite-window phase averaging of the nonlinear tendency.

The averaged tendency is the weighted quadrature

    <N>_T (U) = sum_{|k|<M} w_k e^{-L s_k} N(e^{L s_k} U),   s_k = k T / M

with weights w_k proportional to the one kernel, the compactly supported bump
rho(x) = exp(-1/(1 - x^2)) at x = s_k / T (Peddle, Haut & Wingate, SISC
2019), normalised to sum exactly to one.  The bump vanishes with all
derivatives at the window edges, so Quadrature(T, M) keeps only the 2M - 1
nodes inside them; it builds both from (T, M), so they hold by construction.

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

from .dynamics import PhysicsParams, State, apply_nonlinear, require_same_grid
from .grid import scratch
from .propagator import PropagatorSpec, shift
# propagate stays a module attribute: perfbench/tracing.py patches it here
from .propagator import propagate  # noqa: F401

__all__ = [
    "Quadrature",
    "default_node_count",
    "averaged_tendency",
    "band_averaged_tendency",
]


@dataclass(frozen=True, eq=False)
class Quadrature:
    """The 2M - 1 bump-kernel nodes s_k = k T / M, |k| < M, that carry
    weight, and their weights w, built read-only from (T, M); == is
    identity.  T = 0 requires M = 0 and yields the single node s = 0 with
    weight 1 (the averaged tendency then reduces to the plain
    nonlinearity); so do T > 0 with M = 0 and M = 1."""

    T: float
    M: int
    s: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        T, M = self.T, self.M
        if T < 0:
            raise ValueError(f"window T must be nonnegative, got {T}")
        if M < 0:
            raise ValueError(f"node count M must be nonnegative, got {M}")
        if T == 0.0 and M != 0:
            raise ValueError("T = 0 admits only M = 0")
        if M == 0:
            s, w = np.zeros(1), np.ones(1)
        else:
            k = np.arange(-M, M + 1)
            s = k * (T / M)
            x = s / T
            rho = np.zeros_like(x)
            inside = np.abs(x) < 1.0  # the bump vanishes on and beyond the window edges
            rho[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
            w = rho / float(rho.sum())
            # renormalise the round-off so the sum is exactly 1.0
            w = w / float(w.sum())
            # the edges weigh 0; dropped after both sums, which group by position
            s, w = s[w != 0.0], w[w != 0.0]
        for arr in (s, w):
            arr.setflags(write=False)
        for name, value in zip(("T", "M", "s", "w"), (float(T), int(M), s, w)):
            object.__setattr__(self, name, value)


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
    require_same_grid(state, params)
    return State(state.grid, band_averaged_tendency(
        state.q, quadrature, params, propagator_spec, executor, nonlinear), t=state.t)


def band_averaged_tendency(q: np.ndarray, quadrature: Quadrature,
                           params: PhysicsParams, propagator_spec: PropagatorSpec,
                           executor: Executor | None = None,
                           nonlinear=apply_nonlinear) -> np.ndarray:
    """The averaged tendency's band stack, for the state whose compact
    (3, nx, kb) band stack on params.grid is q.

    With an executor the node terms run concurrently; the reduction runs in
    ascending node order either way, so the result is bitwise independent of
    the worker count.  nonlinear may be swapped out (a zero tendency, say,
    for the purely linear part of a scheme); like apply_nonlinear, it maps a
    band stack, the node's shifted q, and params to a band stack.
    """
    s_nodes, n = quadrature.s, len(quadrature.s)
    # every forward shift in one call on the calling thread, into its
    # scratch: one L U and L^2 U, or one Chebyshev recurrence; the node
    # s = 0 needs no shift, and a window of that node alone none at all
    moving = [i for i in range(n) if s_nodes[i] != 0.0]
    stack = scratch("band_averaged_tendency.forward", (len(moving),) + q.shape)
    try:
        forward = dict(zip(moving, shift(q, params, propagator_spec,
                                         s_nodes[moving], out=stack)))
    except Exception as exc:
        s_max = float(np.max(np.abs(s_nodes[moving])))
        raise RuntimeError(f"forward shifts of the averaging nodes "
                           f"(|s| up to {s_max:.6g} s) failed: {exc}") from exc

    # each moving node's backward shift lands in its own row of one more
    # scratch stack, so no node result is allocated and freed per call
    terms = scratch("band_averaged_tendency.terms", (n,) + q.shape)

    def term(i: int) -> np.ndarray:
        s = float(s_nodes[i])
        try:
            tend = nonlinear(forward.get(i, q), params)
            return tend if s == 0.0 else shift(tend, params, propagator_spec, (-s,),
                                               out=terms[i : i + 1])[0]
        except Exception as exc:
            raise RuntimeError(f"averaging node k = {i - n // 2} (s = {s:.6g} s) "
                               f"failed: {exc}") from exc

    results = list((map if executor is None else executor.map)(term, range(n)))

    acc = quadrature.w[0] * results[0]
    tmp = scratch("band_averaged_tendency.term", q.shape)
    for w, res in zip(quadrature.w[1:], results[1:]):
        acc += np.multiply(w, res, out=tmp)
    return acc
