"""Transformed SSPRK3 time stepping for the phase-averaged system.

The scheme advances U_t = L U + N(U) by applying the three-stage strong
stability preserving Runge-Kutta method to the exponentially transformed
variable V = e^{-Lt} U, which after changing back to U gives, with
A(U) = <e^{-Ls} N(e^{Ls} U)>_s the averaged tendency,

    U1      = e^{L dt} U^n  +  dt e^{L dt} A(U^n)
    U2      = 3/4 e^{L dt/2} U^n  +  1/4 e^{-L dt/2} [U1 + dt A(U1)]
    U^{n+1} = 1/3 e^{L dt} U^n  +  2/3 e^{L dt/2} [U2 + dt A(U2)]

The linear part is treated exactly: with N = 0 a step reduces to e^{L dt} up
to the group-law round-off of the propagator.  The unaveraged reference is
the same scheme with a zero-width window (T = 0, M = 0), the exact
propagator, and a fine step (config.reference_config).

A State is its compact (3, nx, kb) band stack q (dynamics.State); N, like
any nonlinear(q, params), maps band stacks to band stacks and e^{Lt} acts
mode by mode, so a step runs on state.q from start to end and wraps the
result in a State.  Every kernel reads the grid from params, and a step
rejects a state on another grid.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .averaging import (Quadrature, band_averaged_tendency, default_node_count,
                        kernel_weights)
# averaged_tendency stays a module attribute: perfbench/tracing.py patches it here
from .averaging import averaged_tendency  # noqa: F401
from .config import is_multiple
# energy_mass stays a module attribute: perfbench/tracing.py patches it here
from .diagnostics import energy_mass, energy_mass_fields  # noqa: F401
from .dynamics import PhysicsParams, State, apply_nonlinear, max_frequency
from .grid import SpectralGrid, to_physical
from .propagator import PropagatorSpec, shift
# propagate stays a module attribute: perfbench/tracing.py patches it here
from .propagator import propagate  # noqa: F401

__all__ = [
    "StepConfig",
    "make_step_config",
    "step_averaged_ssprk3",
    "Trajectory",
    "run",
]


@dataclass(frozen=True, eq=False)
class StepConfig:
    """Time step, averaging quadrature, and propagator route for one stepper;
    == is identity."""

    dt: float
    quadrature: Quadrature
    propagator_spec: PropagatorSpec

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


def make_step_config(grid: SpectralGrid, params: PhysicsParams, dt: float,
                     T: float = 0.0, M: int | None = None,
                     propagator: str = "exact", tol: float = 1e-10) -> StepConfig:
    """Resolve a stepper configuration for the physics params.

    grid must be params.grid; it is kept only because perfbench/run.py
    passes it.  M = None picks the default node count from the fastest mode.
    For the Chebyshev route, Lambda covers the largest exponential argument
    a step requests, max(dt, T): the stages shift by dt and +-dt/2, and
    every live node by |s_k| < T.  Each exponential is sized to its own
    argument from tol; the spec's n_poly is the degree at Lambda.
    """
    if grid != params.grid:
        raise ValueError(f"grid {grid} does not match the physics' grid {params.grid}")
    if M is None:
        M = default_node_count(T, max_frequency(params))
    quad = kernel_weights(T, M)
    if propagator == "exact":
        spec = PropagatorSpec.exact()
    elif propagator == "chebyshev":
        lam = max_frequency(params) * max(dt, T)
        spec = PropagatorSpec.chebyshev(lam, tol=tol)
    else:
        raise ValueError(f"unknown propagator {propagator!r}")
    return StepConfig(dt=float(dt), quadrature=quad, propagator_spec=spec)


def _require_finite(q: np.ndarray, stage: int) -> None:
    for name, values in zip(("u", "v", "eta"), q):
        if not np.all(np.isfinite(values)):
            raise RuntimeError(f"non-finite values in field {name} after stage {stage}")


def step_averaged_ssprk3(state: State, config: StepConfig, params: PhysicsParams,
                         executor=None, nonlinear=apply_nonlinear) -> State:
    """Advance one step of the transformed SSPRK3 scheme on the state's band
    stack, which must live on params.grid."""
    if state.grid != params.grid:
        raise ValueError(f"state grid {state.grid} does not match the physics' "
                         f"grid {params.grid}")
    dt, quad, spec = config.dt, config.quadrature, config.propagator_spec

    def E(s: float, q: np.ndarray) -> np.ndarray:
        return shift(q, params, spec, (s,))[0]

    def A(q: np.ndarray) -> np.ndarray:
        return band_averaged_tendency(q, quad, params, spec, executor, nonlinear)

    un = state.q
    # e^{L dt} U^n and e^{L dt/2} U^n in one call: one L U^n and L^2 U^n,
    # or one Chebyshev recurrence
    e_dt_un, e_half_un = shift(un, params, spec, (dt, 0.5 * dt))
    u1 = e_dt_un + dt * E(dt, A(un))
    _require_finite(u1, 1)
    u2 = 0.75 * e_half_un + 0.25 * E(-0.5 * dt, u1 + dt * A(u1))
    _require_finite(u2, 2)
    out = (1.0 / 3.0) * e_dt_un + (2.0 / 3.0) * E(0.5 * dt, u2 + dt * A(u2))
    _require_finite(out, 3)
    return State(state.grid, out, t=state.t + dt)


@dataclass
class Trajectory:
    """Snapshots plus per-snapshot diagnostics from a run; fields holds each
    snapshot's physical (u, v, eta) stack, transformed once when recorded."""

    times: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    states: list[State] = field(default_factory=list)
    fields: list[np.ndarray] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    mass: list[float] = field(default_factory=list)
    max_speed: list[float] = field(default_factory=list)

    def record(self, step: int, state: State, params: PhysicsParams) -> None:
        phys = to_physical(state.grid, state.q)
        en, ms = energy_mass_fields(params, *phys)
        speed = np.hypot(phys[0], phys[1])
        self.times.append(state.t)
        self.steps.append(step)
        self.states.append(state)
        self.fields.append(phys)
        self.energy.append(en)
        self.mass.append(ms)
        self.max_speed.append(float(speed.max()))


def run(initial: State, config: StepConfig, params: PhysicsParams, t_end: float,
        snapshot_every: float = 0.0, workers: int = 1) -> Trajectory:
    """Step from the initial state to t_end, recording snapshots and diagnostics.

    t_end must be a nonnegative multiple of dt; snapshot_every must be a
    positive multiple of dt, or 0 to record only the initial and final states,
    which are always recorded.
    """
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    for what, value in (("t_end", t_end), ("snapshot_every", snapshot_every)):
        if not is_multiple(value, config.dt):
            raise ValueError(f"{what} = {value} is not a multiple of dt = {config.dt}")
    n_steps = round(t_end / config.dt)
    stride = round(snapshot_every / config.dt)
    if snapshot_every != 0.0 and stride <= 0:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")

    traj = Trajectory()
    traj.record(0, initial, params)
    if n_steps == 0:
        return traj

    # leaving the pool waits for its threads, so no node of a failed step
    # still runs, or writes into this thread's scratch, once run returns
    with (ThreadPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as executor:
        state = initial
        for i in range(1, n_steps + 1):
            try:
                state = step_averaged_ssprk3(state, config, params, executor)
            except Exception as exc:
                raise RuntimeError(f"step {i} (t = {state.t:.6g} s) failed: {exc}") from exc
            if i == n_steps or (stride > 0 and i % stride == 0):
                traj.record(i, state, params)
    return traj
