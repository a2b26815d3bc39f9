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
rejects a state on another grid.  run's schedule rules are check_schedule's.

run's workers is an upper bound on the threads that run a step's averaging
nodes, not a count: node_threads caps it by the cores this process may run
on and by the window's nodes, and runs the nodes serially on the
calling thread below MIN_THREADED_POINTS grid points, where threads cost
more than they save.  Every output is bitwise the same for any count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .averaging import Quadrature, band_averaged_tendency, default_node_count
# averaged_tendency stays a module attribute: perfbench/tracing.py patches it here
from .averaging import averaged_tendency  # noqa: F401
# energy_mass stays a module attribute: perfbench/tracing.py patches it here
from .diagnostics import energy_mass, energy_mass_fields  # noqa: F401
from .dynamics import (PhysicsParams, State, apply_nonlinear, max_frequency,
                       require_same_grid)
from .grid import SpectralGrid, to_physical
from .propagator import DEFAULT_CHEB_TOL, PropagatorSpec, shift
# propagate stays a module attribute: perfbench/tracing.py patches it here
from .propagator import propagate  # noqa: F401

__all__ = [
    "StepConfig",
    "make_step_config",
    "step_averaged_ssprk3",
    "Trajectory",
    "is_multiple",
    "check_schedule",
    "MIN_THREADED_POINTS",
    "available_cores",
    "node_threads",
    "run",
]

# Node threads pay only from this many grid points.  Below it, the GIL
# handoffs of a step's many small elementwise ufuncs cost more than the
# overlapped FFTs save: in BENCH_pr24_node_threads.json (2 cores, dt = 1 h,
# T = 1 h and 8 h) a step on 2 node threads takes 1.39-1.60x the serial
# time at 32^2 and 48^2 and 1.12x at 64^2, but 0.83-0.88x at 96^2 and
# 0.70x at 128^2; on 8 threads it is slower than on 2 at every size.
MIN_THREADED_POINTS = 96 * 96


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
                     T: float = 0.0, M: int | None = None, propagator: str = "exact",
                     tol: float = DEFAULT_CHEB_TOL) -> StepConfig:
    """Resolve a stepper configuration for the physics params.

    grid must be params.grid; it is kept only because perfbench/run.py
    passes it.  M = None picks the default node count from the fastest mode.
    For the Chebyshev route, Lambda covers the largest exponential argument
    a step requests, max(dt, T): the stages shift by dt and +-dt/2, and
    every node by |s_k| < T.  Each exponential is sized to its own
    argument from tol; the spec's n_poly is the degree at Lambda.
    """
    if grid != params.grid:
        raise ValueError(f"grid {grid} does not match the physics' grid {params.grid}")
    if M is None:
        M = default_node_count(T, max_frequency(params))
    quad = Quadrature(T, M)
    if propagator == "chebyshev":
        spec = PropagatorSpec.chebyshev(max_frequency(params) * max(dt, T), tol=tol)
    else:
        spec = PropagatorSpec(propagator)  # rejects an unknown route
    return StepConfig(dt=float(dt), quadrature=quad, propagator_spec=spec)


def _require_finite(q: np.ndarray, stage: int) -> None:
    for name, values in zip(("u", "v", "eta"), q):
        if not np.all(np.isfinite(values)):
            raise RuntimeError(f"non-finite values in field {name} after stage {stage}")


def step_averaged_ssprk3(state: State, config: StepConfig, params: PhysicsParams,
                         executor=None, nonlinear=apply_nonlinear) -> State:
    """Advance one step of the transformed SSPRK3 scheme on the state's band
    stack, which must live on params.grid."""
    require_same_grid(state, params)
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
    snapshot's physical (u, v, eta) stack, transformed once when recorded.
    node_threads depends on the machine and is written to no output file."""

    times: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    states: list[State] = field(default_factory=list)
    fields: list[np.ndarray] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    mass: list[float] = field(default_factory=list)
    max_speed: list[float] = field(default_factory=list)
    node_threads: int = 1  # threads that ran each step's averaging nodes

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


def is_multiple(value: float, dt: float) -> bool:
    """Whether value is a whole number of steps dt, to 1e-9 relative."""
    n = value / dt
    return abs(n - round(n)) <= 1e-9 * max(1.0, abs(n))


def check_schedule(dt: float, t_end: float, snapshot_every: float, workers: int) -> None:
    """run's schedule rules, each a ValueError that names its setting."""
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    if not is_multiple(t_end, dt):
        raise ValueError(f"t_end = {t_end} must be a multiple of dt = {dt}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be nonnegative, got {snapshot_every}")
    if not is_multiple(snapshot_every, dt) or 0 < snapshot_every < dt / 2:
        raise ValueError(f"snapshot_every = {snapshot_every} must be 0 or a multiple of dt")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def available_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def node_threads(grid: SpectralGrid, quadrature: Quadrature, workers: int,
                 cores: int | None = None) -> int:
    """Threads that run a step's averaging nodes: min(workers, cores, the
    window's nodes), and 1 on a grid below MIN_THREADED_POINTS points.
    cores defaults to available_cores()."""
    if grid.nx * grid.ny < MIN_THREADED_POINTS:
        return 1
    if cores is None:
        cores = available_cores()
    return min(workers, cores, len(quadrature.w))


def run(initial: State, config: StepConfig, params: PhysicsParams, t_end: float,
        snapshot_every: float = 0.0, workers: int = 1) -> Trajectory:
    """Step from the initial state to t_end, recording diagnostics and the states
    at the start, at the end and every snapshot_every seconds (0: none between).
    Each step's averaging nodes run on node_threads(params.grid, quadrature,
    workers) threads, recorded as the trajectory's node_threads."""
    check_schedule(config.dt, t_end, snapshot_every, workers)
    n_steps = round(t_end / config.dt)
    stride = round(snapshot_every / config.dt)
    threads = node_threads(params.grid, config.quadrature, workers)

    traj = Trajectory(node_threads=threads)
    traj.record(0, initial, params)
    if n_steps == 0:
        return traj

    # leaving the pool waits for its threads, so no node of a failed step
    # still runs, or writes into this thread's scratch, once run returns
    with (ThreadPoolExecutor(max_workers=threads) if threads > 1
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
