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

N reads and returns only the 2/3 band and e^{Lt} acts mode by mode, so a
step runs its stages, averaged tendencies and exponentials on compact
(3, nx, kb) band stacks (grid.take_band) and rebuilds the full state once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .averaging import (Quadrature, band_averaged_tendency, default_node_count,
                        kernel_weights)
# averaged_tendency stays a module attribute: perfbench/tracing.py patches it here
from .averaging import averaged_tendency  # noqa: F401
from .config import is_multiple
# energy_mass stays a module attribute: perfbench/tracing.py patches it here
from .diagnostics import energy_mass, energy_mass_fields, physical_fields  # noqa: F401
from .dynamics import PhysicsParams, State, apply_nonlinear, max_frequency
# to_physical stays a module attribute: perfbench/tracing.py patches it here
from .grid import SpectralGrid, from_band, take_band, to_physical  # noqa: F401
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


@dataclass(frozen=True)
class StepConfig:
    """Time step, averaging quadrature, and propagator route for one stepper."""

    dt: float
    quadrature: Quadrature
    propagator_spec: PropagatorSpec

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


def make_step_config(grid: SpectralGrid, params: PhysicsParams, dt: float,
                     T: float = 0.0, M: int | None = None,
                     propagator: str = "exact", tol: float = 1e-10) -> StepConfig:
    """Resolve a stepper configuration for the given grid and physics.

    M = None picks the default node count from the fastest mode.  For the
    Chebyshev route, Lambda covers the largest exponential argument the
    stages can request, max(dt, T + dt), with the degree chosen from tol.
    """
    if M is None:
        M = default_node_count(T, max_frequency(grid, params))
    quad = kernel_weights(T, M)
    if propagator == "exact":
        spec = PropagatorSpec.exact()
    elif propagator == "chebyshev":
        lam = max_frequency(grid, params) * max(dt, T + dt)
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
    """Advance one step of the transformed SSPRK3 scheme.  Only the 2/3 band
    of the state is read; the result is exactly Hermitian and zero outside it."""
    grid, t, dt = state.grid, state.t, config.dt
    quad, spec = config.quadrature, config.propagator_spec

    def E(s: float, q: np.ndarray) -> np.ndarray:
        return shift(q, grid, params, spec)(s)

    def A(q: np.ndarray, t_q: float) -> np.ndarray:
        return band_averaged_tendency(q, grid, t_q, quad, params, spec, executor,
                                      nonlinear)

    un = take_band(grid, (state.u, state.v, state.eta))
    # e^{L dt} U^n and e^{L dt/2} U^n share one L U^n and L^2 U^n
    shift_un = shift(un, grid, params, spec)
    e_dt_un = shift_un(dt)
    u1 = e_dt_un + dt * E(dt, A(un, t))
    _require_finite(u1, 1)
    u2 = 0.75 * shift_un(0.5 * dt) + 0.25 * E(-0.5 * dt, u1 + dt * A(u1, t + dt))
    _require_finite(u2, 2)
    out = (1.0 / 3.0) * e_dt_un + (2.0 / 3.0) * E(0.5 * dt, u2 + dt * A(u2, t + dt / 2))
    _require_finite(out, 3)
    full = from_band(grid, out)
    return State(grid=grid, u=full[0], v=full[1], eta=full[2], t=t + dt)


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
        phys = physical_fields(state)
        en, ms = energy_mass_fields(state.grid, params, *phys)
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

    The initial state must be zero outside the 2/3 band.  t_end must be a
    nonnegative multiple of dt; snapshot_every must be a positive multiple of
    dt, or 0 to record only the initial and final states.  The initial and
    final states are always recorded.
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
    outside = ~initial.grid.dealias_mask
    if any(np.any(c[outside]) for c in (initial.u, initial.v, initial.eta)):
        raise ValueError("initial state has modes outside the 2/3 band, which a step "
                         "would drop; dealias it first")

    traj = Trajectory()
    traj.record(0, initial, params)
    if n_steps == 0:
        return traj

    executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        state = initial
        for i in range(1, n_steps + 1):
            try:
                state = step_averaged_ssprk3(state, config, params, executor)
            except Exception as exc:
                raise RuntimeError(f"step {i} (t = {state.t:.6g} s) failed: {exc}") from exc
            if i == n_steps or (stride > 0 and i % stride == 0):
                traj.record(i, state, params)
    finally:
        if executor is not None:
            executor.shutdown(wait=False)
    return traj
