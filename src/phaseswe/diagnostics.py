"""Run diagnostics: normalized errors against a reference, energy and mass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhysicsParams, State
from .grid import to_physical

__all__ = [
    "physical_fields",
    "l2_error_normalized",
    "linf_error_eta",
    "energy_mass",
    "ErrorReport",
    "make_error_report",
]


def physical_fields(state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical (u, v, eta); u and v share one symmetry-check scale, so a
    component that is pure cancellation residue (v of a zonal jet) passes."""
    g = state.grid
    vel_scale = max(float(np.max(np.abs(state.u))), float(np.max(np.abs(state.v))))
    return (to_physical(g, state.u, vel_scale), to_physical(g, state.v, vel_scale),
            to_physical(g, state.eta))


def l2_error_normalized(test: State, ref: State) -> tuple[float, float]:
    """Physical-space relative L2 errors (eta, velocity) of test against ref.

    The velocity error treats (u, v) jointly.  A zero-norm reference field is
    an error rather than a silent division.
    """
    test._check_compatible(ref)
    tu, tv, teta = physical_fields(test)
    ru, rv, reta = physical_fields(ref)
    eta_ref = float(np.sqrt(np.sum(reta**2)))
    vel_ref = float(np.sqrt(np.sum(ru**2 + rv**2)))
    if eta_ref == 0.0 or vel_ref == 0.0:
        raise ValueError("reference state has a zero-norm field; "
                         "normalized error is undefined")
    l2_eta = float(np.sqrt(np.sum((teta - reta) ** 2))) / eta_ref
    l2_vel = float(np.sqrt(np.sum((tu - ru) ** 2 + (tv - rv) ** 2))) / vel_ref
    return l2_eta, l2_vel


def linf_error_eta(test: State, ref: State) -> float:
    """Max-norm eta error normalized by the max of the reference eta."""
    test._check_compatible(ref)
    teta = physical_fields(test)[2]
    reta = physical_fields(ref)[2]
    ref_amp = float(np.max(np.abs(reta)))
    if ref_amp == 0.0:
        raise ValueError("reference eta is identically zero")
    return float(np.max(np.abs(teta - reta))) / ref_amp


def energy_mass(state: State, params: PhysicsParams) -> tuple[float, float]:
    """Total energy and mass.

    mass   = integral of (H + eta - b)
    energy = integral of (1/2) (H + eta - b) (u^2 + v^2) + (1/2) g eta (eta + 2 H)

    The potential term is the column potential energy referenced to the rest
    ocean (surface at eta = 0), with the time-constant topography offset
    dropped.  Under this convention any rest state has energy 0 and the
    expression is an exact invariant of the continuous dynamics, so its drift
    measures integration error rather than a moving reference level.
    """
    g = state.grid
    u, v, eta = physical_fields(state)
    b = to_physical(g, np.asarray(params.b, dtype=np.complex128))
    depth = params.H + eta - b
    area = g.cell_area
    mass = float(np.sum(depth) * area)
    energy = float(np.sum(0.5 * depth * (u**2 + v**2)
                          + 0.5 * params.g * eta * (eta + 2.0 * params.H)) * area)
    return energy, mass


@dataclass(frozen=True)
class ErrorReport:
    """Final-time errors against a reference plus whole-run conservation drift."""

    l2_eta: float
    l2_u: float
    linf_eta: float
    energy_drift: float
    mass_drift: float


def make_error_report(test: State, ref: State, params: PhysicsParams,
                      initial: State) -> ErrorReport:
    """Assemble an ErrorReport; drifts are relative to the initial state."""
    l2_eta, l2_u = l2_error_normalized(test, ref)
    e0, m0 = energy_mass(initial, params)
    e1, m1 = energy_mass(test, params)
    return ErrorReport(
        l2_eta=l2_eta,
        l2_u=l2_u,
        linf_eta=linf_error_eta(test, ref),
        energy_drift=abs(e1 - e0) / max(abs(e0), 1e-300),
        mass_drift=abs(m1 - m0) / max(abs(m0), 1e-300),
    )
