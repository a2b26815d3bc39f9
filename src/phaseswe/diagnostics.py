"""Run diagnostics: normalized errors against a reference, energy and mass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhysicsParams, State
from .grid import to_physical

__all__ = [
    "l2_error_normalized",
    "linf_error_eta",
    "energy_mass",
    "energy_mass_fields",
    "ErrorReport",
    "make_error_report",
]


def l2_error_normalized(test: State, ref: State) -> tuple[float, float]:
    """Physical-space relative L2 errors (eta, velocity) of test against ref.

    The velocity error treats (u, v) jointly.  A zero-norm reference field is
    an error rather than a silent division.
    """
    test._check_compatible(ref)
    return _l2_errors(to_physical(test.grid, test.q), to_physical(ref.grid, ref.q))


def _l2_errors(test_fields, ref_fields) -> tuple[float, float]:
    tu, tv, teta = test_fields
    ru, rv, reta = ref_fields
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
    return _linf_error(to_physical(test.grid, test.q[2]),
                       to_physical(ref.grid, ref.q[2]))


def _linf_error(teta: np.ndarray, reta: np.ndarray) -> float:
    ref_amp = float(np.max(np.abs(reta)))
    if ref_amp == 0.0:
        raise ValueError("reference eta is identically zero")
    return float(np.max(np.abs(teta - reta))) / ref_amp


def energy_mass(state: State, params: PhysicsParams) -> tuple[float, float]:
    """Total energy and mass of a spectral state; see energy_mass_fields."""
    return energy_mass_fields(params, *to_physical(state.grid, state.q))


def energy_mass_fields(params: PhysicsParams, u: np.ndarray, v: np.ndarray,
                       eta: np.ndarray) -> tuple[float, float]:
    """Total energy and mass from the physical (u, v, eta) of a state on
    params.grid.

    mass   = integral of (H + eta - b)
    energy = integral of (1/2) (H + eta - b) (u^2 + v^2) + (1/2) g eta (eta + 2 H)

    The potential term is the column potential energy referenced to the rest
    ocean (surface at eta = 0), with the time-constant topography offset
    dropped.  Under this convention any rest state has energy 0 and the
    expression is an exact invariant of the continuous dynamics, so its drift
    measures integration error rather than a moving reference level.
    """
    depth = params.H + eta - params.b_phys
    area = params.grid.cell_area
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
    """Assemble an ErrorReport; drifts are relative to the initial state.

    Each state is transformed once; the values equal those of
    l2_error_normalized, linf_error_eta and energy_mass."""
    test._check_compatible(ref)
    fields, ref_fields = to_physical(test.grid, test.q), to_physical(ref.grid, ref.q)
    l2_eta, l2_u = _l2_errors(fields, ref_fields)
    e0, m0 = energy_mass_fields(params, *to_physical(initial.grid, initial.q))
    e1, m1 = energy_mass_fields(params, *fields)
    return ErrorReport(
        l2_eta=l2_eta,
        l2_u=l2_u,
        linf_eta=_linf_error(fields[2], ref_fields[2]),
        energy_drift=abs(e1 - e0) / max(abs(e0), 1e-300),
        mass_drift=abs(m1 - m0) / max(abs(m0), 1e-300),
    )
