"""Error norms, energy, and mass against hand-computable fields."""

from dataclasses import replace

import numpy as np
import pytest

from phaseswe import diagnostics
from phaseswe.config import default_config
from phaseswe.diagnostics import (ErrorReport, energy_mass, l2_error_normalized,
                                  linf_error_eta, make_error_report)
from phaseswe.dynamics import State, flat_bottom
from phaseswe.grid import to_physical, to_spectral
from phaseswe.oracles import band_limited_state
from phaseswe.testcase import physics_params

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return flat_bottom(grid, F0, G0, H0)


def state_from_physical(grid, u, v, eta, t=0.0):
    return State(grid, to_spectral(grid, np.stack((u, v, eta))), t=t)


def test_rest_state_energy_and_mass(grid32):
    zeros = np.zeros((32, 32))
    rest = state_from_physical(grid32, zeros, zeros, zeros)
    energy, mass = energy_mass(rest, flat(grid32))
    assert energy == 0.0
    assert mass == pytest.approx(H0 * grid32.Lx * grid32.Ly, rel=1e-15)


def test_rest_state_over_mountain(grid64):
    case = default_config()
    params = physics_params(case)
    zeros = np.zeros((64, 64))
    rest = state_from_physical(grid64, zeros, zeros, zeros)
    energy, mass = energy_mass(rest, params)
    assert energy == 0.0
    # the mountain displaces exactly its own volume, given by the mean mode
    volume = float(params.b[0, 0].real) / (64 * 64) * grid64.Lx * grid64.Ly
    want = case.H * grid64.Lx * grid64.Ly - volume
    assert mass == pytest.approx(want, rel=1e-13)


def test_energy_of_uniform_flow(grid32):
    u = np.full((32, 32), 3.0)
    zeros = np.zeros((32, 32))
    state = state_from_physical(grid32, u, zeros, zeros)
    energy, _ = energy_mass(state, flat(grid32))
    want = 0.5 * H0 * 9.0 * grid32.Lx * grid32.Ly
    assert energy == pytest.approx(want, rel=1e-13)


def test_energy_of_single_mode_elevation(grid32):
    x = grid32.x[:, None]
    eta = 4.0 * np.cos(2.0 * np.pi * x / grid32.Lx) * np.ones((1, 32))
    zeros = np.zeros((32, 32))
    state = state_from_physical(grid32, zeros, zeros, eta)
    energy, _ = energy_mass(state, flat(grid32))
    # quadratic term only: the linear g H eta term integrates to zero
    want = 0.5 * G0 * 0.5 * 16.0 * grid32.Lx * grid32.Ly
    assert energy == pytest.approx(want, rel=1e-12)


def test_l2_and_linf_error_scaling(grid32):
    x = grid32.x[:, None]
    base = np.cos(2.0 * np.pi * x / grid32.Lx) * np.ones((1, 32))
    ref = state_from_physical(grid32, base, 2.0 * base, 3.0 * base)
    eps = 1e-3
    test = state_from_physical(grid32, (1 + eps) * base, (1 + eps) * 2.0 * base,
                               (1 + eps) * 3.0 * base)
    l2_eta, l2_vel = l2_error_normalized(test, ref)
    assert l2_eta == pytest.approx(eps, rel=1e-9)
    assert l2_vel == pytest.approx(eps, rel=1e-9)
    assert linf_error_eta(test, ref) == pytest.approx(eps, rel=1e-9)

    same = l2_error_normalized(ref, ref)
    assert same == (0.0, 0.0)


def test_zero_reference_is_an_error(grid32):
    zeros = np.zeros((32, 32))
    x = grid32.x[:, None]
    base = np.cos(2.0 * np.pi * x / grid32.Lx) * np.ones((1, 32))
    ref = state_from_physical(grid32, base, base, zeros)
    test = state_from_physical(grid32, base, base, base)
    with pytest.raises(ValueError, match="zero-norm"):
        l2_error_normalized(test, ref)
    with pytest.raises(ValueError, match="zero"):
        linf_error_eta(test, ref)


def test_error_report_assembly(grid32):
    x = grid32.x[:, None]
    base = np.cos(2.0 * np.pi * x / grid32.Lx) * np.ones((1, 32))
    ref = state_from_physical(grid32, base, base, base)
    report = make_error_report(ref, ref, flat(grid32), ref)
    assert isinstance(report, ErrorReport)
    assert report.l2_eta == 0.0
    assert report.l2_u == 0.0
    assert report.linf_eta == 0.0
    assert report.energy_drift == 0.0
    assert report.mass_drift == 0.0


def test_error_report_transforms_each_state_once(grid32, rng, monkeypatch):
    # one stacked to_physical of each state's whole (3, nx, kb) band stack
    params = physics_params(replace(default_config(), nx=32, ny=32))
    initial, test, ref = (band_limited_state(grid32, rng) for _ in range(3))
    l2, linf = l2_error_normalized(test, ref), linf_error_eta(test, ref)
    e0, m0 = energy_mass(initial, params)
    e1, m1 = energy_mass(test, params)
    calls = []

    def counted(grid, arr, *args, **kwargs):
        calls.append(arr)
        return to_physical(grid, arr, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "to_physical", counted)
    report = make_error_report(test, ref, params, initial)
    assert len(calls) == 3
    assert {id(q) for q in calls} == {id(initial.q), id(test.q), id(ref.q)}
    assert (report.l2_eta, report.l2_u) == l2 and report.linf_eta == linf
    assert report.energy_drift == abs(e1 - e0) / abs(e0)
    assert report.mass_drift == abs(m1 - m0) / abs(m0)
