"""Exponential propagators against dense-matrix and Bessel-function oracles."""

import numpy as np
import pytest

from phaseswe.dynamics import PhysicsParams, energy_norm, max_frequency
from phaseswe.oracles import band_limited_state, bessel_cheb_coeffs, dense_exp
from phaseswe.propagator import (ChebCoeffs, PropagatorSpec, cheb_coeffs,
                                 cheb_exp, choose_npoly, exact_exp, propagate)
from phaseswe.validation import check_cheb_vs_exact, check_exact_exp_group

F0, G0, H0 = 1.0e-4, 9.8, 5960.0


def flat(grid):
    return PhysicsParams(f=F0, g=G0, H=H0,
                         b=np.zeros((grid.nx, grid.ny), dtype=complex))


def test_exact_exp_matches_dense_matrix_exponential(grid8, rng):
    params = flat(grid8)
    state = band_limited_state(grid8, rng)
    for t in (500.0, -250.0):
        got = exact_exp(t, state, params)
        want = dense_exp(t, state, params)
        scale = max(np.max(np.abs(c)) for c in (want.u, want.v, want.eta))
        for a, b in ((got.u, want.u), (got.v, want.v), (got.eta, want.eta)):
            assert np.max(np.abs(a - b)) <= 1e-12 * scale
        assert got.t == state.t + t


def test_exact_exp_identity_group_inverse_isometry(rng):
    result = check_exact_exp_group(rng)
    assert result.ok, result.detail


def test_mean_mode_rotates_at_inertial_frequency(grid32):
    params = flat(grid32)
    n2 = grid32.nx * grid32.ny
    u = np.zeros((32, 32), dtype=complex)
    u[0, 0] = n2  # physical u = 1 everywhere
    from phaseswe.dynamics import State
    state = State(grid=grid32, u=u, v=np.zeros_like(u), eta=np.zeros_like(u))
    quarter = np.pi / (2.0 * F0)
    out = exact_exp(quarter, state, params)
    # u + i v rotates clockwise at f: after a quarter period (u, v) -> (0, -u)
    assert abs(out.u[0, 0]) <= 1e-12 * n2
    assert out.v[0, 0] == pytest.approx(-n2, rel=1e-12)
    assert np.max(np.abs(out.eta)) == 0.0


def test_cheb_coeffs_match_bessel_identity():
    lam = 5.0
    coeffs = cheb_coeffs(lam, 30)
    assert np.max(np.abs(coeffs.a - bessel_cheb_coeffs(lam, 30))) <= 1e-12


def test_cheb_coeffs_are_real_frozen_and_cached():
    coeffs = cheb_coeffs(6.2, 24)
    assert coeffs.a.dtype == np.float64
    assert coeffs.a.shape == (25,)
    assert not coeffs.a.flags.writeable
    assert cheb_coeffs(6.2, 24) is coeffs  # cached
    with pytest.raises(ValueError, match="Lambda"):
        cheb_coeffs(-1.0, 5)
    with pytest.raises(ValueError, match="n_poly"):
        cheb_coeffs(5.0, 0)
    with pytest.raises(ValueError, match="length"):
        ChebCoeffs(Lambda=1.0, n_poly=3, a=np.zeros(3))


def test_choose_npoly_degree_bound_and_monotonicity():
    assert choose_npoly(0.0) == 1
    assert choose_npoly(10.0, 1e-10) == 28
    for lam in (1.0, 6.2, 20.0, 100.0):
        n = choose_npoly(lam, 1e-10)
        assert 1 <= n <= lam + 2.0 * lam ** (1.0 / 3.0) + 40.0
    assert choose_npoly(10.0, 1e-6) <= choose_npoly(10.0, 1e-10) \
        <= choose_npoly(10.0, 1e-12)
    with pytest.raises(ValueError, match="tol"):
        choose_npoly(5.0, 0.0)


def test_cheb_matches_exact_on_default_grid(rng):
    result = check_cheb_vs_exact(rng)
    assert result.ok, result.detail


def test_cheb_respects_requested_tolerance(grid32, rng):
    params = flat(grid32)
    lam = max_frequency(grid32, params) * 3600.0
    state = band_limited_state(grid32, rng)
    norm = energy_norm(state, params)
    want = exact_exp(3600.0, state, params)
    loose = cheb_exp(3600.0, state, params, PropagatorSpec.chebyshev(lam, tol=1e-6))
    assert energy_norm(loose - want, params) <= 1e-4 * norm


def test_cheb_rejects_time_outside_window(grid32, rng):
    params = flat(grid32)
    lam_max = max_frequency(grid32, params)
    spec = PropagatorSpec.chebyshev(lam_max * 100.0)
    state = band_limited_state(grid32, rng)
    with pytest.raises(ValueError, match="exceeds Lambda"):
        cheb_exp(200.0, state, params, spec)
    cheb_exp(100.0, state, params, spec)  # the endpoint itself is allowed
    cheb_exp(-100.0, state, params, spec)


def test_cheb_zero_time_is_identity(grid32, rng):
    params = flat(grid32)
    spec = PropagatorSpec.chebyshev(1.0)
    state = band_limited_state(grid32, rng)
    assert cheb_exp(0.0, state, params, spec) is state


def test_propagate_dispatches_on_kind(grid32, rng):
    params = flat(grid32)
    state = band_limited_state(grid32, rng)
    exact = propagate(600.0, state, params, PropagatorSpec.exact())
    assert np.array_equal(exact.u, exact_exp(600.0, state, params).u)
    lam = max_frequency(grid32, params) * 600.0
    spec = PropagatorSpec.chebyshev(lam)
    cheb = propagate(600.0, state, params, spec)
    assert np.array_equal(cheb.eta, cheb_exp(600.0, state, params, spec).eta)
    with pytest.raises(ValueError, match="chebyshev spec"):
        cheb_exp(1.0, state, params, PropagatorSpec.exact())


def test_propagator_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        PropagatorSpec(kind="taylor")
    with pytest.raises(ValueError, match="Lambda"):
        PropagatorSpec(kind="chebyshev", Lambda=-2.0)
    with pytest.raises(ValueError, match="n_poly"):
        PropagatorSpec(kind="chebyshev", Lambda=1.0, n_poly=0)
    with pytest.raises(ValueError, match="tol"):
        PropagatorSpec(kind="chebyshev", Lambda=1.0, tol=-1e-9)
    spec = PropagatorSpec.chebyshev(6.2, tol=1e-10)
    assert spec.n_poly == choose_npoly(6.2, 1e-10)


def test_cheb_preserves_hermitian_symmetry(grid32, rng):
    from phaseswe.grid import hermitian_residual, to_physical
    params = flat(grid32)
    lam = max_frequency(grid32, params) * 3600.0
    spec = PropagatorSpec.chebyshev(lam)
    state = band_limited_state(grid32, rng)
    out = cheb_exp(3600.0, state, params, spec)
    scale = max(np.max(np.abs(c)) for c in (out.u, out.v, out.eta))
    for c in (out.u, out.v, out.eta):
        assert hermitian_residual(c) <= 1e-13 * scale
    to_physical(grid32, out.eta)  # symmetry gate passes without projection
