"""Applying e^{Lt}: the exact per-mode form vs the Chebyshev recurrence.

The linear operator acts diagonally per spectral mode with inertia-gravity
frequency omega = sqrt(f^2 + g H |k|^2), so the exponential has a closed
per-mode form.  The matrix-free alternative expands e^{Lt} in Chebyshev
polynomials of L and only ever applies L to states; both routes are compared
here on the default grid.
"""

import time
from dataclasses import replace

import numpy as np

from phaseswe import (PropagatorSpec, cheb_coeffs, cheb_exp, choose_npoly,
                      default_config, dispersion_omega, energy_norm, exact_exp,
                      make_grid, max_frequency, physics_params)
from phaseswe.grid import to_spectral
from phaseswe.dynamics import State

grid = make_grid(64, 64, 4.0e7, 4.0e7)
case = replace(default_config(), b0=0.0)   # flat bottom
params = physics_params(case, grid)

lam_max = max_frequency(params)
print("dispersion on the default grid:")
print("  slowest (mean) mode:  omega = f = %g 1/s -> period %.1f h"
      % (params.f, 2 * np.pi / params.f / 3600))
print("  fastest (corner) mode: omega = %.6e 1/s -> period %.1f min"
      % (lam_max, 2 * np.pi / lam_max / 60))
k1 = 2 * np.pi / grid.Lx
print("  gravest gravity wave: omega = %.3e 1/s"
      % dispersion_omega((k1, 0.0), params))

# a random state to push around: to_spectral gives the 2/3 band of three
# random real fields as one (3, nx, kb) stack; a State holds nothing else
rng = np.random.default_rng(3)
scales = np.array([1.0, 1.0, 50.0])[:, None, None]
state = State(grid, to_spectral(grid, scales * rng.standard_normal((3, 64, 64))))
norm = energy_norm(state, params)

# exact route: group law and isometry hold to round-off
t = 3600.0
fwd = exact_exp(t, state, params)
back = exact_exp(-t, fwd, params)
two = exact_exp(2 * t, state, params)
chained = exact_exp(t, fwd, params)
print("\nexact propagator on a random state (relative energy norms):")
print("  inverse error  |E(-t)E(t)U - U|  = %.2e" % (energy_norm(back - state, params) / norm))
print("  group error    |E(2t)U - E(t)E(t)U| = %.2e" % (energy_norm(two - chained, params) / norm))
print("  isometry error | |E(t)U| - |U| |  = %.2e"
      % (abs(energy_norm(fwd, params) - norm) / norm))

# Chebyshev route: the spec's Lambda must cover |t| * lam_max.  Each
# exponential is sized to its own argument, Lambda_t = |t| * lam_max, with
# the degree from the requested tolerance, so a shorter shift runs a lower
# degree.  The coefficients are 2 J_k(Lambda_t) and collapse
# superexponentially past k = Lambda_t.
Lambda = lam_max * t
print("\nChebyshev window Lambda = lam_max * t = %.3f" % Lambda)
for tol in (1e-6, 1e-10, 1e-12):
    n = choose_npoly(Lambda, tol)
    err = energy_norm(
        cheb_exp(t, state, params, PropagatorSpec.chebyshev(Lambda, tol=tol))
        - fwd, params) / norm
    print("  tol %g -> degree %2d, error vs exact %.2e" % (tol, n, err))

a = cheb_coeffs(Lambda, choose_npoly(Lambda, 1e-12))
print("  coefficient magnitudes:")
for k in range(0, len(a), 4):
    print("    a[%2d] = %+.3e" % (k, a[k]))

# cost comparison (both are cheap; the Chebyshev route only needs products
# with L's per-mode couplings)
spec = PropagatorSpec.chebyshev(Lambda, tol=1e-10)
for label, fn in (("exact", lambda: exact_exp(t, state, params)),
                  ("chebyshev", lambda: cheb_exp(t, state, params, spec))):
    reps = 50
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    wall = (time.perf_counter() - start) / reps
    print("  %-9s route: %.3f ms per application" % (label, 1e3 * wall))
