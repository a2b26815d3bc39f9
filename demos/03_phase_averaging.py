"""Finite-window phase averaging of the nonlinear tendency.

The averaged tendency is A(U) = sum_k w_k e^{-L s_k} N(e^{L s_k} U) over
quadrature nodes s_k spanning [-T, T], weighted by a smooth bump kernel.
Averaging damps the contribution of fast wave phases to the slow dynamics,
which is what lets the averaged system take large time steps.  The node
terms are independent, so they parallelise; the reduction order is fixed,
so the result is bitwise identical for any worker count.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from phaseswe import (PropagatorSpec, State, apply_nonlinear, averaged_tendency,
                      balanced_jet, default_config, default_node_count,
                      energy_norm, kernel_weights, make_grid, max_frequency,
                      physics_params)

grid = make_grid(64, 64, 4.0e7, 4.0e7)
case = default_config()
params = physics_params(case, grid)
lam_max = max_frequency(params)

# quadrature for a one-hour half-window; the bump kernel vanishes smoothly
# at the window edges so the endpoint nodes carry zero weight
T = 3600.0
M = default_node_count(T, lam_max)
quad = kernel_weights(T, M)
print("window T = %g s, fastest phase T * lam_max = %.2f rad, M = %d"
      % (T, T * lam_max, M))
print("  %6s %10s %10s" % ("k", "s_k (s)", "w_k"))
for k in range(-M, M + 1):
    i = k + M
    print("  %6d %10.1f %10.6f" % (k, quad.s[i], quad.w[i]))
print("  weight sum = %.17g" % quad.w.sum())

# how far the averaged tendency moves from the plain one as T grows
state = balanced_jet(case, grid)
spec = PropagatorSpec.exact()
# the nonlinearity maps the compact 2/3-band stack q of U to that of N(U)
plain = State(grid, apply_nonlinear(state.q, params))
plain_norm = energy_norm(plain, params)
print("\naveraged vs plain nonlinear tendency on the perturbed jet:")
for T in (60.0, 900.0, 3600.0, 14400.0):
    M = default_node_count(T, lam_max)
    avg = averaged_tendency(state, kernel_weights(T, M), params, spec)
    rel = energy_norm(avg - plain, params) / plain_norm
    print("  T = %6g s (M = %2d): |A_T(U) - N(U)| / |N(U)| = %.3e"
          % (T, M, rel))

# worker-count determinism: same bits no matter how the nodes are scheduled
quad = kernel_weights(3600.0, 4)
serial = averaged_tendency(state, quad, params, spec)
print("\nbitwise determinism across worker counts:")
for workers in (2, 4, 8):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parallel = averaged_tendency(state, quad, params, spec, executor=pool)
    same = np.array_equal(serial.q, parallel.q)
    print("  %d workers: identical = %s" % (workers, same))
