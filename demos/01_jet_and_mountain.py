"""The standard experiment: opposing balanced jets over a conical mountain.

Builds the default 64 x 64 doubly periodic case, verifies that the flat-bottom
jet is a discrete steady state, looks at the mountain, and runs a short
nonlinear spin-up printing conservation diagnostics.
"""

from dataclasses import replace

import numpy as np

from phaseswe import (State, apply_linear, apply_nonlinear, balanced_jet,
                      default_config, energy_norm, make_grid, make_step_config,
                      physics_params, run, to_physical)

grid = make_grid(64, 64, 4.0e7, 4.0e7)
case = default_config()

print("domain: %g x %g km, %d x %d points" % (grid.Lx / 1e3, grid.Ly / 1e3,
                                              grid.nx, grid.ny))
print("f = %g 1/s, g = %g m/s^2, H = %g m" % (case.f, case.g, case.H))
print("jets: +-%g m/s, width %g km, centred at y = Ly/4 and 3Ly/4"
      % (case.u0, case.jet_width / 1e3))

# the jet pair is built in discrete geostrophic balance, so with a flat
# bottom both the linear and the nonlinear tendency vanish to round-off
flat = physics_params(replace(case, b0=0.0), grid)
jet = balanced_jet(case, grid)
scale = case.f * energy_norm(jet, flat)
print("\nflat-bottom steadiness (energy norms, relative to f * |U|):")
print("  |L U| / scale = %.3e" % (energy_norm(apply_linear(jet, flat), flat) / scale))
# a State is its compact 2/3-band stack q, and the nonlinearity maps the q
# of U to that of N(U)
nonlinear = State(grid, apply_nonlinear(jet.q, flat))
print("  |N(U)| / scale = %.3e" % (energy_norm(nonlinear, flat) / scale))

# to_physical maps the band stack q to the physical (u, v, eta)
u_phys, _v_phys, eta_phys = to_physical(grid, jet.q)
print("  max |u| = %.3f m/s, eta range [%.2f, %.2f] m"
      % (np.abs(u_phys).max(), eta_phys.min(), eta_phys.max()))

# the mountain: a cone of height b0 and radius r0 on the eastward jet;
# the physics keeps its 2/3 band b for the dynamics and that band's
# physical field b_phys for the diagnostics, so expect small Gibbs ripples
# around the base
rough = physics_params(case, grid)
b_phys = rough.b_phys
volume = grid.cell_area * b_phys.sum()
cone = np.pi * case.r0**2 * case.b0 / 3.0
print("\nmountain: b0 = %g m, r0 = %g km" % (case.b0, case.r0 / 1e3))
print("  peak %.1f m, ripple undershoot %.1f m" % (b_phys.max(), b_phys.min()))
print("  volume %.4e m^3 vs exact cone %.4e (ratio %.4f)"
      % (volume, cone, volume / cone))

# with the mountain in place the balance is broken and the flow evolves;
# one simulated day with the plain (unaveraged) scheme
config = make_step_config(grid, rough, dt=900.0)
traj = run(jet, config, rough, t_end=86400.0, snapshot_every=21600.0)

print("\none day over the mountain, dt = 900 s:")
print("  %8s %14s %14s %10s" % ("t (h)", "energy (J)", "mass (m^3)", "max speed"))
for t, en, ms, sp in zip(traj.times, traj.energy, traj.mass, traj.max_speed):
    print("  %8.1f %14.6e %14.6e %10.3f" % (t / 3600.0, en, ms, sp))

e_rel = abs(traj.energy[-1] - traj.energy[0]) / abs(traj.energy[0])
m_rel = abs(traj.mass[-1] - traj.mass[0]) / abs(traj.mass[0])
print("  relative drift: energy %.2e, mass %.2e" % (e_rel, m_rel))
