"""Standard experiment: opposing balanced zonal jets over a conical mountain.

The jet pair is an exact discrete steady state of the flat-bottom equations:
u depends on y only, v = 0, and eta satisfies the discrete geostrophic
balance i ky eta_hat = -(f/g) u_hat mode by mode, so both L U and N(U)
vanish to round-off.  Adding the mountain breaks the balance and drives the
nonlinear evolution used in convergence and averaging-window studies.

Each function here reads the case from a RunConfig: cfg.grid, f, g and H,
the jets (u0, jet_width) and the mountain (b0, r0, xc, yc).  default_config()
is the paper's case: opposing 20 m/s jets and a 2000 m mountain centred on
the eastward jet, with f-plane midlatitude constants.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .dynamics import PhysicsParams, State
from .grid import band, to_spectral

__all__ = ["mountain", "balanced_jet", "physics_params"]


def mountain(cfg: RunConfig) -> np.ndarray:
    """Physical cone topography b0 (1 - min(r, r0)/r0), shape (nx, ny).

    r is the periodic distance to the centre.  PhysicsParams keeps the cone's
    2/3 band, whose truncation leaves small Gibbs ripples; the undershoot is
    visible in its b_phys, not hidden.
    """
    grid = cfg.grid
    x = grid.x[:, None]
    y = grid.y[None, :]
    dx = np.abs(x - cfg.xc)
    dy = np.abs(y - cfg.yc)
    dx = np.minimum(dx, grid.Lx - dx)
    dy = np.minimum(dy, grid.Ly - dy)
    r = np.hypot(dx, dy)
    return cfg.b0 * (1.0 - np.minimum(r, cfg.r0) / cfg.r0)


def balanced_jet(cfg: RunConfig) -> State:
    """Opposing Gaussian jets in discrete geostrophic balance, mean eta zero.

    u(y) = u0 [exp(-((y - Ly/4)/w)^2) - exp(-((y - 3Ly/4)/w)^2)], v = 0.
    The balance is enforced on the velocity's 2/3 band, so it holds exactly
    for every retained mode.
    """
    grid = cfg.grid
    y = grid.y
    w = cfg.jet_width
    profile = cfg.u0 * (np.exp(-(((y - 0.25 * grid.Ly) / w) ** 2))
                        - np.exp(-(((y - 0.75 * grid.Ly) / w) ** 2)))
    q = np.zeros((3, grid.nx, band(grid).kb), dtype=np.complex128)
    to_spectral(grid, np.tile(profile, (grid.nx, 1)), out=q[0])
    # the sampled Gaussian pair keeps a residual mean of order exp(-16) from
    # the unperiodized tails; remove it so the inertial mean mode stays quiet
    q[0, 0, 0] = 0.0

    iky = band(grid).iky
    nonzero = iky != 0.0
    # discrete geostrophic balance i ky eta_hat = -(f/g) u_hat; mean eta = 0
    q[2][nonzero] = -(cfg.f / cfg.g) * q[0][nonzero] / iky[nonzero]
    return State(grid, q, t=0.0)


def physics_params(cfg: RunConfig) -> PhysicsParams:
    """PhysicsParams for the case: the cone topography, a flat bottom
    (bitwise zeros, as flat_bottom's) when b0 = 0."""
    return PhysicsParams(cfg.grid, cfg.f, cfg.g, cfg.H, mountain(cfg))
