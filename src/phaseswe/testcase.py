"""Standard experiment: opposing balanced zonal jets over a conical mountain.

The jet pair is an exact discrete steady state of the flat-bottom equations:
u depends on y only, v = 0, and eta satisfies the discrete geostrophic
balance i ky eta_hat = -(f/g) u_hat mode by mode, so both L U and N(U)
vanish to round-off.  Adding the mountain breaks the balance and drives the
nonlinear evolution used in convergence and averaging-window studies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import RunConfig, default_config
from .dynamics import PhysicsParams, State, flat_bottom
from .grid import SpectralGrid, dealias, to_spectral

__all__ = ["CaseParams", "case_params", "default_case", "mountain", "balanced_jet",
           "physics_params"]


@dataclass(frozen=True)
class CaseParams:
    """Jet and mountain geometry plus the physical constants of the case."""

    f: float
    g: float
    H: float
    u0: float
    jet_width: float
    b0: float
    r0: float
    xc: float
    yc: float

    def __post_init__(self):
        if not 0 <= self.b0 < self.H:
            raise ValueError(f"need 0 <= b0 < H, got b0 = {self.b0}, H = {self.H}")
        for name in ("jet_width", "r0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def case_params(cfg: RunConfig) -> CaseParams:
    """The case settings of a resolved run configuration."""
    return CaseParams(**{fld.name: getattr(cfg, fld.name) for fld in fields(CaseParams)})


def default_case() -> CaseParams:
    """The case of the default configuration: opposing 20 m/s jets and a
    2000 m mountain centred on the eastward jet, with f-plane midlatitude
    constants; RunConfig holds the values and the domain-derived sizes."""
    return case_params(default_config())


def mountain(case: CaseParams, grid: SpectralGrid) -> np.ndarray:
    """Spectral cone topography b0 (1 - min(r, r0)/r0), dealiased at construction.

    r is the periodic distance to the centre.  Truncation leaves small Gibbs
    ripples; the undershoot is visible in the physical field, not hidden.
    """
    if not case.r0 < min(grid.Lx, grid.Ly) / 2.0:
        raise ValueError(f"mountain radius {case.r0} must be below half the domain")
    x = grid.x[:, None]
    y = grid.y[None, :]
    dx = np.abs(x - case.xc)
    dy = np.abs(y - case.yc)
    dx = np.minimum(dx, grid.Lx - dx)
    dy = np.minimum(dy, grid.Ly - dy)
    r = np.hypot(dx, dy)
    b_phys = case.b0 * (1.0 - np.minimum(r, case.r0) / case.r0)
    return dealias(grid, to_spectral(grid, b_phys))


def balanced_jet(case: CaseParams, grid: SpectralGrid) -> State:
    """Opposing Gaussian jets in discrete geostrophic balance, mean eta zero.

    u(y) = u0 [exp(-((y - Ly/4)/w)^2) - exp(-((y - 3Ly/4)/w)^2)], v = 0.
    The velocity is dealiased before the balance is enforced, so the state is
    band-limited and the balance holds exactly for every retained mode.
    """
    y = grid.y
    w = case.jet_width
    profile = case.u0 * (np.exp(-(((y - 0.25 * grid.Ly) / w) ** 2))
                         - np.exp(-(((y - 0.75 * grid.Ly) / w) ** 2)))
    u_phys = np.broadcast_to(profile[None, :], (grid.nx, grid.ny))
    cu = dealias(grid, to_spectral(grid, np.ascontiguousarray(u_phys)))
    # the sampled Gaussian pair keeps a residual mean of order exp(-16) from
    # the unperiodized tails; remove it so the inertial mean mode stays quiet
    cu[0, 0] = 0.0

    ky2 = grid.ky[None, :] * np.ones((grid.nx, 1))
    ceta = np.zeros_like(cu)
    nonzero = ky2 != 0.0
    # discrete geostrophic balance i ky eta_hat = -(f/g) u_hat; mean eta = 0
    ceta[nonzero] = -(case.f / case.g) * cu[nonzero] / (1j * ky2[nonzero])
    return State(grid=grid, u=cu, v=np.zeros_like(cu), eta=ceta, t=0.0)


def physics_params(case: CaseParams, grid: SpectralGrid,
                   with_mountain: bool = True) -> PhysicsParams:
    """PhysicsParams for the case, with the cone topography or a flat bottom."""
    if not with_mountain:
        return flat_bottom(grid, case.f, case.g, case.H)
    return PhysicsParams(f=case.f, g=case.g, H=case.H, b=mountain(case, grid))
