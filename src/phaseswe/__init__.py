"""Phase-averaged rotating shallow water on a doubly periodic f-plane.

Pseudo-spectral solver for the rotating shallow water equations with
finite-window phase averaging of the nonlinearity, exponential time
integration (exact per-mode and matrix-free Chebyshev propagators), and a
transformed SSPRK3 stepper.
"""

from .grid import SpectralGrid, to_spectral, to_physical
from .dynamics import (PhysicsParams, State, apply_linear, apply_nonlinear,
                       dispersion_omega, max_frequency, energy_inner,
                       energy_norm, flat_bottom)
from .propagator import (PropagatorSpec, exact_exp, cheb_coeffs, choose_npoly,
                         cheb_exp, propagate)
from .averaging import Quadrature, default_node_count, averaged_tendency
from .integrator import (StepConfig, make_step_config, step_averaged_ssprk3,
                         Trajectory, run)
from .diagnostics import (l2_error_normalized, linf_error_eta, energy_mass,
                          ErrorReport, make_error_report)
from .config import RunConfig, default_config
from .testcase import mountain, balanced_jet, physics_params

__version__ = "0.1.0"

__all__ = [
    "SpectralGrid", "to_spectral", "to_physical",
    "PhysicsParams", "State", "apply_linear", "apply_nonlinear",
    "dispersion_omega", "max_frequency", "energy_inner", "energy_norm",
    "flat_bottom",
    "PropagatorSpec", "exact_exp", "cheb_coeffs", "choose_npoly", "cheb_exp",
    "propagate",
    "Quadrature", "default_node_count", "averaged_tendency",
    "StepConfig", "make_step_config", "step_averaged_ssprk3", "Trajectory", "run",
    "l2_error_normalized", "linf_error_eta", "energy_mass", "ErrorReport",
    "make_error_report",
    "RunConfig", "default_config", "mountain", "balanced_jet", "physics_params",
]
