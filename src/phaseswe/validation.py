"""Self-check battery behind the validate subcommand and the acceptance tests.

Each check compares the production code against an independent route from
:mod:`phaseswe.oracles`, or against an exact identity of the method, and
returns a :class:`CheckResult`.  The acceptance tests assert on the same
results, so ``phaseswe validate`` and the test suite run one set of cases at
one set of tolerances.  fast finishes in well under a minute; full adds the
15-day averaging-window experiment on the configured case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, default_config, reference_config, window_config
from .diagnostics import l2_error_normalized
from .dynamics import (PhysicsParams, State, apply_linear, apply_nonlinear,
                       energy_inner, energy_norm, max_frequency)
from .grid import from_band, make_grid, mirror_ky0, to_physical, to_spectral
from .integrator import make_step_config, run, step_averaged_ssprk3
from .oracles import (band_limited_state, bessel_cheb_coeffs, linear_tendency,
                      nonlinear_tendency, take_band, truncated_convolution)
from .propagator import PropagatorSpec, cheb_coeffs, cheb_exp, exact_exp
from .testcase import balanced_jet, physics_params

__all__ = [
    "CheckResult",
    "check_roundtrip",
    "check_small_grid_oracles",
    "check_exact_exp_group",
    "check_cheb_vs_exact",
    "check_steady_jet",
    "check_linear_step",
    "check_convergence",
    "check_interior_optimum",
    "check_window_sweep",
    "run_validation",
]

# averaging half-widths of the window experiment, in hours
WINDOW_HOURS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _case_problem(n: int, flat: bool):
    """Grid, config and physics of the default case on an n x n grid, with
    the mountain taken away (b0 = 0) when flat."""
    cfg = replace(default_config(), b0=0.0) if flat else default_config()
    grid = make_grid(n, n, cfg.Lx, cfg.Ly)
    return grid, cfg, physics_params(cfg, grid)


def _max_rel(got: np.ndarray, want: np.ndarray, scale: float | None = None) -> float:
    if scale is None:
        scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale


def check_roundtrip(rng) -> CheckResult:
    """Forward then inverse transform of band-limited fields, and Parseval
    (energy_inner) against the physical-space Riemann sum."""
    grid, _cfg, params = _case_problem(64, flat=True)
    f, g2 = rng.standard_normal((2, 64, 64))
    a = State(grid, to_spectral(grid, np.stack((f, g2, f - g2))))
    b = State(grid, to_spectral(grid, np.stack((g2, f, f + g2))))
    phys_a, phys_b = to_physical(grid, a.q), to_physical(grid, b.q)
    err = _max_rel(to_physical(grid, to_spectral(grid, phys_a)), phys_a)
    coef = (params.H, params.H, params.g)
    riemann = grid.cell_area * sum(c * float(np.sum(x * y))
                                   for c, x, y in zip(coef, phys_a, phys_b))
    perr = abs(energy_inner(a, b, params) - riemann) / abs(riemann)
    return CheckResult("transform round-trip + Parseval",
                       err <= 1e-13 and perr <= 1e-12,
                       f"roundtrip {err:.2e}, parseval {perr:.2e}")


# (nx, ny, Lx, Ly, (f, g, H), topography amplitude); the last grid is
# non-square, anisotropic and has nx divisible by 3
_SMALL_CASES = (
    (8, 8, 2.0 * np.pi, 2.0 * np.pi, (1.3, 2.7, 0.9), 0.0),
    (8, 8, 1.0e6, 1.0e6, (1.0e-4, 9.8, 5960.0), 30.0),
    (12, 8, 1.5e6, 1.0e6, (1.0e-4, 9.8, 5960.0), 30.0),
)


def check_small_grid_oracles(rng) -> CheckResult:
    """Product, tendencies and Chebyshev coefficients against the oracles."""
    product = nonlinear = linear = 0.0
    for nx, ny, Lx, Ly, (f, g, H), b_amp in _SMALL_CASES:
        grid = make_grid(nx, ny, Lx, Ly)
        params = PhysicsParams(grid, f, g, H, b_amp * rng.standard_normal((nx, ny)))
        state = band_limited_state(grid, rng, vel_scale=2.0, eta_scale=20.0)

        phys = to_physical(grid, state.q[0]) * to_physical(grid, state.q[2])
        product = max(product, _max_rel(from_band(grid, to_spectral(grid, phys)),
                                        truncated_convolution(grid, state.u, state.eta)))

        got = apply_nonlinear(state.q, params)
        want = nonlinear_tendency(state, params).q
        nonlinear = max(nonlinear, *map(_max_rel, got, want))

        # arbitrary complex coefficients: the identity is per mode, on every
        # band mode; column ky = 0 is mirrored, as the oracle's full spectra are
        noise = rng.standard_normal((3, nx, ny)) + 1j * rng.standard_normal((3, nx, ny))
        for s in (state, State(grid, mirror_ky0(take_band(grid, noise)))):
            got, want = apply_linear(s, params).q, linear_tendency(s, params).q
            linear = max(linear, _max_rel(got, want, float(np.max(np.abs(got)))))

    bessel = max(float(np.max(np.abs(cheb_coeffs(lam, n) - bessel_cheb_coeffs(lam, n))))
                 for lam, n in ((5.0, 30), (6.2, 24)))
    ok = product <= 1e-12 and nonlinear <= 1e-12 and linear <= 1e-13 and bessel <= 1e-12
    return CheckResult("small-grid oracle equivalences", ok,
                       f"product vs convolution {product:.2e}, nonlinear vs "
                       f"convolution {nonlinear:.2e}, linear vs 3x3 {linear:.2e}, "
                       f"coefficients vs Bessel {bessel:.2e}")


def check_exact_exp_group(rng) -> CheckResult:
    """Identity, group law, inverse and isometry of the exact exponential."""
    worst = dict.fromkeys(("identity", "group", "inverse", "isometry"), 0.0)
    # (n, group pair t1 + t2, inverse time, isometry time)
    for n, (t1, t2), t_inv, t_iso in ((32, (2715.5, 2715.5), 5431.0, 5431.0),
                                      (32, (1800.0, 2700.0), 1800.0, 12345.0),
                                      (64, (1800.0, 4500.0), 1800.0, 86400.0)):
        grid, _cfg, flat = _case_problem(n, flat=True)
        state = band_limited_state(grid, rng)
        norm = energy_norm(state, flat)

        def E(t, s):
            return exact_exp(t, s, flat)

        found = {
            "identity": energy_norm(E(0.0, state) - state, flat),
            "group": energy_norm(E(t1 + t2, state) - E(t2, E(t1, state)), flat),
            "inverse": energy_norm(E(-t_inv, E(t_inv, state)) - state, flat),
            "isometry": abs(energy_norm(E(t_iso, state), flat) - norm),
        }
        for key, value in found.items():
            worst[key] = max(worst[key], value / norm)
    return CheckResult("exact propagator group law + isometry",
                       worst["identity"] <= 1e-13 and max(worst.values()) <= 1e-12,
                       ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def check_cheb_vs_exact(rng) -> CheckResult:
    """Chebyshev route against the exact route, forward 1 h and back 30 min,
    on ten states."""
    grid, _cfg, flat = _case_problem(64, flat=True)
    spec = PropagatorSpec.chebyshev(max_frequency(flat) * 3600.0, tol=1e-12)
    worst = 0.0
    for _ in range(10):
        state = band_limited_state(grid, rng)
        for t in (3600.0, -1800.0):
            diff = cheb_exp(t, state, flat, spec) - exact_exp(t, state, flat)
            worst = max(worst, energy_norm(diff, flat) / energy_norm(state, flat))
    return CheckResult("Chebyshev propagator vs exact", worst <= 1e-10,
                       f"max rel energy-norm error {worst:.3e} over 10 states, "
                       f"degree {spec.n_poly}")


def check_steady_jet() -> CheckResult:
    """The flat-bottom balanced jet stays put: 10 and 100 one-hour steps."""
    grid, cfg, flat = _case_problem(64, flat=True)
    jet = balanced_jet(cfg, grid)
    drift10 = 0.0
    drift100 = {}
    for T in (0.0, 3600.0):
        cfg = make_step_config(grid, flat, dt=3600.0, T=T)
        states = run(jet, cfg, flat, t_end=100 * 3600.0,
                     snapshot_every=10 * 3600.0).states
        if T > 0:
            drift10 = max(l2_error_normalized(states[1], jet))
        drift100[T] = max(l2_error_normalized(states[-1], jet))
    ok = drift10 <= 1e-12 and max(drift100.values()) <= 1e-10
    return CheckResult("balanced jet is a steady state", ok,
                       f"10-step drift {drift10:.2e} (T = 1 h); 100-step drift "
                       f"{drift100[0.0]:.2e} (T = 0), {drift100[3600.0]:.2e} (T = 1 h)")


def check_linear_step(rng) -> CheckResult:
    """With the nonlinearity zeroed, one step telescopes to e^{L dt}."""
    dt = 3600.0
    worst = {"exact": 0.0, "chebyshev": 0.0}
    for n in (32, 64):
        grid, _cfg, flat = _case_problem(n, flat=True)
        state = band_limited_state(grid, rng)
        want = exact_exp(dt, state, flat)
        norm = energy_norm(state, flat)
        for T, route in ((0.0, "exact"), (dt, "exact"), (dt, "chebyshev")):
            cfg = make_step_config(grid, flat, dt=dt, T=T, propagator=route, tol=1e-10)
            got = step_averaged_ssprk3(state, cfg, flat,
                                       nonlinear=lambda q, *_: np.zeros_like(q))
            worst[route] = max(worst[route], energy_norm(got - want, flat) / norm)
    return CheckResult("pure-linear step = exact exponential",
                       worst["exact"] <= 1e-12 and worst["chebyshev"] <= 1e-9,
                       f"exact route {worst['exact']:.3e} (tol 1e-12), "
                       f"Chebyshev route {worst['chebyshev']:.3e} (tol 1e-9)")


def check_convergence() -> CheckResult:
    """Third-order convergence in dt of eta on the mountain case: orders of at
    least 2.5 after 1 h and 2.7 after 6 h."""
    grid, cfg, params = _case_problem(32, flat=False)
    jet = balanced_jet(cfg, grid)

    def at_1h_and_6h(dt):
        traj = run(jet, make_step_config(grid, params, dt=dt), params, 21600.0,
                   snapshot_every=3600.0)
        return traj.states[1], traj.states[-1]

    ref = at_1h_and_6h(30.0)
    errs = [[l2_error_normalized(s, r)[0] for s, r in zip(at_1h_and_6h(dt), ref)]
            for dt in (900.0, 450.0, 225.0)]
    orders = [[math.log2(errs[i][h] / errs[i + 1][h]) for i in range(2)]
              for h in range(2)]
    ok = min(orders[0]) >= 2.5 and min(orders[1]) >= 2.7
    return CheckResult("time convergence order (eta)", ok,
                       f"6 h eta errors {errs[0][1]:.3e}/{errs[1][1]:.3e}/"
                       f"{errs[2][1]:.3e}, orders {orders[1][0]:.2f}, "
                       f"{orders[1][1]:.2f}; 1 h orders {orders[0][0]:.2f}, "
                       f"{orders[0][1]:.2f}")


def check_interior_optimum(T_list, errs_eta, errs_u) -> CheckResult:
    """Both error curves over the window half-widths dip below both ends."""
    ok = True
    details = []
    for name, errs in (("eta", errs_eta), ("velocity", errs_u)):
        lo = min(errs[1:-1])
        ok = ok and lo < errs[0] and lo < errs[-1]
        imin = int(np.argmin(errs))
        details.append(f"{name} min {errs[imin]:.4f} at T = {T_list[imin] / 3600:g} h "
                       f"(ends {errs[0]:.4f}, {errs[-1]:.4f})")
    return CheckResult("averaging window has an interior optimum", ok,
                       "; ".join(details))


def check_window_sweep(cfg: RunConfig) -> CheckResult:
    """The window experiment on the configured case against its fine
    reference, each run set up as `phaseswe reference` and `sweep` set it up."""
    from .harness import build_problem, step_config  # harness imports this module

    _grid, _cfg, params, jet = build_problem(cfg)
    ref = run(jet, step_config(reference_config(cfg), params), params,
              cfg.t_end).states[-1]
    T_list = [h * 3600.0 for h in WINDOW_HOURS]
    errs = []
    for T in T_list:
        step_cfg = step_config(window_config(cfg, T), params)
        final = run(jet, step_cfg, params, cfg.t_end, workers=cfg.workers).states[-1]
        errs.append(l2_error_normalized(final, ref))
    errs_eta, errs_u = zip(*errs)
    return check_interior_optimum(T_list, errs_eta, errs_u)


def run_validation(level: str = "fast", cfg: RunConfig | None = None) -> list[CheckResult]:
    """Run the oracle battery with the config's seed; full level appends the
    window sweep on the configured case, run with the config's workers."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be fast or full, got {level!r}")
    cfg = cfg or default_config()
    rng = np.random.default_rng(cfg.seed)
    results = [
        check_roundtrip(rng),
        check_small_grid_oracles(rng),
        check_exact_exp_group(rng),
        check_cheb_vs_exact(rng),
        check_steady_jet(),
        check_linear_step(rng),
        check_convergence(),
    ]
    if level == "full":
        results.append(check_window_sweep(cfg))
    return results
