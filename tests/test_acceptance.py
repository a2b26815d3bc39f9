"""Acceptance gate: headline guarantees of the phase-averaged solver.

Each test checks one guarantee end to end and prints a single PASS/FAIL line
with the measured numbers (shown with pytest -s, or in captured output on
failure).  Where `phaseswe validate` checks the same guarantee, the test runs
that shared check from phaseswe.validation and asserts on its result, adding
only a wall-time limit.  The averaging-window experiment and its determinism
check share one pair of command-line sweep runs built once per session; those
two take a few minutes of wall time, everything else is seconds.
"""

import csv
import math
import time

import numpy as np
import pytest

import phaseswe.harness as harness
from phaseswe.grid import make_grid, to_physical
from phaseswe.integrator import make_step_config, step_averaged_ssprk3
from phaseswe.testcase import balanced_jet, default_case, physics_params
from phaseswe.validation import (WINDOW_HOURS, check_cheb_vs_exact,
                                 check_convergence, check_exact_exp_group,
                                 check_interior_optimum, check_linear_step,
                                 check_small_grid_oracles, check_steady_jet)


def report(label: str, ok: bool, detail: str) -> None:
    assert type(ok) is bool, f"{label}: ok is {type(ok)!r}, not a plain bool"
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def run_check(check, *args, limit_s: float = math.inf) -> None:
    """Run a shared validation check and report it, failing past limit_s."""
    started = time.perf_counter()
    result = check(*args)
    elapsed = time.perf_counter() - started
    report(result.name, result.ok if elapsed < limit_s else False,
           f"{result.detail}, {elapsed:.2f} s")


TLIST = [h * 3600.0 for h in WINDOW_HOURS]


@pytest.fixture(scope="session")
def sweep_trees(tmp_path_factory):
    """Fine reference plus the same 15-day window sweep run with 8 and 1 workers."""
    root = tmp_path_factory.mktemp("window_sweep")
    ref = root / "ref"
    cfg_path = root / "case.cfg"
    cfg_path.write_text(
        "nx = 64\nny = 64\ndt = 3600\nT = 3600\nt_end = 1296000\n"
        f"snapshot_every = 86400\nref_dt = 180\nreference_path = {ref}\n")
    rc = harness.main(["reference", "--config", str(cfg_path),
                       "--output", str(ref)])
    assert rc == 0, "reference run failed"
    tlist = ",".join(f"{t:g}" for t in TLIST)
    for workers, name in ((8, "sweep_w8"), (1, "sweep_w1")):
        rc = harness.main(["sweep", "--config", str(cfg_path),
                           "--output", str(root / name),
                           "--workers", str(workers), "--tlist", tlist])
        assert rc == 0, f"sweep with {workers} workers failed"
    return root


def test_chebyshev_propagator_matches_exact_oracle():
    run_check(check_cheb_vs_exact, np.random.default_rng(7), limit_s=10.0)


def test_exponential_group_and_isometry():
    run_check(check_exact_exp_group, np.random.default_rng(11), limit_s=5.0)


def test_pure_linear_step_reduces_to_exponential():
    run_check(check_linear_step, np.random.default_rng(13))


def test_third_order_convergence():
    run_check(check_convergence, limit_s=120.0)


def test_balanced_jet_is_preserved():
    run_check(check_steady_jet, limit_s=60.0)


def _read_sweep_errors(tree):
    with open(tree / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_T = {float(r["T_seconds"]): r for r in rows}
    eta = [float(by_T[t]["l2_eta"]) for t in TLIST]
    vel = [float(by_T[t]["l2_u"]) for t in TLIST]
    return eta, vel


def test_averaging_window_has_interior_optimum(sweep_trees):
    eta, vel = _read_sweep_errors(sweep_trees / "sweep_w8")
    result = check_interior_optimum(TLIST, eta, vel)
    report(result.name, result.ok, result.detail)


def test_sweep_is_bitwise_deterministic_across_workers(sweep_trees):
    a_root = sweep_trees / "sweep_w1"
    b_root = sweep_trees / "sweep_w8"
    files_a = sorted(p.relative_to(a_root) for p in a_root.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b_root) for p in b_root.rglob("*") if p.is_file())
    assert files_a == files_b, "sweep trees contain different files"

    def config_lines(path):
        # the worker count and destination directory are the inputs this
        # comparison varies; every computed line must match
        return [line for line in path.read_text().splitlines()
                if not line.startswith(("workers", "output_dir"))]

    def csv_sans_walltime(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    mismatched = []
    for rel in files_a:
        fa, fb = a_root / rel, b_root / rel
        if rel.name == "sweep.csv":
            same = csv_sans_walltime(fa) == csv_sans_walltime(fb)
        elif rel.name == "config.resolved":
            same = config_lines(fa) == config_lines(fb)
        else:
            same = fa.read_bytes() == fb.read_bytes()
        if not same:
            mismatched.append(str(rel))
    report("sweep outputs identical for 1 and 8 workers", not mismatched,
           f"{len(files_a)} files compared, mismatches: {mismatched or 'none'}")


def test_mean_elevation_is_conserved_per_step():
    grid = make_grid(64, 64, 4.0e7, 4.0e7)
    case = default_case()
    rough = physics_params(case, grid, with_mountain=True)
    jet = balanced_jet(case, grid)
    scale = float(np.sqrt(np.mean(to_physical(grid, jet.eta) ** 2)))
    cfg = make_step_config(grid, rough, dt=3600.0, T=3600.0)
    npts = grid.nx * grid.ny
    state = jet
    means = [float(np.real(state.eta[0, 0])) / npts]
    for _ in range(24):
        state = step_averaged_ssprk3(state, cfg, rough)
        means.append(float(np.real(state.eta[0, 0])) / npts)
    per_step = max(abs(means[i + 1] - means[i]) for i in range(24)) / scale
    report("mean elevation constant per averaged step",
           per_step <= 1e-13,
           f"max per-step change {per_step:.3e} of eta rms over 1 day")


def test_small_grid_oracle_equivalences():
    run_check(check_small_grid_oracles, np.random.default_rng(17))
