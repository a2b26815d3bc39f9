"""phaseswe benchmark: the fine reference, the window sweep and a Chebyshev run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 36 --trace 0

Each workload is driven from outside the package through the public calls
the command line makes, in the same order: set-up is harness.build_problem
then integrator.make_step_config, the solve is integrator.run, and output is
io.write_snapshot, io.write_diagnostics and diagnostics.make_error_report.
One pass of those calls is a unit; units repeat while another one fits in
--seconds, and every run has at least MIN_STEPS steps.  --trace 0 times the
phases and the steps and prints the end-to-end metrics; --trace 1 alternates
untraced units with traced ones and prints the per-layer metrics.  The last
line of standard output is one JSON object; see README.md in this directory.
"""

from __future__ import annotations

import os

# the averaging thread pool is the only parallelism measured; these must be
# set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = os.path.join(HERE, "pinned")
REFERENCE_DIR = os.path.join(PINNED, "reference")

if not os.path.isfile(os.path.join(SRC, "phaseswe", "__init__.py")):
    sys.exit(f"perfbench: no phaseswe sources under {SRC}; run from a checkout")
sys.path.insert(0, SRC)

from phaseswe import config, diagnostics, harness, integrator  # noqa: E402
from phaseswe import io as pio  # noqa: E402

import tracing  # noqa: E402

# Every workload ends at the same model time, 10 h, so the fine reference
# (200 steps of 180 s) is the state the sweep's errors are taken against.
HORIZON_S = 36000.0
MIN_STEPS = 100      # step_ms_p90 then has ten samples beyond it
SETUP_REPS = 20      # extra set-ups after each unit, spread over the run
STATE_RTOL = 1e-10   # pinned final states, l2 errors (ROADMAP's science gate)
MASS_RTOL = 1e-12    # mass is conserved to round-off on every input
CHEB_RTOL = 1e-7     # Chebyshev route against the exact route's pinned state


@dataclass(frozen=True)
class Workload:
    dt: float
    windows: tuple        # averaging half-widths T in seconds, one run each
    workers: int
    propagator: str = "exact"
    snapshot_steps: int = 0   # 0 records only the initial and final states
    error_report: bool = True

    @property
    def steps(self) -> int:
        return round(HORIZON_S / self.dt)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "reference": Workload(dt=180.0, windows=(0.0,), workers=1, snapshot_steps=20,
                          error_report=False),
    "sweep": Workload(dt=3600.0,
                      windows=(0.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0),
                      workers=2),
    "chebyshev": Workload(dt=3600.0, windows=(3600.0,), workers=1,
                          propagator="chebyshev"),
}

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "step_ms_p50": "ms", "step_ms_p90": "ms",
    "wall_s": "s", "peak_rss_mb": "MB",
}


def window_config(w: Workload, T: float, seed: int, outdir: str) -> config.RunConfig:
    """The run configuration of one window; seed 0 is the paper's case and
    other seeds move the mountain centre."""
    cfg = config.default_config()
    if seed != 0:
        rng = random.Random(seed)
        cfg = replace(cfg, xc=rng.uniform(0.0, cfg.Lx), yc=rng.uniform(0.0, cfg.Ly))
    return replace(cfg, nx=64, ny=64, dt=w.dt, T=T, M=None, propagator=w.propagator,
                   tol=1e-10, t_end=HORIZON_S, snapshot_every=w.snapshot_steps * w.dt,
                   workers=w.workers, seed=seed, output_dir=outdir,
                   reference_path=REFERENCE_DIR if w.error_report else "")


def set_up(cfg: config.RunConfig):
    grid, _case, params, state0 = harness.build_problem(cfg)
    step_cfg = integrator.make_step_config(grid, params, dt=cfg.dt, T=cfg.T, M=cfg.M,
                                           propagator=cfg.propagator, tol=cfg.tol)
    return params, state0, step_cfg


def write_outputs(cfg: config.RunConfig, traj, params, ref):
    """The command line's outputs: harness._write_run_outputs, then the error
    report against ref, loaded once per unit as cmd_sweep loads it.  Returns
    the report, if one is due, and the reference for the next window."""
    harness._write_run_outputs(cfg.output_dir, cfg, traj)
    if not cfg.reference_path:
        return None, ref
    if ref is None:
        ref = harness._load_reference(cfg.reference_path, traj.states[-1])
    report = diagnostics.make_error_report(traj.states[-1], ref, params, traj.states[0])
    pio.write_error_report(os.path.join(cfg.output_dir, "error_report.txt"), report)
    return report, ref


@dataclass
class Window:
    T: float
    M: int = -1
    degree: int = 0
    traj: object = None
    report: object = None
    error: str = ""


@dataclass
class Unit:
    setup_s: float = 0.0
    solve_s: float = 0.0
    output_s: float = 0.0
    wall_s: float = 0.0
    bytes_written: int = 0
    windows: list = field(default_factory=list)


def run_unit(w: Workload, seed: int, outdir: str) -> Unit:
    """One pass of the workload: per window, set up, solve, write outputs."""
    unit = Unit()
    ref = None
    for T in w.windows:
        win = Window(T=T)
        unit.windows.append(win)
        cfg = window_config(w, T, seed, os.path.join(outdir, f"T_{T:g}s"))
        try:
            t0 = time.perf_counter()
            params, state0, step_cfg = set_up(cfg)
            t1 = time.perf_counter()
            win.M = step_cfg.quadrature.M
            win.degree = step_cfg.propagator_spec.n_poly if w.propagator == "chebyshev" else 0
            win.traj = integrator.run(state0, step_cfg, params, cfg.t_end,
                                      snapshot_every=cfg.snapshot_every,
                                      workers=cfg.workers)
            t2 = time.perf_counter()
            win.report, ref = write_outputs(cfg, win.traj, params, ref)
            t3 = time.perf_counter()
        except Exception:  # a failed window is counted, and the run goes on
            win.error = traceback.format_exc()
            print(f"window T = {T:g} s failed:\n{win.error}", file=sys.stderr)
            continue
        unit.setup_s += t1 - t0
        unit.solve_s += t2 - t1
        unit.output_s += t3 - t2
        unit.wall_s += t3 - t0
    for dirpath, _dirs, files in os.walk(outdir):
        unit.bytes_written += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    shutil.rmtree(outdir, ignore_errors=True)
    return unit


def set_up_only(w: Workload, seed: int) -> float:
    """Seconds for the unit's set-ups alone, timed as run_unit times them."""
    configs = [window_config(w, T, seed, "") for T in w.windows]
    t0 = time.perf_counter()
    for cfg in configs:
        set_up(cfg)
    return time.perf_counter() - t0


# ---------------------------------------------------------------- checks

def load_pinned() -> dict:
    with open(os.path.join(PINNED, "values.json"), encoding="utf-8") as fh:
        values = json.load(fh)
    ref = np.stack([
        np.fromfile(os.path.join(REFERENCE_DIR,
                                 f"{pio.snapshot_prefix(values['reference_step'])}_{name}.f64"),
                    dtype="<f8").reshape(64, 64)
        for name in ("u", "v", "eta")])
    return {"values": values, "reference": ref,
            "sweep": np.load(os.path.join(PINNED, "sweep_states.npy"))}


def physical(state) -> np.ndarray:
    """(u, v, eta) physical fields of a spectral state, computed here with numpy."""
    return np.stack([np.fft.ifft2(getattr(state, name)).real for name in ("u", "v", "eta")])


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-field relative L2 difference of stacked fields a and b."""
    return max(float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))
               for x, y in zip(a, b))


def check_window(name: str, index: int, win: Window, seed: int, pinned: dict | None):
    """(check, ok, detail) for one window: invariants on every seed, pinned
    values on seed 0."""
    checks = []
    pinned_M = pinned["values"]["M"][name][index] if pinned else None
    checks.append(("M", win.M == pinned_M, f"resolved M = {win.M}, pinned {pinned_M}"))
    final = win.traj.states[-1]
    finite = all(np.all(np.isfinite(getattr(final, f))) for f in ("u", "v", "eta"))
    checks.append(("finite", finite, "final state finite"))
    m0, m1 = win.traj.mass[0], win.traj.mass[-1]
    drift = abs(m1 - m0) / abs(m0)
    checks.append(("mass", drift <= MASS_RTOL, f"relative mass drift {drift:.3e}"))
    if seed != 0 or pinned is None:
        return checks
    phys = physical(final)
    if name == "reference":
        err = rel_diff(phys, pinned["reference"])
        checks.append(("state", err <= STATE_RTOL, f"vs pinned reference {err:.3e}"))
    elif name == "sweep":
        err = rel_diff(phys, pinned["sweep"][index])
        checks.append(("state", err <= STATE_RTOL, f"vs pinned state {err:.3e}"))
        for key, got, want in zip(("l2_eta", "l2_u"),
                                  (win.report.l2_eta, win.report.l2_u),
                                  pinned["values"]["sweep_l2"][index]):
            err = abs(got - want) / abs(want)
            checks.append((key, err <= STATE_RTOL, f"{got!r} vs pinned {want!r}"))
    elif name == "chebyshev":
        exact = pinned["sweep"][WORKLOADS["sweep"].windows.index(win.T)]
        err = rel_diff(phys, exact)
        checks.append(("state", err <= CHEB_RTOL, f"vs exact-route state {err:.3e}"))
    return checks


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add_unit(self, name: str, unit: Unit, seed: int, pinned) -> None:
        """Count the unit's steps and checks, then drop its trajectories so that
        peak memory does not grow with the number of units."""
        w = WORKLOADS[name]
        for index, win in enumerate(unit.windows):
            self.attempted += w.steps
            if win.error:
                self.failed += w.steps
                continue
            for check, ok, detail in check_window(name, index, win, seed, pinned):
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    print(f"check {check} failed on {name} window T = {win.T:g} s: "
                          f"{detail}", file=sys.stderr)
            win.traj = None


# ---------------------------------------------------------------- measuring

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def timed_steps(samples: list):
    """integrator.step_averaged_ssprk3 with one wall-clock timer per call."""
    step = integrator.step_averaged_ssprk3

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = step(*args, **kwargs)
        samples.append(time.perf_counter() - t0)
        return out

    return [(integrator, "step_averaged_ssprk3", timed)]


def another_unit_fits(started: float, seconds: int, units: int) -> bool:
    """True while one more unit, at the mean unit time so far, ends within seconds."""
    elapsed = time.perf_counter() - started
    return units == 0 or elapsed * (units + 1) / units <= seconds


def end_to_end(name: str, seed: int, seconds: int, outdir: str, tally: Tally, pinned):
    w = WORKLOADS[name]
    setups: list[float] = []
    steps: list[float] = []
    units: list[Unit] = []
    started = time.perf_counter()
    with tracing.patched(timed_steps(steps)):
        while (len(units) * w.steps * len(w.windows) < MIN_STEPS
               or another_unit_fits(started, seconds, len(units))):
            unit = run_unit(w, seed, outdir)
            units.append(unit)
            tally.add_unit(name, unit, seed, pinned)
            setups += [unit.setup_s] + [set_up_only(w, seed) for _ in range(SETUP_REPS)]
    ms = [1e3 * s for s in steps] or [0.0]
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    values = {
        "setup_s": median(setups),
        "solve_s": median([u.solve_s for u in units]),
        "step_ms_p50": statistics.median(ms),
        "step_ms_p90": deciles[8],
        "wall_s": median([u.wall_s for u in units]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"units": len(units), "step_samples": len(steps),
             "setup_samples": len(setups),
             "unit_solve_s": [round(u.solve_s, 4) for u in units],
             "output_s": median([u.output_s for u in units])}
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, notes


def layer_values(s: tracing.Summary, unit: Unit, degree: int) -> dict:
    """Per-layer metrics of one traced unit, name -> (value, unit)."""
    out = {}
    for name in ("grid.to_physical", "grid.to_spectral", "dynamics.apply_nonlinear",
                 "dynamics.apply_linear", "propagator.exact_exp", "propagator.cheb_exp",
                 "averaging.averaged_tendency", "integrator.step",
                 "diagnostics.energy_mass", "io.write_snapshot"):
        out[f"{name}.calls"] = (s.calls[name], "count")
        out[f"{name}.self_s"] = (s.self_s[name], "s")
    for name in ("dynamics.apply_nonlinear", "propagator.exact_exp",
                 "propagator.cheb_exp", "averaging.averaged_tendency"):
        out[f"{name}.ms_per_call"] = (s.ms_per_call(name), "ms")
    for name in ("integrator.make_step_config", "testcase.physics_params",
                 "testcase.balanced_jet", "diagnostics.make_error_report",
                 "io.read_snapshot_state"):
        out[f"{name}.self_s"] = (s.self_s[name], "s")
    exps = s.calls["propagator.exact_exp"]
    applies = s.calls_under["dynamics.apply_linear", "propagator.exact_exp"]
    tend_calls = s.calls["averaging.averaged_tendency"]
    live, total = s.amount("averaging.averaged_tendency", 0), s.amount("averaging.averaged_tendency", 1)
    pooled = s.pooled_wall_s["averaging.averaged_tendency"]
    out.update({
        "grid.bytes_computed": (s.amount("grid.to_physical") + s.amount("grid.to_spectral"),
                                "bytes"),
        "propagator.linear_applies_per_exp": (applies / exps if exps else 0.0, "1/call"),
        "propagator.cheb_degree": (degree, "count"),
        "averaging.nodes_per_call": (live / tend_calls if tend_calls else 0.0, "1/call"),
        "averaging.live_node_frac": (live / total if total else 0.0, "frac"),
        # summed node time over the wall time of the calls that used the pool;
        # 1 where no call did
        "averaging.pool_speedup": (s.total_s[tracing.NODE_SPAN] / pooled if pooled else 1.0,
                                   "ratio"),
        "io.bytes_written": (unit.bytes_written, "bytes"),
    })
    return out


def per_layer(name: str, seed: int, seconds: int, outdir: str, tally: Tally, pinned):
    w = WORKLOADS[name]
    plain: list[Unit] = []
    traced: list[dict] = []
    traced_solve: list[float] = []
    started = time.perf_counter()
    while not traced or another_unit_fits(started, seconds, len(plain) + len(traced)):
        tracer = None if len(plain) <= len(traced) else tracing.Tracer()
        if tracer is None:
            unit = run_unit(w, seed, outdir)
            plain.append(unit)
        else:
            with tracing.patched(tracing.layer_patches(tracer)):
                unit = run_unit(w, seed, outdir)
            degree = max((win.degree for win in unit.windows), default=0)
            traced.append(layer_values(tracer.summary(), unit, degree))
            traced_solve.append(unit.solve_s)
        tally.add_unit(name, unit, seed, pinned)
    values = {k: (median([t[k][0] for t in traced]), traced[0][k][1]) for k in traced[0]}
    base = median([u.solve_s for u in plain])
    values["trace.overhead_frac"] = (median(traced_solve) / base - 1.0 if base else 0.0,
                                     "frac")
    return values, {"untraced_units": len(plain), "traced_units": len(traced)}


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            if index.startswith("index"):
                level, kind, size = (
                    open(os.path.join(cache_dir, index, f), encoding="utf-8").read().strip()
                    for f in ("level", "type", "size"))
                caches[f"L{level} {kind}"] = size
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    pinned = load_pinned()
    outdir = os.path.join(HERE, ".out", f"{args.workload}-{os.getpid()}")
    tally = Tally()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(args.workload, args.seed, args.seconds, outdir, tally, pinned)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(outdir))
        except OSError:  # another run still uses it
            pass
    notes["failed_frac"] = tally.failed / tally.attempted
    print("machine " + json.dumps(machine()))
    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(notes))
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
