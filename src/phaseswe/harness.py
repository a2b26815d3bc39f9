"""Command line harness: run, reference, sweep, validate; no module imports it.

Exit codes: 0 success, 1 run or validation failure, 2 invalid configuration.
Every output file is bitwise reproducible from the configuration and seed
alone (the sweep summary's wall_time_s column is the sole timing field).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .config import (ConfigError, RunConfig, default_config, format_config,
                     load_config, reference_config, step_config, window_config)
from .diagnostics import make_error_report
from .dynamics import PhysicsParams, State
from .grid import SpectralGrid
from .integrator import StepConfig, Trajectory, run
from .io import (read_snapshot_state, write_diagnostics, write_error_report,
                 write_snapshot)
from .testcase import balanced_jet, physics_params
from .validation import run_validation

__all__ = ["build_problem", "cmd_run", "cmd_reference", "cmd_sweep",
           "cmd_validate", "main"]


def build_problem(cfg: RunConfig):
    """Grid, config, physics, and initial state for the configured jet +
    mountain case, on cfg.grid.  The first two slots, cfg.grid and cfg
    itself, are kept only because perfbench/run.py unpacks four values."""
    return cfg.grid, cfg, physics_params(cfg), balanced_jet(cfg)


def _write_run_outputs(outdir: str, cfg: RunConfig, traj: Trajectory) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))
    for step, state, phys in zip(traj.steps, traj.states, traj.fields):
        write_snapshot(outdir, step, state, phys)
    write_diagnostics(outdir, traj.times, traj.steps, traj.energy, traj.mass,
                      traj.max_speed)


def _load_reference(path: str, final: State) -> State:
    return _read_reference(path, final.grid, final.t)


def _read_reference(path: str, grid: SpectralGrid, t_end: float) -> State:
    """The reference snapshot at path, checked against the run's grid and end."""
    ref = read_snapshot_state(path)
    if ref.grid != grid:
        raise ValueError(f"reference grid {ref.grid} does not match run grid {grid}")
    if abs(ref.t - t_end) > 1e-6 * max(1.0, abs(t_end)):
        raise ValueError(f"reference time {ref.t} does not match run final "
                         f"time {t_end}")
    return ref


def _execute(cfg: RunConfig) -> tuple[Trajectory, PhysicsParams, StepConfig]:
    _grid, _cfg, params, state0 = build_problem(cfg)
    step_cfg = step_config(cfg, params)
    traj = run(state0, step_cfg, params, cfg.t_end,
               snapshot_every=cfg.snapshot_every, workers=cfg.workers)
    _write_run_outputs(cfg.output_dir, cfg, traj)
    return traj, params, step_cfg


def cmd_run(cfg: RunConfig) -> int:
    """Phase-averaged run; writes snapshots, diagnostics, and (against a
    reference, if configured, read before the first step) an error report."""
    ref = (_read_reference(cfg.reference_path, cfg.grid, cfg.t_end)
           if cfg.reference_path else None)
    traj, params, step_cfg = _execute(cfg)
    final = traj.states[-1]
    # the resolved M and, on the Chebyshev route, Lambda and the largest degree
    spec = step_cfg.propagator_spec
    resolved = f"M = {step_cfg.quadrature.M}"
    if spec.kind == "chebyshev":
        resolved += f", Chebyshev Lambda = {spec.Lambda:.6g}, max degree {spec.n_poly}"
    # the node threads depend on the machine's cores: stdout only, no file
    print(f"run: {traj.steps[-1]} steps to t = {final.t:g} s, "
          f"{len(traj.states)} snapshots, node threads {traj.node_threads} of "
          f"{cfg.workers}, {resolved} -> {cfg.output_dir}")
    if ref is not None:
        report = make_error_report(final, ref, params, traj.states[0])
        write_error_report(os.path.join(cfg.output_dir, "error_report.txt"), report)
        print(f"errors vs reference: l2_eta = {report.l2_eta:.6g}, "
              f"l2_u = {report.l2_u:.6g}")
    return 0


def cmd_reference(cfg: RunConfig) -> int:
    """Unaveraged fine-step reference run, set up by config.reference_config."""
    traj, _params, _step_cfg = _execute(reference_config(cfg))
    drift = abs(traj.energy[-1] - traj.energy[0]) / max(abs(traj.energy[0]), 1e-300)
    print(f"reference: {traj.steps[-1]} steps to t = {traj.times[-1]:g} s, "
          f"energy drift {drift:.3e} -> {cfg.output_dir}")
    return 0


def cmd_sweep(cfg: RunConfig, t_list: list[float]) -> int:
    """Run the window sweep against the configured reference; one CSV row per T.

    M is the node count each window's step configuration resolved; it is
    blank for a window that failed before its run finished.
    """
    if not cfg.reference_path:
        raise ConfigError("sweep needs reference_path pointing at a reference run")
    if not t_list:
        raise ConfigError("sweep needs a nonempty T list")
    # every window is checked first, so a bad T, or two windows that would
    # write one directory, is a config error before any run
    windows = [window_config(cfg, T) for T in t_list]
    subdirs = [os.path.join(cfg.output_dir, f"T_{T:g}s") for T in t_list]
    for i, subdir in enumerate(subdirs):
        if subdir in subdirs[:i]:
            raise ConfigError(f"windows T = {t_list[subdirs.index(subdir)]!r} and "
                              f"T = {t_list[i]!r} would both write {subdir}")
    ref = _read_reference(cfg.reference_path, cfg.grid, cfg.t_end)
    os.makedirs(cfg.output_dir, exist_ok=True)
    rows = []
    failures = 0
    for T, window, subdir in zip(t_list, windows, subdirs):
        run_cfg = replace(window, output_dir=subdir)
        started = time.perf_counter()
        resolved_M = ""
        try:
            traj, params, step_cfg = _execute(run_cfg)
            resolved_M = step_cfg.quadrature.M
            report = make_error_report(traj.states[-1], ref, params, traj.states[0])
            write_error_report(os.path.join(subdir, "error_report.txt"), report)
            elapsed = time.perf_counter() - started
            rows.append((T, resolved_M, report.l2_eta, report.l2_u, elapsed))
            print(f"T = {T:g} s: l2_eta = {report.l2_eta:.6g}, "
                  f"l2_u = {report.l2_u:.6g} ({elapsed:.1f} s)")
        except Exception as exc:
            elapsed = time.perf_counter() - started
            failures += 1
            rows.append((T, resolved_M, float("nan"), float("nan"), elapsed))
            print(f"T = {T:g} s: FAILED: {exc}", file=sys.stderr)
    with open(os.path.join(cfg.output_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("T_seconds,M,l2_eta,l2_u,wall_time_s\n")
        for T, M, l2_eta, l2_u, wall in rows:
            fh.write(f"{T!r},{M},{l2_eta!r},{l2_u!r},{wall!r}\n")
    return 1 if failures else 0


def cmd_validate(cfg: RunConfig, level: str = "fast") -> int:
    """Oracle self-checks; full level appends the 15-day sweep experiment."""
    results = run_validation(level=level, cfg=cfg)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        if not r.ok:
            failed += 1
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="phaseswe",
        description="Phase-averaged rotating shallow water simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("run", "phase-averaged run"),
                       ("reference", "fine-step unaveraged reference run"),
                       ("sweep", "averaging-window sweep against a reference"),
                       ("validate", "oracle self-checks")):
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("--config", help="path to key = value config file")
        sp.add_argument("--workers", type=int,
                        help="most threads for a step's averaging nodes, capped by "
                             "the cores and the window's nodes; none below 96x96")
        sp.add_argument("--output", help="output directory")
        if name == "sweep":
            sp.add_argument("--tlist", required=True,
                            help="comma-separated window half-widths in seconds")
        if name == "validate":
            sp.add_argument("--level", choices=("fast", "full"), default="fast")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.workers is not None:
            cfg = replace(cfg, workers=args.workers)
        if args.output is not None:
            cfg = replace(cfg, output_dir=args.output)
        # before any step; RunConfig admits "" for configs never written
        if args.command != "validate" and not cfg.output_dir:
            raise ConfigError(f"{args.command} needs a nonempty output_dir")
        if args.command == "sweep":
            try:
                t_list = [float(part) for part in args.tlist.split(",") if part.strip()]
            except ValueError:
                raise ConfigError(f"--tlist must be comma-separated numbers, "
                                  f"got {args.tlist!r}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "reference":
            return cmd_reference(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, t_list)
        return cmd_validate(cfg, level=args.level)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
