"""Command line interface: run, reference, sweep, validate, exit codes."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phaseswe.diagnostics as diagnostics
import phaseswe.harness as harness
import phaseswe.integrator as integrator
import phaseswe.io as pio
import phaseswe.validation as validation
from phaseswe.config import parse_config, step_config
from phaseswe.grid import to_physical
from phaseswe.io import list_snapshot_steps, read_snapshot_state
from phaseswe.validation import CheckResult

SMALL_CFG = """\
nx = 16
ny = 16
dt = 600
T = 600
M = 2
t_end = 1800
snapshot_every = 600
ref_dt = 300
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def test_run_writes_outputs(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    rc = harness.main(["run", "--config", str(small_cfg), "--output", str(out)])
    assert rc == 0
    assert (out / "config.resolved").exists()
    assert (out / "diagnostics.csv").exists()
    assert list_snapshot_steps(str(out)) == [0, 1, 2, 3]
    assert read_snapshot_state(str(out)).t == 1800.0
    echoed = parse_config((out / "config.resolved").read_text())
    assert echoed.T == 600.0 and echoed.M == 2
    line = capsys.readouterr().out
    assert "3 steps to t = 1800 s" in line
    assert ", M = 2 ->" in line and "Chebyshev" not in line


@pytest.mark.parametrize("n, workers, want", [(16, 4, "1 of 4"), (96, 8, "2 of 8")])
def test_run_names_its_node_threads_on_stdout_only(tmp_path, small_cfg, capsys,
                                                    monkeypatch, n, workers, want):
    # the count depends on the machine's cores, so it reaches no output file
    monkeypatch.setattr(integrator, "available_cores", lambda: 2)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(SMALL_CFG.replace("nx = 16\nny = 16", f"nx = {n}\nny = {n}")
                   .replace("t_end = 1800", "t_end = 600"))
    out = tmp_path / "out"
    assert harness.main(["run", "--config", str(cfg), "--output", str(out),
                         "--workers", str(workers)]) == 0
    assert f"node threads {want}, M = 2 ->" in capsys.readouterr().out
    for path in out.iterdir():
        assert b"node threads" not in path.read_bytes(), path.name


def test_chebyshev_run_reports_lambda_and_degree(tmp_path, small_cfg, capsys):
    cfg = tmp_path / "cheb.cfg"
    cfg.write_text(SMALL_CFG + "propagator = chebyshev\ntol = 1e-8\n")
    assert harness.main(["run", "--config", str(cfg), "--output",
                         str(tmp_path / "out")]) == 0
    run_cfg = parse_config(cfg.read_text())
    _grid, _cfg, params, _state = harness.build_problem(run_cfg)
    spec = step_config(run_cfg, params).propagator_spec
    assert spec.kind == "chebyshev" and spec.tol == 1e-8
    assert (f", M = 2, Chebyshev Lambda = {spec.Lambda:.6g}, max degree "
            f"{spec.n_poly} ->") in capsys.readouterr().out


def test_run_path_loads_no_scipy(tmp_path, small_cfg):
    # every transform and the Chebyshev coefficients are numpy's; scipy is
    # for the oracles only, which import it when called
    cheb = tmp_path / "cheb.cfg"
    cheb.write_text(SMALL_CFG + "propagator = chebyshev\n")
    code = (
        "import sys\n"
        "from phaseswe.harness import main\n"
        "for i, cfg in enumerate(sys.argv[1:]):\n"
        "    assert main(['run', '--config', cfg, '--output', f'out{i}']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code, str(small_cfg), str(cheb)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out0" / "diagnostics.csv").exists()
    assert (tmp_path / "out1" / "diagnostics.csv").exists()


def test_reference_then_run_with_error_report(tmp_path, small_cfg, capsys):
    ref = tmp_path / "ref"
    rc = harness.main(["reference", "--config", str(small_cfg),
                       "--output", str(ref)])
    assert rc == 0
    echoed = parse_config((ref / "config.resolved").read_text())
    assert echoed.dt == 300.0 and echoed.T == 0.0 and echoed.M == 0
    assert echoed.propagator == "exact"
    assert read_snapshot_state(str(ref)).t == 1800.0

    cfg2 = tmp_path / "with_ref.cfg"
    cfg2.write_text(SMALL_CFG + f"reference_path = {ref}\n")
    out = tmp_path / "out"
    rc = harness.main(["run", "--config", str(cfg2), "--output", str(out)])
    assert rc == 0
    assert "errors vs reference" in capsys.readouterr().out
    text = (out / "error_report.txt").read_text()
    values = dict(line.split(" = ") for line in text.splitlines())
    assert 0.0 < float(values["l2_eta"]) < 1.0
    assert math.isfinite(float(values["energy_drift"]))


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    assert harness.main(["run", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert harness.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert harness.main(["run", "--config", str(bad), "--workers", "0"]) == 2
    assert harness.main(["sweep", "--config", str(bad), "--tlist", "abc"]) == 2
    good = tmp_path / "good.cfg"
    good.write_text(SMALL_CFG)
    capsys.readouterr()
    assert harness.main(["run", "--config", str(good), "--workers", "0",
                         "--output", str(tmp_path / "out")]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    good.write_text(SMALL_CFG + f"reference_path = {tmp_path / 'ref'}\n")
    assert harness.main(["sweep", "--config", str(good), "--tlist=600,-600",
                         "--output", str(tmp_path / "out")]) == 2
    assert "T must be nonnegative" in capsys.readouterr().err
    good.write_text(SMALL_CFG.replace("ref_dt = 300", "ref_dt = 700"))
    assert harness.main(["reference", "--config", str(good),
                         "--output", str(tmp_path / "out")]) == 2
    assert "t_end = 1800.0 must be a multiple of dt = 700.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("t_end", "nan"), ("snapshot_every", "inf"),
                                        ("T", "nan"), ("T", "inf"), ("f", "nan"),
                                        ("xc", "-inf")])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    # nan and inf used to escape as a traceback or fail later as a run error
    cfg = tmp_path / "nonfinite.cfg"
    kept = [line for line in SMALL_CFG.splitlines() if line.split(" = ")[0] != key]
    cfg.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    assert harness.main(["run", "--config", str(cfg), "--output", str(out)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_reference_on_another_domain_is_rejected(tmp_path, small_cfg, capsys):
    ref = tmp_path / "ref"
    assert harness.main(["reference", "--config", str(small_cfg),
                         "--output", str(ref)]) == 0
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(SMALL_CFG + f"Lx = 3.0e7\nreference_path = {ref}\n")
    capsys.readouterr()
    assert harness.main(["run", "--config", str(cfg),
                         "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert ("reference grid SpectralGrid(nx=16, ny=16, Lx=40000000.0, Ly=40000000.0)"
            in err)
    assert "run grid SpectralGrid(nx=16, ny=16, Lx=30000000.0, Ly=40000000.0)" in err


def test_run_transforms_each_recorded_state_once(tmp_path, small_cfg, monkeypatch):
    # Trajectory.record transforms each recorded state's band stack once;
    # io and diagnostics look the name up too, so a transform there would be
    # counted as well
    calls = []

    def counted(grid, arr):
        calls.append(np.shape(arr))
        return to_physical(grid, arr)

    for mod in (diagnostics, pio, integrator):
        monkeypatch.setattr(mod, "to_physical", counted)
    out = tmp_path / "out"
    assert harness.main(["run", "--config", str(small_cfg), "--output", str(out)]) == 0
    assert list_snapshot_steps(str(out)) == [0, 1, 2, 3]
    assert calls == [(3, 16, 6)] * 4  # kb = ceil(16/3)


def test_run_failure_exits_1(tmp_path, small_cfg, capsys):
    cfg = tmp_path / "broken_ref.cfg"
    cfg.write_text(SMALL_CFG + f"reference_path = {tmp_path / 'nowhere'}\n")
    rc = harness.main(["run", "--config", str(cfg),
                       "--output", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("made", [False, True])
def test_reference_is_checked_before_the_first_step(tmp_path, small_cfg, capsys,
                                                    monkeypatch, command, made):
    # a missing reference, or one at another time (it ends at 1800 s, the
    # run at 1200 s), fails before any step runs or any output is written
    ref = tmp_path / "ref"
    if made:
        assert harness.main(["reference", "--config", str(small_cfg),
                             "--output", str(ref)]) == 0
    cfg = tmp_path / "case.cfg"
    cfg.write_text(SMALL_CFG.replace("t_end = 1800", "t_end = 1200")
                   + f"reference_path = {ref}\n")
    steps = []
    real_run = harness.run

    def spy(*args, **kwargs):
        steps.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(harness, "run", spy)
    out = tmp_path / "out"
    tlist = ["--tlist", "0,600,1200"] if command == "sweep" else []
    capsys.readouterr()
    assert harness.main([command, "--config", str(cfg), "--output", str(out),
                         *tlist]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if made:
        assert "reference time 1800.0 does not match run final time 1200.0" in err
    assert steps == []
    assert not out.exists()


def test_sweep_writes_csv_and_subdirs(tmp_path, small_cfg, capsys):
    ref = tmp_path / "ref"
    assert harness.main(["reference", "--config", str(small_cfg),
                         "--output", str(ref)]) == 0
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CFG.replace("M = 2\n", "M = auto\n")
                   + f"reference_path = {ref}\n")
    out = tmp_path / "sweep"
    rc = harness.main(["sweep", "--config", str(cfg), "--output", str(out),
                       "--tlist", "0,600"])
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["T_seconds"]) for r in rows] == [0.0, 600.0]
    assert [int(r["M"]) for r in rows] == [0, 4]  # auto node counts
    for row in rows:
        assert math.isfinite(float(row["l2_eta"]))
        assert float(row["wall_time_s"]) > 0.0
    for sub in ("T_0s", "T_600s"):
        assert (out / sub / "config.resolved").exists()
        assert (out / sub / "error_report.txt").exists()
        assert list_snapshot_steps(str(out / sub)) == [0, 1, 2, 3]
    echoed = parse_config((out / "T_600s" / "config.resolved").read_text())
    assert echoed.T == 600.0
    assert echoed.output_dir == str(out / "T_600s")


def test_sweep_requires_reference_and_tlist(tmp_path, small_cfg, capsys):
    assert harness.main(["sweep", "--config", str(small_cfg),
                         "--tlist", "0,600"]) == 2
    assert "reference_path" in capsys.readouterr().err


def test_sweep_rejects_windows_that_share_a_directory(tmp_path, small_cfg, capsys):
    # each window writes T_{T:g}s, so a repeated T, or two that agree to the
    # six digits of %g, would overwrite each other's outputs
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CFG + f"reference_path = {tmp_path / 'ref'}\n")
    out = tmp_path / "sweep"
    for tlist, clash in (("86400.21,86400.24,600", "T_86400.2s"), ("0,600,0", "T_0s")):
        assert harness.main(["sweep", "--config", str(cfg), "--output", str(out),
                             "--tlist", tlist]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and clash in err
        assert not out.exists()


def test_sweep_continues_after_a_failed_window(tmp_path, small_cfg, capsys,
                                               monkeypatch):
    ref = tmp_path / "ref"
    assert harness.main(["reference", "--config", str(small_cfg),
                         "--output", str(ref)]) == 0
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CFG + f"reference_path = {ref}\n")

    real_execute = harness._execute

    def flaky(run_cfg):
        if run_cfg.T == 600.0:
            raise RuntimeError("synthetic failure")
        return real_execute(run_cfg)

    monkeypatch.setattr(harness, "_execute", flaky)
    out = tmp_path / "sweep"
    rc = harness.main(["sweep", "--config", str(cfg), "--output", str(out),
                       "--tlist", "0,600,1200"])
    assert rc == 1
    assert "synthetic failure" in capsys.readouterr().err
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert math.isfinite(float(rows[0]["l2_eta"]))
    assert math.isnan(float(rows[1]["l2_eta"]))
    assert math.isfinite(float(rows[2]["l2_eta"]))


FAST_CHECKS = ("check_roundtrip", "check_small_grid_oracles", "check_exact_exp_group",
               "check_cheb_vs_exact", "check_steady_jet", "check_linear_step",
               "check_convergence")


def test_validate_fast_battery_passes(tmp_path, monkeypatch, capsys):
    # every check runs for real in tests/test_acceptance.py; this pins the
    # command: each fast check once, in order, drawing from the config's seed
    calls = []

    def stub(name):
        def check(*args):
            calls.append((name, args))
            return CheckResult(name=name, ok=True, detail="stubbed")
        return check

    for name in FAST_CHECKS:
        monkeypatch.setattr(validation, name, stub(name))
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 3\n")
    assert harness.main(["validate", "--level", "fast", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert [name for name, _args in calls] == list(FAST_CHECKS)
    rngs = [args[0] for _name, args in calls if args]
    assert len(rngs) == 5 and all(r is rngs[0] for r in rngs)
    assert np.array_equal(rngs[0].standard_normal(4),
                          np.random.default_rng(3).standard_normal(4))
    for name in FAST_CHECKS:
        assert any(line.startswith(name) and "PASS" in line
                   for line in out.splitlines()), name
    assert "7/7 checks passed" in out
    assert "FAIL" not in out


def test_validate_reports_failures(monkeypatch, capsys):
    def rigged(level, cfg):
        return [CheckResult(name="always wrong", ok=False, detail="synthetic")]

    monkeypatch.setattr(harness, "run_validation", rigged)
    assert harness.main(["validate"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_full_checks_the_configured_case(monkeypatch):
    cfg = parse_config("nx = 16\nny = 16\nb0 = 0\nf = 1.2e-4\nH = 4000\n"
                       "propagator = chebyshev\ndt = 600\nt_end = 1200\n"
                       "ref_dt = 300\nM = 2\n")
    seen = []
    real_run = validation.run

    def spy(state, config, params, t_end, **kwargs):
        seen.append((config, params))
        return real_run(state, config, params, t_end, **kwargs)

    monkeypatch.setattr(validation, "run", spy)
    result = validation.check_window_sweep(cfg)
    assert result.name == "averaging window has an interior optimum"
    # the fine reference is set up as `phaseswe reference` sets it up (exact,
    # ref_dt, M = 0); every window uses the configured propagator and resolves
    # M as `phaseswe sweep` does: 0 at T = 0, the configured 2 elsewhere
    ref_config = seen[0][0]
    assert (ref_config.propagator_spec.kind, ref_config.dt,
            ref_config.quadrature.M) == ("exact", 300.0, 0)
    windows = [config for config, _params in seen[1:]]
    assert [c.propagator_spec.kind for c in windows] == \
        ["chebyshev"] * len(validation.WINDOW_HOURS)
    assert [c.quadrature.M for c in windows] == \
        [0] + [2] * (len(validation.WINDOW_HOURS) - 1)
    assert {c.dt for c in windows} == {600.0}
    for _config, params in seen:
        assert (params.f, params.H) == (1.2e-4, 4000.0)
        assert not np.any(params.b)  # b0 = 0: no mountain


def test_build_problem_respects_flat_bottom():
    cfg = parse_config("b0 = 0\nnx = 16\nny = 16\n")
    _grid, _cfg, params, state = harness.build_problem(cfg)
    assert np.all(params.b == 0.0)
    assert state.t == 0.0
    rough = harness.build_problem(parse_config("nx = 16\nny = 16\n"))[2]
    assert float(np.max(np.abs(rough.b))) > 0.0
