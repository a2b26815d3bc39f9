"""Command line interface: run, reference, sweep, validate, exit codes."""

import csv
import math
import os

import numpy as np
import pytest

import phaseswe.harness as harness
import phaseswe.validation as validation
from phaseswe.config import parse_config
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
    assert "3 steps to t = 1800 s" in capsys.readouterr().out


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


def test_run_failure_exits_1(tmp_path, small_cfg, capsys):
    cfg = tmp_path / "broken_ref.cfg"
    cfg.write_text(SMALL_CFG + f"reference_path = {tmp_path / 'nowhere'}\n")
    rc = harness.main(["run", "--config", str(cfg),
                       "--output", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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


def test_sweep_continues_after_a_failed_window(tmp_path, small_cfg, capsys,
                                               monkeypatch):
    ref = tmp_path / "ref"
    assert harness.main(["reference", "--config", str(small_cfg),
                         "--output", str(ref)]) == 0
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL_CFG + f"reference_path = {ref}\n")

    real_execute = harness._execute

    def flaky(run_cfg, outdir, dt, T, M, propagator):
        if T == 600.0:
            raise RuntimeError("synthetic failure")
        return real_execute(run_cfg, outdir, dt, T, M, propagator)

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


def test_validate_fast_battery_passes(capsys):
    assert harness.main(["validate", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_validate_reports_failures(monkeypatch, capsys):
    def rigged(level, seed, workers, cfg):
        return [CheckResult(name="always wrong", ok=False, detail="synthetic")]

    monkeypatch.setattr(harness, "run_validation", rigged)
    assert harness.main(["validate"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_full_checks_the_configured_case(monkeypatch):
    cfg = parse_config("nx = 16\nny = 16\nb0 = 0\nf = 1.2e-4\nH = 4000\n"
                       "propagator = chebyshev\ndt = 600\nt_end = 1200\n"
                       "ref_dt = 300\n")
    seen = []
    real_run = validation.run

    def spy(state, config, params, t_end, **kwargs):
        seen.append((config.propagator_spec.kind, params))
        return real_run(state, config, params, t_end, **kwargs)

    monkeypatch.setattr(validation, "run", spy)
    result = validation.check_window_sweep(cfg, workers=1)
    assert result.name == "averaging window has an interior optimum"
    # the fine reference is exact, as in `phaseswe reference`; every window
    # uses the configured propagator
    kinds = [kind for kind, _params in seen]
    assert kinds == ["exact"] + ["chebyshev"] * len(validation.WINDOW_HOURS)
    for _kind, params in seen:
        assert (params.f, params.H) == (1.2e-4, 4000.0)
        assert not np.any(params.b)  # b0 = 0: no mountain


def test_build_problem_respects_flat_bottom():
    cfg = parse_config("b0 = 0\nnx = 16\nny = 16\n")
    _grid, _case, params, state = harness.build_problem(cfg)
    assert np.all(params.b == 0.0)
    assert state.t == 0.0
    rough = harness.build_problem(parse_config("nx = 16\nny = 16\n"))[2]
    assert float(np.max(np.abs(rough.b))) > 0.0
