"""Snapshot binary format, sidecars, CSV series, error report files."""

import csv

import numpy as np
import pytest

from phaseswe.diagnostics import ErrorReport
from phaseswe.grid import to_physical
from phaseswe.io import (list_snapshot_steps, read_snapshot_field,
                         read_snapshot_state, snapshot_prefix, write_snapshot,
                         write_diagnostics, write_error_report)
from phaseswe.oracles import band_limited_state


def test_snapshot_prefix_is_zero_padded():
    assert snapshot_prefix(0) == "snap_0000000"
    assert snapshot_prefix(360) == "snap_0000360"


def test_snapshot_roundtrip_bitwise(tmp_path, grid32, rng):
    state = band_limited_state(grid32, rng, t=7200.0)
    outdir = str(tmp_path)
    write_snapshot(outdir, 12, state)

    eta_phys = to_physical(grid32, state.eta)
    data, meta = read_snapshot_field(outdir, 12, "eta")
    assert np.array_equal(data, eta_phys)
    assert meta["field"] == "eta"
    assert meta["step"] == "12"
    assert float(meta["time_seconds"]) == 7200.0
    assert (int(meta["nx"]), int(meta["ny"])) == (32, 32)
    assert meta["dtype"] == "float64"
    assert meta["byte_order"] == "little"


def test_snapshot_binary_layout(tmp_path, grid32, rng):
    state = band_limited_state(grid32, rng)
    write_snapshot(str(tmp_path), 0, state)
    raw = (tmp_path / "snap_0000000_u.f64").read_bytes()
    assert len(raw) == 32 * 32 * 8
    u_scale = float(np.max(np.abs(state.u)))
    u_phys = to_physical(grid32, state.u, u_scale)
    assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(32, 32), u_phys)
    # row-major: the first ny values are the first x row
    assert np.array_equal(np.frombuffer(raw[:32 * 8], dtype="<f8"), u_phys[0])


def test_read_snapshot_state_rebuilds_spectral_state(tmp_path, grid32, rng):
    state = band_limited_state(grid32, rng, t=450.0)
    write_snapshot(str(tmp_path), 3, state)
    back = read_snapshot_state(str(tmp_path), 3)
    assert back.t == 450.0
    assert (back.grid.nx, back.grid.Lx) == (32, grid32.Lx)
    for a, b in ((back.u, state.u), (back.v, state.v), (back.eta, state.eta)):
        scale = float(np.max(np.abs(b)))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_list_snapshot_steps_and_latest(tmp_path, grid32, rng):
    outdir = str(tmp_path)
    for step in (5, 0, 12):
        write_snapshot(outdir, step, band_limited_state(grid32, rng, t=60.0 * step))
    assert list_snapshot_steps(outdir) == [0, 5, 12]
    assert read_snapshot_state(outdir).t == 720.0
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no snapshots"):
        read_snapshot_state(str(empty))


def test_diagnostics_csv_round_trips_floats(tmp_path):
    times = [0.0, 1800.0]
    steps = [0, 3]
    energy = [1.234567890123456e17, 1.2345678901234561e17]
    mass = [9.5e18, 9.5e18]
    speed = [20.0, 21.73205080756888]
    write_diagnostics(str(tmp_path), times, steps, energy, mass, speed)
    with open(tmp_path / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert [float(r["energy"]) for r in rows] == energy
    assert [float(r["max_speed"]) for r in rows] == speed
    assert [int(r["step"]) for r in rows] == steps


def test_error_report_file_format(tmp_path):
    report = ErrorReport(l2_eta=0.00625, l2_u=0.01964, linf_eta=0.011,
                         energy_drift=1.5e-9, mass_drift=0.0)
    path = tmp_path / "error_report.txt"
    write_error_report(str(path), report)
    values = {}
    for line in path.read_text().splitlines():
        key, _, raw = line.partition(" = ")
        values[key] = float(raw)
    assert values == {"l2_eta": 0.00625, "l2_u": 0.01964, "linf_eta": 0.011,
                      "energy_drift": 1.5e-9, "mass_drift": 0.0}
