"""Run output files: binary field snapshots with sidecars, CSV series.

Snapshots are flat binary, 64-bit little-endian floats, row-major (C order)
over the (nx, ny) physical-space array, so the y index varies fastest.  One
file per field per snapshot plus a plain-text sidecar describing the layout.
All values are written with shortest round-trip float formatting, so output
bytes depend only on the computed numbers.
"""

from __future__ import annotations

import os

import numpy as np

from .diagnostics import ErrorReport, physical_fields
from .dynamics import State
# to_physical stays a module attribute: perfbench/tracing.py patches it here
from .grid import make_grid, to_physical, to_spectral  # noqa: F401

__all__ = [
    "snapshot_prefix",
    "write_snapshot",
    "read_snapshot_field",
    "list_snapshot_steps",
    "read_snapshot_state",
    "write_diagnostics",
    "write_error_report",
]

_FIELDS = ("u", "v", "eta")


def snapshot_prefix(step: int) -> str:
    return f"snap_{step:07d}"


def write_snapshot(outdir: str, step: int, state: State) -> None:
    """Write u, v, eta physical fields for one snapshot plus sidecars."""
    g = state.grid
    prefix = snapshot_prefix(step)
    phys = dict(zip(_FIELDS, physical_fields(state)))
    for name in _FIELDS:
        data = np.ascontiguousarray(phys[name], dtype="<f8")
        base = os.path.join(outdir, f"{prefix}_{name}")
        with open(base + ".f64", "wb") as fh:
            fh.write(data.tobytes(order="C"))
        sidecar = (
            f"field = {name}\n"
            f"step = {step}\n"
            f"time_seconds = {state.t!r}\n"
            f"nx = {g.nx}\n"
            f"ny = {g.ny}\n"
            f"Lx = {g.Lx!r}\n"
            f"Ly = {g.Ly!r}\n"
            "dtype = float64\n"
            "byte_order = little\n"
            "layout = row-major, shape (nx, ny), y index fastest\n"
        )
        with open(base + ".meta", "w", encoding="utf-8") as fh:
            fh.write(sidecar)


def _read_sidecar(path: str) -> dict[str, str]:
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, value = line.split("=", 1)
                meta[key.strip()] = value.strip()
    return meta


def read_snapshot_field(outdir: str, step: int, name: str) -> tuple[np.ndarray, dict]:
    """Read one snapshot field back as a float64 (nx, ny) array plus its metadata."""
    base = os.path.join(outdir, f"{snapshot_prefix(step)}_{name}")
    meta = _read_sidecar(base + ".meta")
    nx, ny = int(meta["nx"]), int(meta["ny"])
    with open(base + ".f64", "rb") as fh:
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != nx * ny:
        raise ValueError(f"snapshot {base}.f64 has {data.size} values, "
                         f"expected {nx * ny}")
    return data.reshape(nx, ny).astype(np.float64), meta


def list_snapshot_steps(outdir: str) -> list[int]:
    """Sorted snapshot step indices present in a run directory."""
    steps = set()
    for fname in os.listdir(outdir):
        if fname.startswith("snap_") and fname.endswith("_eta.meta"):
            steps.add(int(fname.split("_")[1]))
    return sorted(steps)


def read_snapshot_state(outdir: str, step: int | None = None) -> State:
    """Rebuild a spectral State from a written snapshot (default: the last one)."""
    if step is None:
        steps = list_snapshot_steps(outdir)
        if not steps:
            raise ValueError(f"no snapshots found in {outdir}")
        step = steps[-1]
    arrays = {}
    meta = {}
    for name in _FIELDS:
        arrays[name], meta = read_snapshot_field(outdir, step, name)
    grid = make_grid(int(meta["nx"]), int(meta["ny"]),
                     float(meta["Lx"]), float(meta["Ly"]))
    return State(grid=grid,
                 u=to_spectral(grid, arrays["u"]),
                 v=to_spectral(grid, arrays["v"]),
                 eta=to_spectral(grid, arrays["eta"]),
                 t=float(meta["time_seconds"]))


def write_diagnostics(outdir: str, times, steps, energy, mass, max_speed) -> None:
    """Per-snapshot diagnostics series as CSV."""
    path = os.path.join(outdir, "diagnostics.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_seconds,step,energy,mass,max_speed\n")
        for t, s, en, ms, sp in zip(times, steps, energy, mass, max_speed):
            fh.write(f"{t!r},{s},{en!r},{ms!r},{sp!r}\n")


def write_error_report(path: str, report: ErrorReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"l2_eta = {report.l2_eta!r}\n"
                 f"l2_u = {report.l2_u!r}\n"
                 f"linf_eta = {report.linf_eta!r}\n"
                 f"energy_drift = {report.energy_drift!r}\n"
                 f"mass_drift = {report.mass_drift!r}\n")
