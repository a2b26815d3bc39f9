"""Flat key = value run configuration: parsing, defaults, validation, echo.

The file format is one `key = value` per line, with blank lines and `#`
comments ignored.  Every key has a default; unknown keys, malformed lines,
and duplicates are errors that name the line.  The resolved configuration is
echoed to `config.resolved` in the output directory in a form that parses
back to the identical RunConfig.  RunConfig is the one home of a run's
settings, the experiment's case included, and validates itself: the fine
reference and each sweep window are derived from it by reference_config and
window_config, and step_config builds its stepper.  Every rule that SpectralGrid,
the stepper's parts or integrator.check_schedule owns is raised as ConfigError.
workers is the most threads a step's averaging nodes may run on;
integrator.node_threads picks the count from it, the cores, the grid and
the window's nodes, so no output depends on it."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

from .averaging import Quadrature
from .dynamics import PhysicsParams
from .grid import SpectralGrid
from .integrator import StepConfig, check_schedule, make_step_config
from .propagator import DEFAULT_CHEB_TOL, PropagatorSpec

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config",
           "format_config", "default_config", "reference_config", "window_config",
           "step_config"]


class ConfigError(ValueError):
    """Invalid configuration file or values (CLI exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Run settings, resolved and validated (ConfigError) whenever built,
    parsed or replaced; lengths in metres, times in seconds."""

    nx: int = 64
    ny: int = 64
    Lx: float = 4.0e7
    Ly: float = 4.0e7
    f: float = 1.0e-4
    g: float = 9.8
    H: float = 5960.0
    u0: float = 20.0
    jet_width: float = -1.0      # -1 resolves to Ly / 16
    b0: float = 2000.0           # 0 is a flat bottom
    r0: float = -1.0             # -1 resolves to Ly / 9
    xc: float = -1.0             # -1 resolves to Lx / 2
    yc: float = -1.0             # -1 resolves to Ly / 4
    dt: float = 3600.0
    T: float = 3600.0
    M: int | None = None         # None means auto from T and the fastest mode
    propagator: str = "exact"
    tol: float = DEFAULT_CHEB_TOL
    t_end: float = 1296000.0     # 15 days
    snapshot_every: float = 86400.0
    workers: int = 1
    output_dir: str = "out"
    seed: int = 0
    ref_dt: float = 180.0
    reference_path: str = ""

    def __post_init__(self):
        def bad(msg: str):
            raise ConfigError(f"invalid config: {msg}")

        # nan and inf would slip past the checks below; the echo must parse back
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                bad(f"{name} must be finite, got {value}")
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or "".join(value.splitlines()) != value):
                bad(f"{name} = {value!r} holds '#', a line break or outer whitespace")

        # sentinel -1 means "derive from the domain size"
        for name, derived in (("jet_width", self.Ly / 16.0), ("r0", self.Ly / 9.0),
                              ("xc", 0.5 * self.Lx), ("yc", 0.25 * self.Ly)):
            if getattr(self, name) < 0:
                object.__setattr__(self, name, derived)
        try:
            self.grid  # SpectralGrid checks nx, ny, Lx and Ly, in that order
        except ValueError as exc:
            bad(str(exc))
        for name in ("g", "H", "u0", "jet_width", "r0", "ref_dt"):
            if not getattr(self, name) > 0:
                bad(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.b0 < self.H:
            bad(f"need 0 <= b0 < H, got b0 = {self.b0}, H = {self.H}")
        if not self.r0 < min(self.Lx, self.Ly) / 2.0:
            bad(f"r0 = {self.r0} must be below half the domain size")
        try:
            # M = auto admits any node count; the schedule's checks divide by dt
            StepConfig(self.dt, Quadrature(self.T, self.M or 0),
                       PropagatorSpec(self.propagator, tol=self.tol))
            check_schedule(self.dt, self.t_end, self.snapshot_every, self.workers)
        except ValueError as exc:
            bad(str(exc))

    @cached_property
    def grid(self) -> SpectralGrid:
        """The run's grid, SpectralGrid(nx, ny, Lx, Ly), built once per config."""
        return SpectralGrid(self.nx, self.ny, self.Lx, self.Ly)


_DEFAULTS = {fld.name: fld.default for fld in fields(RunConfig)}


def _convert(key: str, raw: str, where: str):
    """Parse raw as the type of the key's default; M (default auto) is an int."""
    default = _DEFAULTS[key]
    if isinstance(default, str):
        return raw
    if key == "M" and raw == "auto":
        return None
    kind = float if isinstance(default, float) else int
    try:
        return kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}: key {key!r} needs {noun}, got {raw!r}") from None


def parse_config(text: str, where: str = "config") -> RunConfig:
    """Parse flat key = value text into a validated RunConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where} line {lineno}: expected key = value, "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{where} line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where} line {lineno}: duplicate key {key!r}")
        values[key] = _convert(key, raw, f"{where} line {lineno}")
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, where=path)


def default_config() -> RunConfig:
    """The all-defaults configuration, fully resolved."""
    return RunConfig()


def reference_config(cfg: RunConfig) -> RunConfig:
    """The unaveraged fine-step reference: T = 0, M = 0, exact, dt = ref_dt."""
    return replace(cfg, dt=cfg.ref_dt, T=0.0, M=0, propagator="exact")


def window_config(cfg: RunConfig, T: float) -> RunConfig:
    """The run at window half-width T: a fixed M applies to T > 0 only (T = 0
    admits just M = 0), and M = auto stays auto."""
    M = cfg.M if cfg.M is None or T > 0 else 0
    return replace(cfg, T=T, M=M)


def step_config(cfg: RunConfig, params: PhysicsParams) -> StepConfig:
    """The configured stepper: dt, window T and M, propagator and tol."""
    return make_step_config(params.grid, params, dt=cfg.dt, T=cfg.T, M=cfg.M,
                            propagator=cfg.propagator, tol=cfg.tol)


def format_config(cfg: RunConfig) -> str:
    """Render a RunConfig as flat key = value text that parses back identically."""
    lines = []
    for fld in fields(RunConfig):
        value = getattr(cfg, fld.name)
        if fld.name == "M":
            text = "auto" if value is None else str(value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{fld.name} = {text}")
    return "\n".join(lines) + "\n"
