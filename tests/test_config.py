"""Flat key = value configuration: parsing, validation, round-trip echo."""

import dataclasses

import pytest

from phaseswe.config import (ConfigError, RunConfig, default_config,
                             format_config, load_config, parse_config)
from phaseswe.grid import SpectralGrid


def test_defaults_are_resolved():
    cfg = default_config()
    assert (cfg.nx, cfg.ny) == (64, 64)
    assert cfg.Lx == cfg.Ly == 4.0e7
    assert cfg.jet_width == 4.0e7 / 16.0
    assert cfg.r0 == 4.0e7 / 9.0
    assert cfg.xc == 2.0e7
    assert cfg.yc == 1.0e7
    assert cfg.M is None
    assert cfg.propagator == "exact"
    assert cfg.dt == 3600.0
    assert cfg.t_end == 1296000.0
    assert cfg.ref_dt == 180.0


def test_parse_overrides_comments_and_blanks():
    text = """
    # grid
    nx = 32
    ny = 32

    dt = 1800       # step
    T = 0
    M = 0
    t_end = 3600
    snapshot_every = 0
    """
    cfg = parse_config(text)
    assert cfg.nx == 32
    assert cfg.dt == 1800.0
    assert cfg.T == 0.0
    assert cfg.M == 0
    # untouched keys keep their defaults
    assert cfg.H == 5960.0


def test_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'speed'"):
        parse_config("nx = 64\nspeed = 3\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'nx'"):
        parse_config("nx = 64\nny = 64\nnx = 32\n")
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="line 1: key 'nx' needs an integer"):
        parse_config("nx = sixty\n")
    with pytest.raises(ConfigError, match="needs a number"):
        parse_config("dt = soon\n")
    with pytest.raises(ConfigError, match="'M' needs an integer"):
        parse_config("M = sometimes\n")


def test_m_auto_token():
    assert parse_config("M = auto\n").M is None
    assert parse_config("M = 6\n").M == 6


@pytest.mark.parametrize("text,match", [
    ("nx = 9\n", "nx"),
    ("ny = 4\n", "ny"),
    ("dt = 0\n", "dt"),
    ("H = -5\n", "H"),
    ("b0 = 9000\n", "b0"),
    ("r0 = 3e7\n", "r0"),
    ("r0 = 0\n", "r0"),
    ("jet_width = 0\n", "jet_width"),
    ("T = -10\n", "T"),
    ("M = -2\n", "M"),
    ("T = 0\nM = 3\n", "T = 0"),
    ("propagator = magic\n", "propagator"),
    ("t_end = 5000\n", "t_end"),
    ("snapshot_every = 5000\n", "snapshot_every"),
    ("workers = 0\n", "workers"),
])
def test_validation_rejects_bad_values(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_format_parse_round_trip():
    cfg = default_config()
    assert parse_config(format_config(cfg)) == cfg

    custom = dataclasses.replace(cfg, dt=123.456, t_end=123.456 * 7, M=5,
                                 T=500.0, propagator="chebyshev",
                                 snapshot_every=0.0, tol=3.0e-9,
                                 output_dir="some/dir", reference_path="ref")
    assert parse_config(format_config(custom)) == custom
    # a second round trip is byte-identical
    assert format_config(parse_config(format_config(custom))) == format_config(custom)


@pytest.mark.parametrize("key,value", [
    ("output_dir", "runs/#3"),
    ("output_dir", " runs"),
    ("reference_path", "ref "),
    ("output_dir", "runs\nnx = 8"),
    ("reference_path", "a\rb"),
    ("propagator", "exact\n"),
])
def test_values_that_would_not_parse_back_are_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(default_config(), **{key: value})


def test_inner_spaces_round_trip():
    cfg = dataclasses.replace(default_config(), output_dir="my runs/T 1",
                              reference_path="ref dir")
    assert parse_config(format_config(cfg)) == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.cfg"))
    path = tmp_path / "ok.cfg"
    path.write_text("nx = 16\nny = 16\n")
    assert load_config(str(path)).nx == 16


def test_construction_and_replace_are_validated():
    with pytest.raises(ConfigError, match="nx"):
        RunConfig(nx=9)
    with pytest.raises(ConfigError, match="workers"):
        dataclasses.replace(default_config(), workers=0)


def test_grid_rules_are_the_grids_with_the_old_text():
    # SpectralGrid's checks of nx, ny, Lx and Ly, raised as ConfigError with
    # the config's old messages, in the config's old order (nx before ny
    # before Lx, and Lx before g)
    for build, text in ((lambda: RunConfig(nx=7), "nx must be even and >= 8, got 7"),
                        (lambda: RunConfig(ny=4, nx=7), "nx must be even and >= 8, got 7"),
                        (lambda: RunConfig(ny=4), "ny must be even and >= 8, got 4"),
                        (lambda: parse_config("Lx = -1\n"), "Lx must be positive, got -1.0"),
                        (lambda: RunConfig(Ly=0.0, g=-1.0), "Ly must be positive, got 0.0")):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == f"invalid config: {text}"
    cfg = RunConfig(nx=32, ny=16, Lx=2.0e7, Ly=1.0e7)
    assert cfg.grid == SpectralGrid(32, 16, 2.0e7, 1.0e7)
    assert dataclasses.replace(cfg, nx=48).grid.nx == 48
    # the grid is derived, not a setting: the echo and == ignore it
    assert "grid" not in format_config(cfg)
    assert parse_config(format_config(cfg)) == cfg


def test_empty_output_dir_is_a_config_error(tmp_path, monkeypatch, capsys):
    # an empty output_dir used to run every step and only then fail in
    # os.makedirs(''), exit 1; now each writing command exits 2 before a step
    from phaseswe import harness

    cfg = tmp_path / "empty_out.cfg"
    cfg.write_text("nx = 8\nny = 8\ndt = 3600\nt_end = 3600\noutput_dir =\n"
                   "reference_path = ref\n")
    monkeypatch.chdir(tmp_path)
    for command in (["run"], ["reference"], ["sweep", "--tlist", "0"]):
        assert harness.main([*command, "--config", str(cfg)]) == 2
        assert "nonempty output_dir" in capsys.readouterr().err
        assert harness.main([*command, "--output", ""]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["empty_out.cfg"]
