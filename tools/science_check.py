"""Check that this checkout computes the same science as a base revision, bit
for bit.

Run from the root of a checkout:

    python3 tools/science_check.py --base HEAD~

The base revision's `src/` is extracted with `git archive` into a temporary
directory; the change is this checkout's working tree.  Each tree then runs,
through its own command line with one worker:

- the default 15-day case's fine reference (`phaseswe reference`) and the
  six-window sweep against it (`phaseswe sweep --tlist` SWEEP_TLIST), the
  acceptance sweep of `tests/test_acceptance.py`.  Every output file of the
  two trees is compared bytewise, except the run's own paths in
  `config.resolved` (`output_dir`, `reference_path`) and `sweep.csv`'s last
  column, `wall_time_s`;
- two steps from the balanced jet of every case in STEP_CASES: the 64^2
  default domain and 12x18 and 18x12 grids with Lx != Ly, at T = 0, 1 h and
  8 h on the exact route and at T = 1 h on the Chebyshev route (dt = 1 h,
  auto M), and on the 12x18 grid at T = 1 h with the fixed M = 1 and 2, the
  windows of fewest nodes.  The final band stacks are compared with
  np.array_equal.

It prints one line per file and per step, "identical" or the largest
relative difference, and exits 0 only when every file and step is identical.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np

from step_bench import extract, git

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASE_CFG = """\
nx = 64
ny = 64
dt = 3600
T = 3600
t_end = 1296000
snapshot_every = 86400
ref_dt = 180
reference_path = {reference}
"""
SWEEP_TLIST = "0,1800,3600,7200,14400,28800"
PATH_KEYS = ("output_dir", "reference_path")
GRIDS = {  # name: (nx, ny, Lx, Ly); the case's other lengths follow the domain
    "64x64": (64, 64, 4.0e7, 4.0e7),
    "12x18": (12, 18, 1.5e6, 2.5e6),
    "18x12": (18, 12, 2.5e6, 1.5e6),
}
STEP_CASES = [(grid, T, route, None) for grid in GRIDS  # (grid, T, route, M)
              for T, route in ((0.0, "exact"), (3600.0, "exact"), (28800.0, "exact"),
                               (3600.0, "chebyshev"))]
STEP_CASES += [("12x18", 3600.0, "exact", M) for M in (1, 2)]
STEPS = 2


def step_key(grid: str, T: float, route: str, M: int | None) -> str:
    """The case's name; M = None, the auto node count, is left out."""
    return f"{grid}/T{T:g}/{route}" + ("" if M is None else f"/M{M}")


def serve_steps(src: str, out: str) -> None:
    """Worker: the final band stack of every step case, from the phaseswe
    under src, saved to out as one .npz entry per case.  The case is built
    through the calls perfbench pins, so that any base revision runs it."""
    sys.path.insert(0, src)
    from dataclasses import replace

    from phaseswe.config import default_config
    from phaseswe.harness import build_problem
    from phaseswe.integrator import make_step_config, step_averaged_ssprk3

    finals = {}
    for grid_name, T, route, M in STEP_CASES:
        nx, ny, Lx, Ly = GRIDS[grid_name]
        cfg = replace(default_config(), nx=nx, ny=ny, Lx=Lx, Ly=Ly, jet_width=-1.0,
                      r0=-1.0, xc=-1.0, yc=-1.0, dt=3600.0, T=T, M=M,
                      propagator=route)
        grid, _cfg, params, state = build_problem(cfg)
        step_cfg = make_step_config(grid, params, dt=cfg.dt, T=cfg.T, M=cfg.M,
                                    propagator=cfg.propagator, tol=cfg.tol)
        for _ in range(STEPS):
            state = step_averaged_ssprk3(state, step_cfg, params)
        finals[step_key(grid_name, T, route, M)] = state.q
    np.savez(out, **finals)


def run_tree(tree: str, work: str) -> str:
    """The tree's reference and sweep outputs, and its steps, under work."""
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cfg = os.path.join(work, "case.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CASE_CFG.format(reference=os.path.join(work, "ref")))
    for args in (["reference", "--output", os.path.join(work, "ref")],
                 ["sweep", "--output", os.path.join(work, "sweep"),
                  "--tlist", SWEEP_TLIST]):
        subprocess.run([sys.executable, "-m", "phaseswe.harness", *args,
                        "--config", cfg, "--workers", "1"],
                       cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--step-worker",
                    os.path.join(tree, "src"), os.path.join(work, "steps.npz")],
                   cwd=work, env=env, check=True)
    return work


def comparable(rel: str, data: bytes) -> bytes:
    """The bytes of an output file that must match: config.resolved without
    the run's paths, sweep.csv without its wall-clock column."""
    name = os.path.basename(rel)
    if name == "config.resolved":
        lines = data.decode().splitlines(keepends=True)
        return "".join(line for line in lines
                       if line.split("=")[0].strip() not in PATH_KEYS).encode()
    if name == "sweep.csv":
        lines = data.decode().splitlines()
        return "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()
    return data


def largest_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return float(np.max(np.abs(a - b))) / (scale or 1.0) if a.size else 0.0


def numbers(text: bytes) -> np.ndarray:
    """Every token of a text file that parses as a float, in order."""
    out = []
    for token in text.decode().replace(",", " ").replace("=", " ").split():
        try:
            out.append(float(token))
        except ValueError:
            pass
    return np.array(out)


def file_verdict(rel: str, base: bytes, change: bytes) -> str:
    base, change = comparable(rel, base), comparable(rel, change)
    if base == change:
        return "identical"
    if rel.endswith(".f64"):
        diff = largest_rel_diff(np.frombuffer(change, "<f8"), np.frombuffer(base, "<f8"))
    else:
        diff = largest_rel_diff(numbers(change), numbers(base))
    return f"differs, largest relative difference {diff:.3e}"


def compare_trees(base: str, change: str) -> list[tuple[str, str]]:
    """(name, verdict) for every output file of either tree and every step."""
    files = set()
    for top in (base, change):
        for part in ("ref", "sweep"):
            for dirpath, _dirs, names in os.walk(os.path.join(top, part)):
                files.update(os.path.relpath(os.path.join(dirpath, n), top) for n in names)
    verdicts = []
    for rel in sorted(files):
        paths = [os.path.join(top, rel) for top in (base, change)]
        missing = [side for side, p in zip(("base", "change"), paths)
                   if not os.path.isfile(p)]
        if missing:
            verdicts.append((rel, f"missing in {' and '.join(missing)}"))
            continue
        with open(paths[0], "rb") as fb, open(paths[1], "rb") as fc:
            verdicts.append((rel, file_verdict(rel, fb.read(), fc.read())))
    with np.load(os.path.join(base, "steps.npz")) as b, \
            np.load(os.path.join(change, "steps.npz")) as c:
        for key in (step_key(*case) for case in STEP_CASES):
            same = np.array_equal(b[key], c[key])
            verdicts.append((f"step {key}", "identical" if same else
                             f"differs, largest relative difference "
                             f"{largest_rel_diff(c[key], b[key]):.3e}"))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="base revision")
    parser.add_argument("--step-worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.step_worker:
        serve_steps(*args.step_worker)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        base_tree = extract(args.base, tmp)
        base = run_tree(base_tree, os.path.join(tmp, "base_out"))
        change = run_tree(ROOT, os.path.join(tmp, "change_out"))
        verdicts = compare_trees(base, change)
    width = max(len(name) for name, _ in verdicts)
    for name, verdict in verdicts:
        print(f"{name:<{width}}  {verdict}")
    differing = sum(verdict != "identical" for _, verdict in verdicts)
    n_steps = len(STEP_CASES)
    print(f"base {git('rev-parse', args.base)}, change {git('rev-parse', 'HEAD')}"
          f"{' + working tree' if git('status', '--porcelain', '--', 'src') else ''}: "
          f"{len(verdicts) - n_steps} files and {n_steps} steps compared, "
          f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
