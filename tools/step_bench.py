"""Compare a base revision against this checkout: step times, page faults and
perfbench pairs, written to one BENCH_*.json file.

Run from the root of a checkout:

    python3 tools/step_bench.py --base HEAD --out BENCH_example.json \
        --pairs chebyshev=10,reference=6,sweep=6

The base revision's `src/` and `perfbench/` are extracted with `git archive`
into a temporary directory; the change is this checkout's working tree.
Two measurements are made, each alternating base and change so that a drift
of the machine hits both sides alike:

- In-process steps.  A fresh interpreter per side and round builds the
  configured jet and mountain case at 32^2, 64^2 and 128^2 with dt = 1 h and
  times single-threaded steps at T = 0, 1 h and 8 h (exact route, auto M)
  and at T = 1 h on the Chebyshev route, after two warm-up steps: 6 rounds
  per side of 12 timed steps per case.  Each step records its wall time and
  its minor page faults (`ru_minflt`).  Next to the medians of all steps
  pooled, each round's median and minimum are kept per side and case.
  Round r of the base and of the change form a pair, and the change wins it
  when its round minimum is lower: on a shared machine a round's minimum
  follows the load less than its median does.
- perfbench pairs.  `perfbench/run.py --workload W --seconds 36 --trace 0`
  of each tree, the side that runs first alternating from pair to pair.

The output holds the machine line that perfbench prints, each side's median
and quartiles per metric, the change/base ratio of the medians, and how many
pairs (perfbench runs, or alternated step rounds) the change won (lower is
better for every metric).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRIDS = (32, 64, 128)
CASES = {  # name: (T in seconds, propagator)
    "T0": (0.0, "exact"),
    "T1h": (3600.0, "exact"),
    "T8h": (28800.0, "exact"),
    "cheb1h": (3600.0, "chebyshev"),
}
WARMUP_STEPS = 2
ROUNDS = 6             # alternating in-process rounds per side
STEPS_PER_ROUND = 12   # timed steps per case and round
PERFBENCH_SECONDS = 36


def measure_steps(src: str) -> dict:
    """Per grid and case: the M, the Chebyshev degree, and the wall time (ms)
    and minor page faults of each timed step, from the phaseswe under src."""
    sys.path.insert(0, src)
    from dataclasses import replace

    from phaseswe.config import default_config
    from phaseswe.harness import build_problem, step_config
    from phaseswe.integrator import step_averaged_ssprk3

    out = {}
    for n in GRIDS:
        for case, (T, propagator) in CASES.items():
            cfg = replace(default_config(), nx=n, ny=n, dt=3600.0, T=T, M=None,
                          propagator=propagator)
            grid, _cfg, params, state = build_problem(cfg)
            step_cfg = step_config(cfg, grid, params)
            spec = step_cfg.propagator_spec
            for _ in range(WARMUP_STEPS):
                state = step_averaged_ssprk3(state, step_cfg, params)
            ms, faults = [], []
            for _ in range(STEPS_PER_ROUND):
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                state = step_averaged_ssprk3(state, step_cfg, params)
                ms.append(1e3 * (time.perf_counter() - t0))
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            out[f"{n}/{case}"] = {
                "M": step_cfg.quadrature.M,
                "degree": spec.n_poly if spec.kind == "chebyshev" else 0,
                "ms": ms, "faults": faults,
            }
    return out


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(base: list[float], change: list[float], pairs=None) -> dict:
    """Both sides' median and quartiles, the ratio of the medians and, for
    paired runs, the number of pairs the change won (ties count for neither)."""
    out = {"base": summary(base), "change": summary(change)}
    b, c = out["base"]["median"], out["change"]["median"]
    out["ratio"] = c / b if b else None
    if pairs:
        out["wins"] = sum(1 for x, y in pairs if y < x)
        out["pairs"] = len(pairs)
    return out


def run_python(tree: str, args: list[str], env: dict) -> str:
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{args} in {tree} failed:\n{done.stderr}")
    return done.stdout


def step_rounds(trees: dict, env: dict) -> dict:
    raw = {side: [] for side in trees}
    for r in range(ROUNDS):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for side in order:
            out = run_python(ROOT, [os.path.abspath(__file__), "--worker",
                                    os.path.join(trees[side], "src")], env)
            raw[side].append(json.loads(out.splitlines()[-1]))
    result = {}
    for key in raw["base"][0]:
        sides = {side: [run[key] for run in raw[side]] for side in trees}
        result[key] = {
            "M": {side: runs[0]["M"] for side, runs in sides.items()},
            "degree": {side: runs[0]["degree"] for side, runs in sides.items()},
            "step_ms": pooled_rounds(sides, "ms"),
            "faults_per_step": pooled_rounds(sides, "faults"),
        }
    return result


def pooled_rounds(sides: dict, field: str) -> dict:
    """compare() of every step of every round, pooled per side, with each
    round's median and minimum per side and the rounds the change won on
    their minima, round r of each side forming a pair."""
    medians, minima = ({s: [fn(run[field]) for run in sides[s]]
                        for s in ("base", "change")}
                       for fn in (statistics.median, min))
    out = compare(*([x for run in sides[s] for x in run[field]] for s in ("base", "change")),
                  list(zip(minima["base"], minima["change"])))
    out["round_medians"] = medians
    out["round_minima"] = minima
    return out


def perfbench_pairs(trees: dict, workload: str, pairs: int, seed: int,
                    env: dict, machine: dict) -> dict:
    runs = []
    for i in range(pairs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        pair = {}
        for side in order:
            out = run_python(trees[side], [
                "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"], env)
            lines = out.splitlines()
            for line in lines:
                if line.startswith("machine ") and not machine:
                    machine.update(json.loads(line[len("machine "):]))
            result = json.loads(lines[-1])
            pair[side] = {"attempted": result["attempted"], "failed": result["failed"],
                          "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        pair["first"] = order[0]
        runs.append(pair)
    names = runs[0]["base"]["metrics"]
    return {
        "pairs": pairs, "seconds": PERFBENCH_SECONDS, "seed": seed,
        "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in trees},
        "failed": {s: sum(r[s]["failed"] for r in runs) for s in trees},
        "metrics": {name: compare([r["base"]["metrics"][name] for r in runs],
                                  [r["change"]["metrics"][name] for r in runs],
                                  [(r["base"]["metrics"][name], r["change"]["metrics"][name])
                                   for r in runs])
                    for name in names},
        "runs": runs,
    }


def extract(rev: str, dest: str) -> str:
    """The revision's src/ and perfbench/ under dest, through git archive."""
    archive = os.path.join(dest, "base.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev, "src", "perfbench"], cwd=ROOT,
                       stdout=fh, check=True)
    tree = os.path.join(dest, "base")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="base revision")
    parser.add_argument("--out", help="BENCH_*.json file to write")
    parser.add_argument("--pairs", default="",
                        help="perfbench pairs per workload, e.g. chebyshev=10,sweep=6")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(measure_steps(args.worker)))
        return 0
    if not args.out:
        parser.error("--out is required")
    # checked here, before the step rounds take their minutes
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    pairs = {}
    for part in filter(None, args.pairs.split(",")):
        name, _, count = part.partition("=")
        if name not in workloads:
            parser.error(f"--pairs: unknown workload {name!r}; BENCHMARK.json has "
                         f"{', '.join(workloads)}")
        if not count.strip().isdigit() or int(count) < 1:
            parser.error(f"--pairs: {name} needs a pair count of at least 1, "
                         f"got {count!r}")
        pairs[name] = int(count)

    # one numpy thread, as perfbench runs
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    machine: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract(args.base, tmp), "change": ROOT}
        steps = step_rounds(trees, env)
        bench = {name: perfbench_pairs(trees, name, count, args.seed, env, machine)
                 for name, count in pairs.items()}
    if not machine:
        machine = {"cpu": platform.processor(), "nproc": os.cpu_count(),
                   "python": platform.python_version()}
    dirty = bool(git("status", "--porcelain", "--", "src"))
    report = {
        "base": git("rev-parse", args.base),
        "change": git("rev-parse", "HEAD") + (" + working tree" if dirty else ""),
        "machine": machine,
        "steps": {"rounds": ROUNDS, "steps_per_round": STEPS_PER_ROUND,
                  "warmup_steps": WARMUP_STEPS, "dt_s": 3600.0, "cases": steps},
        "perfbench": bench,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
