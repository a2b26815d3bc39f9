"""Compare a base revision against this checkout: step times, page faults and
perfbench pairs, written to one BENCH_*.json file.

Run from the root of a checkout:

    python3 tools/step_bench.py --base HEAD --out BENCH_example.json \
        --pairs chebyshev=10,reference=6,sweep=6

The base revision's `src/` and `perfbench/` are extracted with `git archive`
into a temporary directory; the change is this checkout's working tree.
Two measurements are made, each alternating base and change so that a drift
of the machine hits both sides alike:

- Interleaved steps.  A pair of persistent worker processes, one per side,
  builds the configured jet and mountain case at 32^2, 64^2 and 128^2 with
  dt = 1 h, once per case, through the calls perfbench pins
  (harness.build_problem's 4-tuple and integrator.make_step_config(grid,
  params, ...)), so both revisions run the same code around the step:
  single-threaded steps at
  T = 0, 1 h and 8 h (exact route, auto M) and at T = 1 h on the Chebyshev
  route, after two warm-up steps, every timed step from the state they
  left.  The workers then take turns one timed step at a time, for
  STEP_PAIRS step pairs per case, the side that steps first flipping from
  pair to pair, while the other waits.  Each step records its wall time and
  its minor page faults (`ru_minflt`).  The two steps of a pair run back to
  back, under nearly the same load, so the change wins the pair when its
  step is faster; a load swing that lasts many steps hits both sides alike.
  One process can run a few percent faster than another of the same code
  for the whole of its life, so the comparison is made in WORKER_PAIRS
  fresh worker pairs: their step pairs and wins are pooled, and each
  worker pair's own median ratio is kept, so a lone fast or slow process
  shows as one outlying ratio.
- perfbench pairs.  `perfbench/run.py --workload W --seconds 36 --trace 0`
  of each tree, the side that runs first alternating from pair to pair.

The output holds the machine line that perfbench prints, each side's median
and quartiles per metric, the change/base ratio of the medians, and how many
pairs (perfbench runs, or step pairs) the change won (lower is better for
every metric).

With --node-threads there is no base: the tool times this checkout's steps
against the number of node threads instead, the evidence for
integrator.MIN_THREADED_POINTS:

    python3 tools/step_bench.py --node-threads --out BENCH_example.json

In each of WORKER_PAIRS fresh processes, the case is built at 32^2, 48^2,
64^2, 96^2 and 128^2 with dt = 1 h, T = 1 h and 8 h (exact route, auto M).
Single steps are then taken with 1, 2 and 8 node threads in turn, the
first width rotating from round to round, THREAD_ROUNDS rounds per case:
one thread is the serial node loop, and 2 or 8 pass step_averaged_ssprk3 a
ThreadPoolExecutor of that width that lives as long as the process.  Per
case and width the output holds the median and quartiles of the step time,
the ratio of its median to the serial median, the rounds it beat the
serial step of the same round, and each process's own median ratio.
"""

from __future__ import annotations

import argparse
import concurrent.futures
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
STEP_PAIRS = 60        # alternated timed steps per side and case, per worker pair
WORKER_PAIRS = 3       # fresh base/change worker pairs per step comparison
PERFBENCH_SECONDS = 36
THREAD_GRIDS = (32, 48, 64, 96, 128)
THREAD_CASES = {"T1h": 3600.0, "T8h": 28800.0}  # name: T in seconds
THREAD_WIDTHS = (1, 2, 8)  # node threads; 1 is the serial node loop
THREAD_ROUNDS = 16         # timed steps per width and case, per process


def serve_steps(src: str) -> None:
    """Worker: build every case from the phaseswe under src, print one JSON
    line of each case's M and Chebyshev degree, then for each case name read
    from stdin time one step of it and print its wall time (ms) and minor
    page faults as one JSON line, until stdin closes.  Every timed step of a
    case starts from the state after its warm-up steps: a step's cost does
    not depend on the values, and a long unaveraged run at dt = 1 h does
    not stay finite."""
    sys.path.insert(0, src)
    from dataclasses import replace

    from phaseswe.config import default_config
    from phaseswe.harness import build_problem
    from phaseswe.integrator import make_step_config, step_averaged_ssprk3

    cases, meta = {}, {}
    for n in GRIDS:
        for case, (T, propagator) in CASES.items():
            cfg = replace(default_config(), nx=n, ny=n, dt=3600.0, T=T, M=None,
                          propagator=propagator)
            grid, _cfg, params, state = build_problem(cfg)
            step_cfg = make_step_config(grid, params, dt=cfg.dt, T=cfg.T, M=cfg.M,
                                        propagator=cfg.propagator, tol=cfg.tol)
            for _ in range(WARMUP_STEPS):
                state = step_averaged_ssprk3(state, step_cfg, params)
            key = f"{n}/{case}"
            cases[key] = (state, step_cfg, params)
            spec = step_cfg.propagator_spec
            meta[key] = {"M": step_cfg.quadrature.M,
                         "degree": spec.n_poly if spec.kind == "chebyshev" else 0}
    print(json.dumps(meta), flush=True)
    for line in sys.stdin:
        args = cases[line.strip()]
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        step_averaged_ssprk3(*args)
        ms = 1e3 * (time.perf_counter() - t0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        print(json.dumps({"ms": ms, "faults": faults}), flush=True)


def serve_widths(src: str) -> None:
    """Worker: time THREAD_ROUNDS rounds of single steps of every thread case
    from the phaseswe under src, one step per width a round, and print one
    JSON line: numpy's version and, per case, M and each width's step
    times (ms)."""
    sys.path.insert(0, src)
    from dataclasses import replace

    import numpy as np

    from phaseswe.config import default_config, step_config
    from phaseswe.integrator import step_averaged_ssprk3
    from phaseswe.testcase import balanced_jet, physics_params

    pools = {w: concurrent.futures.ThreadPoolExecutor(max_workers=w)
             for w in THREAD_WIDTHS if w > 1}
    out = {}
    try:
        for n in THREAD_GRIDS:
            for case, T in THREAD_CASES.items():
                cfg = replace(default_config(), nx=n, ny=n, dt=3600.0, T=T, M=None)
                params, state = physics_params(cfg), balanced_jet(cfg)
                step_cfg = step_config(cfg, params)
                for _ in range(WARMUP_STEPS):
                    state = step_averaged_ssprk3(state, step_cfg, params)
                    for pool in pools.values():
                        step_averaged_ssprk3(state, step_cfg, params, pool)
                ms = {w: [] for w in THREAD_WIDTHS}
                for i in range(THREAD_ROUNDS):
                    k = i % len(THREAD_WIDTHS)
                    for w in THREAD_WIDTHS[k:] + THREAD_WIDTHS[:k]:
                        t0 = time.perf_counter()
                        step_averaged_ssprk3(state, step_cfg, params, pools.get(w))
                        ms[w].append(1e3 * (time.perf_counter() - t0))
                out[f"{n}/{case}"] = {"M": step_cfg.quadrature.M, "ms": ms}
    finally:
        for pool in pools.values():
            pool.shutdown()
    print(json.dumps({"numpy": np.__version__, "cases": out}), flush=True)


def node_thread_widths(env: dict) -> tuple[str, dict]:
    """numpy's version and, per thread case, M and per width the step times
    pooled over WORKER_PAIRS fresh processes, their ratio to the serial
    step, the rounds won against it, and each process's own median ratio."""
    replies = [json.loads(run_python(ROOT, [os.path.abspath(__file__), "--width-worker",
                                            os.path.join(ROOT, "src")], env))
               for _ in range(WORKER_PAIRS)]
    procs = [reply["cases"] for reply in replies]
    result = {}
    for key in procs[0]:
        serial = [t for p in procs for t in p[key]["ms"]["1"]]
        widths = {}
        for w in THREAD_WIDTHS[1:]:
            times = [t for p in procs for t in p[key]["ms"][str(w)]]
            widths[str(w)] = {
                **compare(serial, times, list(zip(serial, times))),
                "per_process_ratio": [statistics.median(p[key]["ms"][str(w)])
                                      / statistics.median(p[key]["ms"]["1"])
                                      for p in procs]}
        result[key] = {"M": procs[0][key]["M"], "serial": summary(serial),
                       "threads": widths}
    return replies[0]["numpy"], result


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


def _reply(proc: subprocess.Popen, side: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"the {side} step worker exited (code {proc.wait()})")
    return json.loads(line)


def _one_worker_pair(trees: dict, env: dict) -> tuple[dict, dict]:
    """Both sides' case metadata, and per case and side the replies of
    STEP_PAIRS interleaved steps, from one fresh pair of workers."""
    procs = {side: subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker",
         os.path.join(tree, "src")], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE) for side, tree in trees.items()}
    try:
        meta = {side: _reply(proc, side) for side, proc in procs.items()}
        steps = {}
        for key in meta["base"]:
            steps[key] = {side: [] for side in procs}
            for i in range(STEP_PAIRS):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    procs[side].stdin.write(key + "\n")
                    procs[side].stdin.flush()
                    steps[key][side].append(_reply(procs[side], side))
        return meta, steps
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()


def step_pairs(trees: dict, env: dict) -> dict:
    """Per case: both sides' M and degree, compare() of their step times and
    page faults pooled over WORKER_PAIRS fresh worker pairs of STEP_PAIRS
    interleaved step pairs each, and each worker pair's own median ratio
    and wins."""
    rounds = [_one_worker_pair(trees, env) for _ in range(WORKER_PAIRS)]
    meta = rounds[0][0]
    result = {}
    for key in meta["base"]:
        # per field, the base's and the change's values, pair i at index i
        sides = {field: [[s[field] for _meta, steps in rounds for s in steps[key][side]]
                         for side in ("base", "change")]
                 for field in ("ms", "faults")}
        per_worker_pair = []
        for _meta, steps in rounds:
            base, change = ([s["ms"] for s in steps[key][side]] for side in ("base", "change"))
            per_worker_pair.append({
                "ratio": statistics.median(change) / statistics.median(base),
                "wins": sum(1 for x, y in zip(base, change) if y < x)})
        result[key] = {
            "M": {side: meta[side][key]["M"] for side in meta},
            "degree": {side: meta[side][key]["degree"] for side in meta},
            "step_ms": compare(*sides["ms"], list(zip(*sides["ms"]))),
            "faults_per_step": compare(*sides["faults"], list(zip(*sides["faults"]))),
            "worker_pairs": per_worker_pair,
        }
    return result


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
    parser.add_argument("--node-threads", action="store_true",
                        help="time this checkout's steps with 1, 2 and 8 node "
                             "threads instead of comparing against --base")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--width-worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        serve_steps(args.worker)
        return 0
    if args.width_worker:
        serve_widths(args.width_worker)
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
    if args.node_threads:
        if args.pairs:
            parser.error("--pairs compares against --base; --node-threads has no base")
        numpy_version, cases = node_thread_widths(env)
        report = {
            "tree": git("rev-parse", "HEAD") + (
                " + working tree" if git("status", "--porcelain", "--", "src") else ""),
            "machine": {"cpu": platform.processor(), "nproc": os.cpu_count(),
                        "cores_available": len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
                        "python": platform.python_version(), "numpy": numpy_version},
            "steps": {"rounds": THREAD_ROUNDS, "processes": WORKER_PAIRS,
                      "warmup_steps": WARMUP_STEPS, "dt_s": 3600.0,
                      "widths": list(THREAD_WIDTHS), "cases": cases},
        }
        write_json(args.out, report)
        return 0
    machine: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract(args.base, tmp), "change": ROOT}
        steps = step_pairs(trees, env)
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
        "steps": {"pairs": STEP_PAIRS, "worker_pairs": WORKER_PAIRS,
                  "warmup_steps": WARMUP_STEPS, "dt_s": 3600.0, "cases": steps},
        "perfbench": bench,
    }
    write_json(args.out, report)
    return 0


def write_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
