"""Regenerate the pinned data the benchmark checks seed 0 against.

    python3 perfbench/pin.py

Writes perfbench/pinned/: the fine reference's final snapshot (in the
package's snapshot format, since the sweep reads it back through
io.read_snapshot_state), the sweep's final physical states, and the resolved
node counts and sweep errors.  Run it only when the science is meant to
change, and say so in the change that commits the new files.
"""

import json
import os
import shutil

import numpy as np

import run


def main() -> None:
    outdir = os.path.join(run.HERE, ".out", f"pin-{os.getpid()}")
    shutil.rmtree(run.REFERENCE_DIR, ignore_errors=True)
    os.makedirs(run.REFERENCE_DIR)
    units = {}
    # the reference first: the sweep and chebyshev error reports read it
    for name in ("reference", "sweep", "chebyshev"):
        units[name] = run.run_unit(run.WORKLOADS[name], 0, outdir)
        bad = [win.error for win in units[name].windows if win.error]
        if bad:
            raise SystemExit(f"{name} failed:\n{bad[0]}")
        if name == "reference":
            final = units[name].windows[0].traj
            run.pio.write_snapshot(run.REFERENCE_DIR, final.steps[-1], final.states[-1])
    sweep = units["sweep"].windows
    np.save(os.path.join(run.PINNED, "sweep_states.npy"),
            np.stack([run.physical(win.traj.states[-1]) for win in sweep]))
    values = {
        "reference_step": units["reference"].windows[0].traj.steps[-1],
        "M": {name: [win.M for win in unit.windows] for name, unit in units.items()},
        "sweep_T": [win.T for win in sweep],
        "sweep_l2": [[win.report.l2_eta, win.report.l2_u] for win in sweep],
    }
    with open(os.path.join(run.PINNED, "values.json"), "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1)
        fh.write("\n")
    cheb = units["chebyshev"].windows[0]
    exact = sweep[run.WORKLOADS["sweep"].windows.index(cheb.T)]
    print(json.dumps(values, indent=1))
    print(f"chebyshev degree {cheb.degree}, state against the exact route "
          f"{run.rel_diff(run.physical(cheb.traj.states[-1]), run.physical(exact.traj.states[-1])):.3e}")


if __name__ == "__main__":
    main()
