"""The functions the benchmark's tracer replaces still exist where it looks.

perfbench/tracing.py traces each layer by setting a wrapper on the module
that calls it; a renamed or moved function would make that fail, or trace
nothing, and only the benchmark's own smoke test would notice.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists():
    tracing = load_tracing()
    patches = tracing.layer_patches(tracing.Tracer())
    assert patches
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in patches
               if not callable(getattr(mod, attr, None))]
    assert not missing, f"tracer patch targets missing: {missing}"
