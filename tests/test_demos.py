"""The demo scripts import only names the package still has, and the quick
ones run to completion.  Demo 04 is a one-minute sweep, so it is checked by
its imports only."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_DEMOS = [path for path in DEMOS if path.name[:2] in ("01", "02", "03")]


def phaseswe_imports(path):
    """(module, name) for every `from phaseswe... import name` in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "phaseswe":
            for alias in node.names:
                yield node.module, alias.name


def test_demo_imports_exist():
    assert DEMOS, "no demo scripts found"
    missing = []
    for path in DEMOS:
        for module, name in phaseswe_imports(path):
            mod = importlib.import_module(module)
            if not hasattr(mod, name) and \
                    importlib.util.find_spec(f"{module}.{name}") is None:
                missing.append(f"{path.name}: {module}.{name}")
    assert not missing, f"demos import missing names: {missing}"


@pytest.mark.parametrize("path", QUICK_DEMOS, ids=lambda path: path.name)
def test_quick_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
