"""The demo scripts import only names the package still has."""

import ast
import importlib
import importlib.util
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
