"""The package's import graph points one way: down the stack of layers."""

import ast
from pathlib import Path

import phaseswe

# bottom to top; each module may import only modules before it
STACK = ("grid", "dynamics", "propagator", "averaging", "diagnostics", "integrator",
         "io", "config", "testcase", "oracles", "validation", "harness")

SRC = Path(phaseswe.__file__).parent


def _relative_imports(tree):
    """(node, imported module) for every `from .x import` and `from . import x`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            for name in names:
                yield node, name.split(".")[0]


def test_package_imports_sit_at_module_level():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        nested += [f"{path.name}:{node.lineno} imports .{name}"
                   for node, name in _relative_imports(tree) if id(node) not in top]
    assert not nested, nested


def test_each_module_imports_only_the_layers_below_it():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(STACK)
    upward = []
    for module in STACK:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        below = STACK[:STACK.index(module)]
        upward += [f"{module}.py:{node.lineno} imports .{name}"
                   for node, name in _relative_imports(tree) if name not in below]
    assert not upward, upward
