"""The benchmark under bench/ reaches into the package by name: every function
its tracer wraps, the bundle builders it imports and the attributes it reads
off the package must exist, so a rename fails here rather than in a benchmark
run.  The bench files are parsed, not imported."""

import ast
import importlib
from pathlib import Path

import entropic_doubling

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


def test_traced_functions_exist():
    tree = _tree("tracer.py")
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    )
    assert traced
    for module, function, _prefix in traced:
        mod = importlib.import_module(f"entropic_doubling.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
    assert hasattr(entropic_doubling.Dist, "__post_init__")
    # The tracer counts a failed inductive step by these error classes.
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "errors":
            assert hasattr(entropic_doubling.errors, node.attr), f"errors.{node.attr}"


def test_workload_imports_and_package_attributes_exist():
    tree = _tree("workloads.py")
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entropic_doubling")
        for alias in node.names
    ]
    assert ("entropic_doubling.certify", "solve_bundle") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    attributes = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ed"
    }
    assert "analyze_set" in attributes
    for name in attributes:
        assert hasattr(entropic_doubling, name), f"entropic_doubling.{name}"
