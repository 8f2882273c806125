"""The benchmark under bench/ reaches into the package by name: every function
its tracer wraps, the bundle builders it imports and the attributes it reads
off the package must exist, and so must the result fields its hooks read, so a
rename fails here rather than in a benchmark run.  The bench files are parsed,
not imported."""

import ast
import importlib
from pathlib import Path

import numpy as np

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


def _result_attributes(hook: str) -> set[str]:
    """Attributes the tracer hook `hook` reads off the traced call's result."""
    method = next(
        node
        for node in ast.walk(_tree("tracer.py"))
        if isinstance(node, ast.FunctionDef) and node.name == hook
    )
    return {
        node.attr
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "result"
    }


def test_hook_fields_exist_on_results():
    # The per-layer counters read the endgame table, the local-to-global
    # attempts and MC fallbacks, and each inductive step's fiber-cap note.
    ed = entropic_doubling
    rng = np.random.default_rng(6)
    p, q = ed.random_dist(3, rng), ed.random_dist(3, rng)
    eta = min(0.5, ed.doubling_mass(p, q) / (ed.shannon_entropy(p) + ed.shannon_entropy(q)))
    t = ed.endgame(p, q, eta)
    assert _result_attributes("_on_endgame") == {"table"}
    assert len(t.table) == len(t.grid.fibers_x.labels) * len(t.grid.fibers_y.labels)
    assert {(row[0], row[1]) for row in t.table} == set(t.grid.v_table)

    zeta = 0.999 * t.grid.local_interaction[0] / (ed.shannon_entropy(p) + ed.shannon_entropy(q))
    res = ed.local_to_global(t.grid, zeta, np.random.default_rng(0))
    assert _result_attributes("_on_local_to_global") == {"attempts", "exact_expectations"}
    assert isinstance(res.attempts, int) and res.attempts >= 1
    assert isinstance(res.exact_expectations, bool)

    u = ed.uniform_on_subspace(ed.span([1, 2], 4))

    def solver(a, b):
        return ed.exhaustive_best_subspace(
            a, b, "statement_b", params={"eta": 0.35, "epsilon": 0.05}
        )

    tr = ed.inductive_step(u, u, 0.35, 0.05, solver, rng=np.random.default_rng(0))
    assert _result_attributes("_on_inductive_step") == {"steps"}
    case_steps = [s for s in tr.steps if s.kind in ("CASE1", "CASE2", "ENDGAME")]
    assert case_steps
    for step in case_steps:
        assert isinstance(step.note["fiber_cap"]["applied"], bool)
