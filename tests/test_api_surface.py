"""Public API surface: every export resolves, the functions the benchmark traces by name keep existing, every public function has a caller, and every tolerance is a `ToleranceConfig`."""

import ast
import dataclasses
import inspect
from pathlib import Path

import qeckit
from qeckit import ToleranceConfig, channels, codes, fidelity, linalg, memory, recovery, serialize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(qeckit.__file__).resolve().parent


def test_every_export_resolves():
    missing = [name for name in qeckit.__all__ if not hasattr(qeckit, name)]
    assert not missing, f"names in qeckit.__all__ that qeckit does not define: {missing}"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    _, targets = layers.targets(qeckit)
    missing = [name for module, attr, name, _ in targets if not callable(getattr(module, attr, None))]
    assert not missing, f"traced functions missing from qeckit: {missing}"


def _references(module: str, tree: ast.Module) -> set:
    """The (module, name) pairs of package functions that ``module``'s code refers to, its own recursion aside.

    A bare name counts when the module defines it or imports it from a
    package module; ``alias.name`` counts when ``alias`` is a package module
    (``from . import serialize as ser``). ``np.kron`` is no reference to a
    package ``kron``.
    """
    names = {node.name: (module, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    names[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names:
                ref = names[node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                ref = (modules[node.value.id], node.attr)
            else:
                continue
            if ref != (module, getattr(top, "name", None)):
                found.add(ref)
    return found


def test_every_public_function_has_a_caller(monkeypatch):
    """A public module-level function is called by package code (a re-export in ``__init__`` is none), traced by the benchmark, or a catalog entry."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    traced = {(module, name) for module, names in layers._TARGETS.items() for name in names}
    kept = traced.union(*(_references(module, tree) for module, tree in trees.items()))
    uncalled = [
        f"{module}.{node.name}"
        for module, tree in sorted(trees.items())
        if module != "catalog"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and (module, node.name) not in kept
    ]
    assert not uncalled, f"public functions that no package module calls and the benchmark does not trace: {uncalled}"


def test_every_tolerance_parameter_is_a_config():
    bare = []
    for module in (channels, codes, linalg, recovery, fidelity, memory, serialize):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn, eval_str=True).parameters.values():
                if param.name in ("rank_tol", "superop_tol") or (
                    param.name == "tol" and param.annotation is not ToleranceConfig
                ):
                    bare.append(f"{module.__name__}.{name}({param.name})")
    assert not bare, f"tolerances that bypass ToleranceConfig: {bare}"


def test_the_tolerance_config_has_one_field():
    assert tuple(f.name for f in dataclasses.fields(ToleranceConfig)) == ("check",)


SPHERE_SOLVER = {"_bloch_form", "_min_on_sphere", "_sphere_form"}


def test_only_fidelity_reaches_the_sphere_solver():
    """Every worst case goes through ``fidelity._minima``; no other module forms or solves a Bloch form itself."""
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "fidelity":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                else {node.id} if isinstance(node, ast.Name)
                else {node.attr} if isinstance(node, ast.Attribute)
                else set()
            )
            if names & SPHERE_SOLVER:
                users.append(path.stem)
                break
    assert not users, f"modules other than fidelity that refer to the sphere solver: {users}"
