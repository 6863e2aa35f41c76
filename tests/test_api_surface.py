"""Public API surface: every export resolves, the functions the benchmark traces by name keep existing, and every tolerance is a `ToleranceConfig`."""

import dataclasses
import inspect
from pathlib import Path

import qeckit
from qeckit import ToleranceConfig, channels, codes, fidelity, memory, recovery, serialize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_export_resolves():
    missing = [name for name in qeckit.__all__ if not hasattr(qeckit, name)]
    assert not missing, f"names in qeckit.__all__ that qeckit does not define: {missing}"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    _, targets = layers.targets(qeckit)
    missing = [name for module, attr, name, _ in targets if not callable(getattr(module, attr, None))]
    assert not missing, f"traced functions missing from qeckit: {missing}"


def test_every_tolerance_parameter_is_a_config():
    bare = []
    for module in (channels, codes, recovery, fidelity, memory, serialize):
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
