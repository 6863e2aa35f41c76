"""The functions the benchmark's traced run wraps by name must keep existing."""

from pathlib import Path

import qeckit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    _, targets = layers.targets(qeckit)
    missing = [name for module, attr, name, _ in targets if not callable(getattr(module, attr, None))]
    assert not missing, f"traced functions missing from qeckit: {missing}"
