"""A phase3 CLI pass under the benchmark's tracer: every span counter must bind.

The traced benchmark run wraps qeckit functions by name and reads their
arguments by parameter name, so renaming a parameter breaks it without
breaking any library test. This pass runs each command kind the benchmark
runs, on the smallest phase code, with the same tracer installed.
"""

from pathlib import Path

import qeckit
from qeckit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FAMILY = "decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1"
NOISE = "decoherence_pm_basis:gamma=0.1,qubits=3"


def _top(spans, span):
    while span.parent is not None:
        span = spans[span.parent]
    return span


def test_phase3_cli_pass_binds_every_counter(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    recovery = str(tmp_path / "recovery3.json")
    commands = [
        ["check", "phase3", FAMILY],
        ["synthesize", "phase3", FAMILY, "--out", recovery],
        ["fidelity", "phase3", NOISE, "--recovery", recovery, "--entangled"],
        ["memory", "phase3", NOISE, "--recovery", recovery, "--cycles", "2"],
        ["memory", "phase3", "--compare", "--gamma", "0.05", "--cycles", "2"],
    ]
    modules, targets = layers.targets(qeckit)
    tracer = Tracer(memory=False)
    tracer.install(modules, targets)
    try:
        codes = [cli.main(argv) for argv in commands]  # a counter that cannot bind raises here
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)

    spans = tracer.spans
    counted = {name for _, _, name, counter in targets if counter is not None}
    seen = {span.name for span in spans if span.counts}
    assert {span.name for span in spans if span.name in counted} == seen
    assert {
        "cli.main", "serialize.load_json", "serialize.dumps_canonical", "channels.build_channel",
        "channels.tensor_power", "channels.e_error_family", "codes.kl_check",
        "recovery.synthesize_recovery", "fidelity.min_fidelity", "memory.run_memory",
    } <= seen
    assert [span.counts["command"] for span in spans if span.name == "cli.main"] == [c[0] for c in commands]

    under_fidelity = [span.name for span in spans if _top(spans, span).counts["command"] == "fidelity"]
    assert "channels.compose" not in under_fidelity
    # one pass serves --entangled: one min_fidelity span and no entangled_fidelity span
    assert under_fidelity.count("fidelity.min_fidelity") == 1
    assert "fidelity.entangled_fidelity" not in under_fidelity
