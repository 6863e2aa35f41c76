"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Runs the cheap operations of each workload once, shows that their checkers
accept the real outputs, and that they reject a flipped verdict, a fidelity
off by 1e-6 and a reordered report. Also checks that the metric names the
harness reports are exactly those in BENCHMARK.json. Exits 1 on a failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import layers
import oracles as orc
import run
import workloads

SEED = 7


def _spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _outcomes(setup, names) -> dict:
    """{op name: (op, output)} for the named operations of a workload."""
    qk = run.load_program()
    with run.scratch_dir("selftest") as work:
        ops = {op.name: op for op in setup(qk, work, SEED) if op.name in names}
        found = {}
        for name, op in ops.items():
            result = op.call()
            for path in op.outputs:
                result.files[path] = Path(path).read_bytes() if Path(path).exists() else None
            found[name] = (op, result)
        return found


def _with_report(result, edit):
    report = json.loads(result.out)
    edit(report)
    return dataclasses.replace(result, out=orc.canonical_json(report))


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert run.declared_metrics(False) == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_verify_checkers_reject_perturbed_outputs():
    found = _outcomes(workloads.setup_verify, {"check phase3", "synthesize phase3", "entropy_test phase5",
                                               "entangled_state_test phase5", "reduced_dm_check phase3"})
    for name, (op, result) in found.items():
        assert op.check(result) == [], (name, op.check(result))

    op, result = found["check phase3"]
    assert op.check(dataclasses.replace(result, rc=1))
    flipped = result.out.replace('"passed":true', '"passed":false')
    assert flipped != result.out and op.check(dataclasses.replace(result, out=flipped))
    reordered = json.dumps(dict(reversed(list(json.loads(result.out).items()))), separators=(",", ":")) + "\n"
    assert op.check(dataclasses.replace(result, out=reordered))

    op, result = found["synthesize phase3"]
    assert op.check(_with_report(result, lambda r: r["result"]["verification"].update(passed=False)))
    (path, data), = result.files.items()
    assert op.check(dataclasses.replace(result, files={path: data.replace(b"0.", b"1.", 1)}))

    op, result = found["entropy_test phase5"]
    assert op.check(dataclasses.replace(result, difference_bits=result.difference_bits + 1e-6))
    assert op.check(dataclasses.replace(result, passed=not result.passed))
    op, result = found["entangled_state_test phase5"]
    assert op.check(not result)
    op, result = found["reduced_dm_check phase3"]
    assert op.check(dataclasses.replace(result, passed=True))


def test_fidelity_and_memory_checkers_reject_perturbed_outputs():
    found = _outcomes(workloads.setup_fidelity_memory, {"fidelity phase5", "memory phase5", "memory phase3 --compare"})
    for name, (op, result) in found.items():
        assert op.check(result) == [], (name, op.check(result))

    op, result = found["fidelity phase5"]

    def nudge(report):
        report["result"]["min_fidelity"]["value"] += 1e-6

    assert op.check(_with_report(result, nudge))
    assert op.check(_with_report(result, lambda r: r["result"]["entangled"]["bound_check"].update(satisfied=False)))

    for name in ("memory phase5", "memory phase3 --compare"):
        op, result = found[name]
        lines = result.out.split("\n")
        cells = lines[5].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[5] = ",".join(cells)
        assert op.check(dataclasses.replace(result, out="\n".join(lines)))
        rows = result.out.split("\n")
        swapped = "\n".join(rows[:2] + [rows[3], rows[2]] + rows[4:])
        assert op.check(dataclasses.replace(result, out=swapped))


def test_ledger_counts_changed_outputs():
    ledger = run.Ledger()
    ledger.record("op", [], "a")
    ledger.record("op", [], "a")
    ledger.record("op", [], "b")
    ledger.record("other", ["wrong"], "c")
    assert (ledger.attempted, ledger.failed) == (4, 2)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    pct, value = run.tail_percentile([float(i) for i in range(1, 21)])
    assert pct == 50.0 and value == 10.0


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
