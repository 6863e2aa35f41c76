"""Which qeckit functions the traced run wraps, and the per-layer metrics.

The layers are the program's modules. ``linalg`` has no entry point of its
own on the benchmark's paths, so its cost shows as its callers' self time;
so does the work done inside class constructors such as ``OperatorEnsemble``.
The cli's private ``_load_json_file`` is recorded as ``serialize.load_json``
because it is where a recovery or code file is read and parsed.
"""

from __future__ import annotations

import importlib
import os

from spans import Span, outermost, self_times, within

LAYERS = ("channels", "codes", "recovery", "serialize", "fidelity", "memory", "cli")

_MIB = 1024.0 * 1024.0
_COMPLEX_BYTES = 16


def _ensemble_size(args, result) -> dict:
    return {"ops": len(result), "bytes": len(result) * result.dim * result.dim * _COMPLEX_BYTES}


def _kl_gram(args, result) -> dict:
    m, k = len(args["errors"]), args["code"].k
    return {"gram_bytes": m * m * k * k * _COMPLEX_BYTES}


def _memory_run(args, result) -> dict:
    per_cycle = len(args["channel"]) + len(args["recovery"].ensemble)
    states = 1 + args["code"].k ** 2 if args["worst_case"] else 1
    return {"cycles": args["cycles"], "kraus_applications": args["cycles"] * per_cycle * states}


_TARGETS = {
    "channels": {
        "build_channel": _ensemble_size,
        "tensor_power": _ensemble_size,
        "tensor_product": _ensemble_size,
        "e_error_family": _ensemble_size,
        "compose": _ensemble_size,
        "validate_superoperator": None,
        "apply_channel": None,
        "strength": None,
    },
    "codes": {
        "builtin_code": None,
        "repetition_phase_code": None,
        "random_code": None,
        "kl_check": _kl_gram,
        "reduced_dm_check": None,
    },
    "recovery": {
        "synthesize_recovery": lambda args, rec: {"elements": len(rec.ensemble)},
        "verify_recovery": None,
        "entangled_state_test": None,
        "syndrome_decomposition": None,
        "entropy_test": None,
    },
    "serialize": {
        "code_to_json": None,
        "code_from_json": None,
        "channel_spec_to_json": None,
        "channel_spec_from_json": None,
        "ensemble_to_json": None,
        "ensemble_from_json": None,
        "recovery_to_json": None,
        "recovery_from_json": None,
        "kl_report_to_json": None,
        "reduced_dm_report_to_json": None,
        "verification_report_to_json": None,
        "entropy_report_to_json": None,
        "fidelity_report_to_json": None,
        "entangled_report_to_json": None,
        "bound_check_to_json": None,
        "dumps_canonical": lambda args, text: {"bytes_written": len(text.encode("utf-8"))},
    },
    "fidelity": {
        "min_fidelity": lambda args, rep: {
            "ensemble_ops": len(args["ensemble"]),
            "refine_evaluations": rep.optimizer_trace.get("refine_evaluations", 0),
        },
        "entangled_fidelity": None,
        "pure_fidelity": None,
        "code_error": None,
        "entangled_bound_check": None,
        "binomial_fidelity_bound": None,
    },
    "memory": {
        "run_memory": _memory_run,
        "compare_coded_uncoded": None,
        "trajectory_csv": None,
        "comparison_csv": None,
        "bound_trajectory": None,
        "identity_recovery": None,
    },
    "cli": {"main": lambda args, rc: {"command": args["argv"][0]}},
}

_DECODE = ("load_json", "code_from_json", "channel_spec_from_json", "ensemble_from_json", "recovery_from_json")
_ENCODE = tuple(fn for fn in _TARGETS["serialize"] if fn not in _DECODE)
_BUILD = ("build_channel", "tensor_power", "tensor_product", "e_error_family")

#: Spans whose tracemalloc peak is reported as ``<span>.peak_mib``.
PEAK_SPANS = (
    "cli.main",
    "channels.build_channel",
    "channels.compose",
    "codes.kl_check",
    "recovery.synthesize_recovery",
    "recovery.entropy_test",
    "serialize.load_json",
    "serialize.recovery_from_json",
    "serialize.recovery_to_json",
    "serialize.dumps_canonical",
    "fidelity.min_fidelity",
    "fidelity.entangled_fidelity",
    "memory.run_memory",
    "memory.compare_coded_uncoded",
)

#: Command groups timed per pass; ``traced.<group>_s`` and the untraced medians use them.
GROUPS = ("check", "synthesize", "routes", "fidelity", "memory")

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("channels.build_s", "s"),
        ("channels.ops_built", "count"),
        ("channels.bytes_built", "bytes"),
        ("channels.compose_s", "s"),
        ("channels.compose_ops", "count"),
        ("channels.compose_bytes", "bytes"),
        ("codes.kl_check_s", "s"),
        ("codes.kl_gram_bytes", "bytes"),
        ("codes.reduced_dm_check_s", "s"),
        ("recovery.synthesize_self_s", "s"),
        ("recovery.verify_s", "s"),
        ("recovery.elements", "count"),
        ("recovery.entropy_test_s", "s"),
        ("recovery.entangled_state_test_s", "s"),
        ("recovery.syndrome_decomposition_s", "s"),
        ("serialize.encode_s", "s"),
        ("serialize.bytes_written", "bytes"),
        ("serialize.decode_s", "s"),
        ("serialize.bytes_read", "bytes"),
        ("fidelity.min_fidelity_s", "s"),
        ("fidelity.entangled_s", "s"),
        ("fidelity.ensemble_ops", "count"),
        ("fidelity.refine_evaluations", "count"),
        ("memory.run_s", "s"),
        ("memory.cycle_s", "s"),
        ("memory.kraus_applications", "count"),
        ("memory.compare_s", "s"),
    ]
    + [(f"{name}.peak_mib", "MiB") for name in PEAK_SPANS]
    + [(f"traced.{group}_s", "s") for group in ("pass",) + GROUPS]
    + [
        ("untraced.pass_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.memory_overhead_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.spans", "count"),
    ]
)


def targets(qeckit) -> tuple[list, list]:
    """(modules to patch, (module, attribute, span name, counter) targets)."""
    modules = [qeckit] + [importlib.import_module(f"qeckit.{name}") for name in LAYERS + ("catalog",)]
    by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules[1:]}
    found = [
        (by_name[layer], fn, f"{layer}.{fn}", counter)
        for layer, fns in _TARGETS.items()
        for fn, counter in fns.items()
    ]
    found.append(
        (by_name["cli"], "_load_json_file", "serialize.load_json",
         lambda args, data: {"bytes_read": os.path.getsize(args["path"])})
    )
    return modules, found


def self_by_command(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time per layer under each CLI command; library routes count as "routes"."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        top = span
        while top.parent is not None:
            top = spans[top.parent]
        by_layer = out.setdefault(top.counts.get("command", "routes"), {})
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own
    return out


def _total(spans, key: str) -> float:
    return sum(span.counts.get(key, 0) for span in spans)


def _duration(spans) -> float:
    return sum((span.duration for span in spans), 0.0)


def _named(spans: list[Span], layer: str, names) -> list[Span]:
    return outermost(spans, [f"{layer}.{n}" for n in names])


def layer_metrics(spans: list[Span], memory_spans: list[Span], groups: dict, passes: dict) -> dict:
    """Per-layer metrics keyed as in ``PER_LAYER``.

    ``spans`` and ``groups`` come from a pass traced for time only,
    ``memory_spans`` from a pass that also followed memory. ``passes``
    holds the ``untraced``, ``traced`` and ``memory`` pass times.
    """
    selfs = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        out[f"{span.layer}.self_s"] += own

    build = _named(spans, "channels", _BUILD)
    compose = _named(spans, "channels", ["compose"])
    kl = _named(spans, "codes", ["kl_check"])
    synth = [(s, own) for s, own in zip(spans, selfs) if s.name == "recovery.synthesize_recovery"]
    encode = _named(spans, "serialize", _ENCODE)
    decode = _named(spans, "serialize", _DECODE)
    writes = [s for s in spans if s.name == "serialize.dumps_canonical"]
    minf = _named(spans, "fidelity", ["min_fidelity"])
    runs = [s for s in spans if s.name == "memory.run_memory"]
    plain_runs = [s for s in runs if not within(spans, s, "memory.compare_coded_uncoded")]
    cycles = _total(plain_runs, "cycles")

    out.update({
        "channels.build_s": _duration(build),
        "channels.ops_built": _total(build, "ops"),
        "channels.bytes_built": _total(build, "bytes"),
        "channels.compose_s": _duration(compose),
        "channels.compose_ops": _total(compose, "ops"),
        "channels.compose_bytes": _total(compose, "bytes"),
        "codes.kl_check_s": _duration(kl),
        "codes.kl_gram_bytes": _total(kl, "gram_bytes"),
        "codes.reduced_dm_check_s": _duration(_named(spans, "codes", ["reduced_dm_check"])),
        "recovery.synthesize_self_s": sum(own for _, own in synth),
        "recovery.verify_s": _duration(_named(spans, "recovery", ["verify_recovery"])),
        "recovery.elements": _total([s for s, _ in synth], "elements"),
        "recovery.entropy_test_s": _duration(_named(spans, "recovery", ["entropy_test"])),
        "recovery.entangled_state_test_s": _duration(_named(spans, "recovery", ["entangled_state_test"])),
        "recovery.syndrome_decomposition_s": _duration(_named(spans, "recovery", ["syndrome_decomposition"])),
        "serialize.encode_s": _duration(encode),
        "serialize.bytes_written": _total(writes, "bytes_written"),
        "serialize.decode_s": _duration(decode),
        "serialize.bytes_read": _total(_named(spans, "serialize", ["load_json"]), "bytes_read"),
        "fidelity.min_fidelity_s": _duration(minf),
        "fidelity.entangled_s": _duration(_named(spans, "fidelity", ["entangled_fidelity"])),
        "fidelity.ensemble_ops": _total([s for s in spans if s.name == "fidelity.min_fidelity"], "ensemble_ops"),
        "fidelity.refine_evaluations": _total([s for s in spans if s.name == "fidelity.min_fidelity"], "refine_evaluations"),
        "memory.run_s": _duration(plain_runs),
        "memory.cycle_s": _duration(plain_runs) / cycles if cycles else 0.0,
        "memory.kraus_applications": _total(runs, "kraus_applications"),
        "memory.compare_s": _duration(_named(spans, "memory", ["compare_coded_uncoded"])),
    })
    for name in PEAK_SPANS:
        peaks = [s.peak_bytes for s in memory_spans if s.name == name]
        out[f"{name}.peak_mib"] = max(peaks) / _MIB if peaks else 0.0
    out["traced.pass_s"] = passes["traced"]
    for group in GROUPS:
        out[f"traced.{group}_s"] = groups.get(group, 0.0)
    out["untraced.pass_s"] = passes["untraced"]
    out["trace.overhead_s"] = passes["traced"] - passes["untraced"]
    out["trace.memory_overhead_s"] = passes["memory"] - passes["untraced"]
    out["trace.unattributed_s"] = passes["traced"] - sum(selfs)
    out["trace.spans"] = len(spans)
    return out
