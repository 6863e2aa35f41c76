"""Command-line front end.

Commands: check, synthesize, fidelity, memory, bounds, info. Code and
channel arguments accept either a JSON file path or a builtin name
(codes: phase3/phase5/phase7, pair, trivial:d; channels:
"kind:key=val,key=val", e.g. "decoherence:gamma=0.1" or
"decoherence_pm_basis:gamma=0.1,qubits=3,max_errors=1").

Exit codes: 0 success / check passed, 1 check failed or not correctable,
2 on input or capacity errors. Reports are deterministic for identical
inputs and seed: JSON is emitted with sorted keys and embeds the tool
version, tolerance and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .channels import ChannelSpec, OperatorEnsemble, build_channel
from .codes import QuantumCode, builtin_code, kl_check, naive_counting_bound, qubit_lower_bound
from .config import DEFAULT_TOL, FidelityConfig, ToleranceConfig
from .errors import CapacityError, NotCorrectableError, NotSuperoperatorError, QecError
from .fidelity import binomial_fidelity_bound, entangled_fidelity, min_fidelity
from .memory import compare_coded_uncoded, comparison_csv, run_memory, trajectory_csv
from .recovery import synthesize_recovery, verify_recovery
from . import serialize as ser


class _InputError(Exception):
    """User-facing input problem; exits with code 2."""


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ser.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise _InputError(f"{path}: {exc}")


def _read_file(path: str, decode):
    """``decode`` of the JSON file at ``path``; every refusal, the size cap's included, names the file."""
    try:
        return decode(_load_json_file(path))
    except (ValueError, KeyError, TypeError, CapacityError) as exc:
        raise _InputError(f"{path}: {exc}")


def _resolve_code(arg: str, tol: ToleranceConfig) -> QuantumCode:
    if os.path.exists(arg):
        return _read_file(arg, lambda data: ser.code_from_json(data, tol))
    try:
        return builtin_code(arg, tol)
    except ValueError as exc:
        raise _InputError(str(exc))


def _parse_channel_shorthand(arg: str) -> ChannelSpec:
    kind, _, rest = arg.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _ or not key:
                raise _InputError(f"bad channel parameter {item!r}; expected key=value")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise _InputError(f"channel parameter {key!r} must be numeric, got {val!r}")
    try:
        return ChannelSpec(kind.strip(), params)
    except ValueError as exc:
        raise _InputError(str(exc))


def _resolve_channel(arg: str, tol: ToleranceConfig) -> OperatorEnsemble:
    def decode(data):
        if "kind" in data:
            return build_channel(ser.channel_spec_from_json(data), tol)
        return ser.ensemble_from_json(data)

    if os.path.exists(arg):
        return _read_file(arg, decode)
    try:
        return build_channel(_parse_channel_shorthand(arg), tol)
    except (ValueError, CapacityError) as exc:
        raise _InputError(str(exc))


def _tolerance(args) -> ToleranceConfig:
    """The command's one tolerance object: ``--tol``, else ``QEC_TOL``, sets its ``check`` field."""
    env = os.environ.get("QEC_TOL")
    try:
        check = DEFAULT_TOL.check if env is None else float(env)
    except ValueError:
        raise _InputError(f"QEC_TOL must be numeric, got {env!r}")
    if args.tol is not None:
        check = args.tol
    return dataclasses.replace(DEFAULT_TOL, check=check)


def _envelope(args, command: str, tol: ToleranceConfig) -> dict:
    return {
        "tool": "qeckit",
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "tolerance": tol.check,
        "format": args.format,
    }


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner and not _is_scalar_list(inner):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_fmt_scalar(inner)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item and not _is_scalar_list(item):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_fmt_scalar(item)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(value)}")
    return lines


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(not isinstance(x, (dict, list)) for x in value)


def _fmt_scalar(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt_scalar(x) for x in value) + "]"
    return str(value)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = ser.dumps_canonical(report)
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    tol = _tolerance(args)
    code = _resolve_code(args.code, tol)
    channel = _resolve_channel(args.channel, tol)
    report = kl_check(code, channel, tol)
    out = _envelope(args, "check", tol)
    out["inputs"] = {"code": args.code, "channel": args.channel}
    out["result"] = ser.kl_report_to_json(report)
    _emit(out, args)
    return 0 if report.passed else 1


def _cmd_synthesize(args) -> int:
    tol = _tolerance(args)
    code = _resolve_code(args.code, tol)
    channel = _resolve_channel(args.channel, tol)
    try:
        rec = synthesize_recovery(code, channel, tol, seed=args.seed)
    except NotCorrectableError as exc:
        out = _envelope(args, "synthesize", tol)
        out["inputs"] = {"code": args.code, "channel": args.channel}
        out["error"] = str(exc)
        if exc.report is not None:
            out["result"] = ser.kl_report_to_json(exc.report)
        args.out = None  # never write a recovery file for a failure
        _emit(out, args)
        return 1
    verification = verify_recovery(code, channel, rec, tol)
    out = _envelope(args, "synthesize", tol)
    out["inputs"] = {"code": args.code, "channel": args.channel}
    out["result"] = {
        "syndrome_dim": rec.syndrome_dim,
        "complement_dim": rec.complement_dim,
        "verification": ser.verification_report_to_json(verification),
    }
    recovery_json = ser.recovery_to_json(rec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(ser.dumps_canonical(recovery_json))
        out["result"]["recovery_file"] = args.out
    else:
        out["result"]["recovery"] = recovery_json
    saved_out, args.out = args.out, None  # report always goes to stdout
    _emit(out, args)
    args.out = saved_out
    return 0 if verification.passed else 1


def _cmd_fidelity(args) -> int:
    tol = _tolerance(args)
    code = _resolve_code(args.code, tol)
    channel = _resolve_channel(args.channel, tol)
    rec = None
    if args.recovery:
        rec = _read_file(args.recovery, ser.recovery_from_json)
        if rec.dim != channel.dim:
            raise _InputError("recovery and channel dimensions do not match")
    cfg = FidelityConfig(seed=args.seed)
    report = min_fidelity(code, channel, cfg, recovery=rec)
    out = _envelope(args, "fidelity", tol)
    out["inputs"] = {"code": args.code, "channel": args.channel, "recovery": args.recovery}
    out["result"] = {"min_fidelity": ser.fidelity_report_to_json(report)}
    if args.entangled:
        ent = entangled_fidelity(code, channel, cfg, recovery=rec)
        out["result"]["entangled"] = ser.entangled_report_to_json(ent)
    _emit(out, args)
    return 0


def _cmd_memory(args) -> int:
    tol = _tolerance(args)
    if args.compare:
        if args.gamma is None:
            raise _InputError("--compare requires --gamma")
        _resolve_code(args.code, tol)  # validated; the comparison pipeline is fixed and runs at the defaults
        cmp = compare_coded_uncoded(args.gamma, args.cycles)
        text = comparison_csv(cmp)
    else:
        if args.channel is None:
            raise _InputError("memory requires a channel (or --compare)")
        code = _resolve_code(args.code, tol)
        channel = _resolve_channel(args.channel, tol)
        if args.recovery:
            rec = _read_file(args.recovery, ser.recovery_from_json)
        else:
            try:
                rec = synthesize_recovery(code, channel, tol, seed=args.seed)
            except NotCorrectableError as exc:
                sys.stderr.write(f"error: cannot synthesize recovery: {exc}\n")
                return 1
        bound_params = None
        if args.p is not None:
            r = len(code.shape) if code.shape else 1
            bound_params = (r, args.e, args.p)
        run = run_memory(code, channel, rec, code.basis[0], args.cycles, bound_params=bound_params, tol=tol)
        text = trajectory_csv(run)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bounds(args) -> int:
    tol = _tolerance(args)
    satisfied, lhs, rhs = naive_counting_bound(args.r, args.e, args.k)
    out = _envelope(args, "bounds", tol)
    out["result"] = {
        "qubit_lower_bound": qubit_lower_bound(args.e, args.k),
        "naive_counting": {"satisfied": satisfied, "lhs": lhs, "rhs": rhs},
        "binomial_fidelity_bound": binomial_fidelity_bound(args.r, args.e, args.p),
        "inputs": {"r": args.r, "e": args.e, "k": args.k, "p": args.p},
    }
    _emit(out, args)
    return 0


def _cmd_info(args) -> int:
    tol = _tolerance(args)
    out = _envelope(args, "info", tol)
    out["inputs"] = {"name": args.name}
    try:
        code = builtin_code(args.name, tol)
        out["result"] = {"type": "code", **ser.code_to_json(code)}
    except ValueError:
        channel = _resolve_channel(args.name, tol)
        out["result"] = {
            "type": "channel",
            **ser.ensemble_to_json(channel),
            "completeness_residual": channel.completeness_residual,
        }
    _emit(out, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qeckit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qeckit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None, help="check tolerance (overrides QEC_TOL)")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in reports and optimizers")
        p.add_argument("--out", default=None, help="output file (report, recovery JSON, or CSV)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("check", help="check the correctability conditions")
    p.add_argument("code")
    p.add_argument("channel")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synthesize", help="synthesize and verify a recovery superoperator")
    p.add_argument("code")
    p.add_argument("channel")
    common(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("fidelity", help="worst-case fidelity (optionally entangled)")
    p.add_argument("code")
    p.add_argument("channel")
    p.add_argument("--recovery", default=None, help="recovery JSON applied after the channel")
    p.add_argument("--entangled", action="store_true", help="add the entangled-state report")
    common(p)
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("memory", help="iterated memory trajectory as CSV")
    p.add_argument("code")
    p.add_argument("channel", nargs="?", default=None)
    p.add_argument("--recovery", default=None)
    p.add_argument("--cycles", type=int, default=10)
    p.add_argument("--gamma", type=float, default=None, help="dephasing rate for --compare")
    p.add_argument("--p", type=float, default=None, help="per-qubit flip probability for the bound column")
    p.add_argument("--e", type=int, default=1, help="correctable error count for the bound column")
    p.add_argument("--compare", action="store_true", help="coded vs bare-qubit comparison")
    common(p)
    p.set_defaults(func=_cmd_memory)

    p = sub.add_parser("bounds", help="qubit-count and fidelity bounds")
    p.add_argument("--r", type=int, default=5)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--p", type=float, default=0.1)
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("info", help="print a builtin code or channel")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CapacityError, NotSuperoperatorError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except QecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
