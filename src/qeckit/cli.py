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
import errno
import json
import os
import sys

import numpy as np

from . import __version__
from .channels import CHANNEL_KINDS, ChannelSpec, OperatorEnsemble, build_channel
from .codes import (
    BUILTIN_CODES, QuantumCode, builtin_code, kl_check, names_builtin_code, naive_counting_bound, qubit_lower_bound,
)
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import CapacityError, NotCorrectableError, NotSuperoperatorError, QecError
from .fidelity import binomial_fidelity_bound, min_fidelity
from .memory import CYCLE_CAP, compare_coded_uncoded, comparison_csv, run_memory, trajectory_csv
from .recovery import synthesize_recovery, verify_recovery
from . import serialize as ser


class _InputError(Exception):
    """User-facing input problem; exits with code 2."""


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
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


def _channel_from_json(data, tol: ToleranceConfig) -> OperatorEnsemble:
    """A channel document: a spec (with ``kind``) built at ``tol``, else an explicit ensemble."""
    if "kind" in data:
        return build_channel(ser.channel_spec_from_json(data), tol)
    return ser.ensemble_from_json(data)


def _resolve_channel(arg: str, tol: ToleranceConfig) -> OperatorEnsemble:
    if os.path.exists(arg):
        return _read_file(arg, lambda data: _channel_from_json(data, tol))
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


def _refuse_bad_arguments(args) -> None:
    """Refuse a negative ``--seed``, and an ``--out`` that is a directory or lies in a missing directory.

    Runs before any input is read, so a refused command costs nothing and creates no file.
    """
    if args.seed < 0:
        raise _InputError(f"--seed must be a non-negative integer, got {args.seed}")
    if not args.out:
        return
    if os.path.isdir(args.out):
        err = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(args.out) or "."):
        err = errno.ENOENT
    else:
        return
    raise _InputError(f"{args.out}: {OSError(err, os.strerror(err), args.out)}")


def _envelope(args, command: str, tol: ToleranceConfig) -> dict:
    return {
        "tool": "qeckit",
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "tolerance": tol.check,
        "format": args.format,
    }


def _lists(value):
    """``value`` with an array turned into the nested lists ``dumps_canonical`` writes for it."""
    return ser.array_to_json(value) if isinstance(value, np.ndarray) else value


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in value:
            inner = _lists(value[key])
            if isinstance(inner, (dict, list)) and inner and not _is_scalar_list(inner):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_fmt_scalar(inner)}")
    elif isinstance(value, list):
        for item in map(_lists, value):
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


def _write(text: str, path: str | None) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one; a file that cannot be written is an input error."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _InputError(f"{path}: {exc}")
    else:
        sys.stdout.write(text)


def _emit(report: dict, fmt: str, path: str | None) -> None:
    """Write ``report`` as canonical JSON or indented text (``fmt``) to ``path``, or to stdout without one."""
    text = ser.dumps_canonical(report) if fmt == "json" else "\n".join(_render_text(report)) + "\n"
    _write(text, path)


def _cmd_check(args) -> int:
    tol = _tolerance(args)
    code = _resolve_code(args.code, tol)
    channel = _resolve_channel(args.channel, tol)
    report = kl_check(code, channel, tol)
    out = _envelope(args, "check", tol)
    out["inputs"] = {"code": args.code, "channel": args.channel}
    out["result"] = ser.kl_report_to_json(report)
    _emit(out, args.format, args.out)
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
        _emit(out, args.format, None)  # never write a recovery file for a failure
        return 1
    verification = verify_recovery(code, channel, rec, tol)
    out = _envelope(args, "synthesize", tol)
    out["inputs"] = {"code": args.code, "channel": args.channel}
    out["result"] = {
        "syndrome_dim": rec.syndrome_dim,
        "complement_dim": rec.complement_dim,
        "verification": ser.verification_report_to_json(verification),
    }
    if args.out:  # the operators go to the encoder as one array, never as lists
        _write(ser.dumps_canonical(ser.recovery_document(rec)), args.out)
        out["result"]["recovery_file"] = args.out
    else:
        out["result"]["recovery"] = ser.recovery_document(rec)
    _emit(out, args.format, None)  # the report always goes to stdout
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
    report = min_fidelity(code, channel, recovery=rec)
    out = _envelope(args, "fidelity", tol)
    out["inputs"] = {"code": args.code, "channel": args.channel, "recovery": args.recovery}
    out["result"] = {"min_fidelity": ser.fidelity_report_to_json(report)}
    if args.entangled:  # read off the same pass; no second solve
        out["result"]["entangled"] = ser.entangled_report_to_json(report.entangled)
    _emit(out, args.format, args.out)
    return 0


def _cmd_memory(args) -> int:
    tol = _tolerance(args)
    if not 0 <= args.cycles <= CYCLE_CAP:  # refused before any input is read
        raise _InputError(f"--cycles must be in 0..{CYCLE_CAP}, got {args.cycles}")
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
        if args.p is not None and (code.shape is None or any(f != 2 for f in code.shape)):
            raise _InputError(f"memory --p requires a code with an all-qubit register shape, got shape {code.shape}")
        if args.p is not None:
            binomial_fidelity_bound(len(code.shape), args.e, args.p)  # a bad --e or --p is refused before any channel is read
        channel = _resolve_channel(args.channel, tol)
        if args.recovery:
            rec = _read_file(args.recovery, ser.recovery_from_json)
        else:
            try:
                rec = synthesize_recovery(code, channel, tol, seed=args.seed)
            except NotCorrectableError as exc:
                sys.stderr.write(f"error: cannot synthesize recovery: {exc}\n")
                return 1
        bound_params = None if args.p is None else (len(code.shape), args.e, args.p)
        run = run_memory(code, channel, rec, code.basis[0], args.cycles, bound_params=bound_params, tol=tol)
        text = trajectory_csv(run)
    _write(text, args.out)
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
    _emit(out, args.format, args.out)
    return 0


def _cmd_info(args) -> int:
    tol = _tolerance(args)
    out = _envelope(args, "info", tol)
    out["inputs"] = {"name": args.name}
    # a file holds a code when it has a basis and a channel otherwise; a channel kind's shorthand
    # names a channel and a builtin code's form names a code
    if os.path.exists(args.name):
        item = _read_file(
            args.name, lambda data: ser.code_from_json(data, tol) if "basis" in data else _channel_from_json(data, tol)
        )
    elif args.name.partition(":")[0].strip() in CHANNEL_KINDS:
        item = _resolve_channel(args.name, tol)
    elif names_builtin_code(args.name):
        item = _resolve_code(args.name, tol)
    else:
        raise _InputError(
            f"unknown code or channel name {args.name!r}; known codes: {', '.join(BUILTIN_CODES)}; "
            f"known channel kinds: {', '.join(CHANNEL_KINDS)}"
        )
    if isinstance(item, QuantumCode):
        out["result"] = {"type": "code", **ser.code_to_json(item)}
    else:
        out["result"] = {
            "type": "channel",
            **ser.ensemble_to_json(item),
            "completeness_residual": item.completeness_residual,
        }
    _emit(out, args.format, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qeckit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qeckit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None, help="check tolerance (overrides QEC_TOL)")
        p.add_argument(
            "--seed", type=int, default=0,
            help="seed recorded in reports; rotates synthesized syndrome frames (optimizers use a fixed seed)",
        )
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
        _refuse_bad_arguments(args)
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
