"""JSON encodings for codes, channels, recoveries and reports.

Complex numbers are always encoded as ``[re, im]`` pairs and matrices as
row-major arrays of such pairs. Floats pass through Python's repr, so
explicit operator lists round-trip bit exactly. The dense top-level
``operators`` block of a document travels as float64 arrays both ways,
one distinct row of an operator at a time: ``dumps_canonical`` dumps
each distinct row of an array-valued block once with ``json.dumps``, and
``loads`` checks each distinct row of a canonical block once and parses
an operator's distinct rows with one ``json.loads``. Both give the
stdlib's bytes and floats exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import ChannelSpec, OperatorEnsemble
from .codes import KLReport, QuantumCode, ReducedDMReport
from .config import DEFAULT_TOL, ToleranceConfig
from .fidelity import BoundCheckReport, EntangledFidelityReport, FidelityReport
from .linalg import PureState, _check_dim
from .recovery import EntropyReport, RecoveryOperator, VerificationReport


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _pair_array(a: np.ndarray) -> np.ndarray:
    """``a`` as a float64 array of [re, im] pairs: one more axis, of length 2."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2)


def _to_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, one level per axis of ``a``."""
    return _pair_array(a).tolist()


def _from_pairs(data, ndim: int) -> np.ndarray:
    """Decode ``ndim`` levels of nested [re, im] pairs; ragged, non-numeric or non-finite input raises."""
    try:
        arr = np.asarray(data, dtype=np.float64)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError("null or non-finite entry in [re, im] pairs") from None
    if arr.size == 0 and arr.ndim <= ndim:  # empty rows hold no pairs
        return np.zeros(arr.shape, dtype=np.complex128)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValueError(f"expected {ndim}-dimensional nesting of [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # numpy reads null as NaN
        raise ValueError("null or non-finite entry in [re, im] pairs")
    return arr.view(np.complex128)[..., 0]


def vector_to_json(v: np.ndarray) -> list:
    return _to_pairs(np.asarray(v).reshape(-1))


def vector_from_json(data) -> np.ndarray:
    return _from_pairs(data, 1)


def matrix_to_json(m: np.ndarray) -> list:
    return _to_pairs(m)


def matrix_from_json(rows) -> np.ndarray:
    return _from_pairs(rows, 2)


def channel_spec_to_json(spec: ChannelSpec) -> dict:
    out: dict = {"kind": spec.kind, "params": dict(spec.params)}
    if spec.explicit_operators is not None:
        out["operators"] = [matrix_to_json(a) for a in spec.explicit_operators]
    return out


def channel_spec_from_json(data: dict) -> ChannelSpec:
    if "kind" not in data:
        raise ValueError("channel spec JSON requires a 'kind' field")
    ops = None
    if data.get("operators") is not None:
        ops = tuple(matrix_from_json(rows) for rows in data["operators"])
    return ChannelSpec(kind=str(data["kind"]), params=dict(data.get("params", {})), explicit_operators=ops)


def ensemble_to_json(ensemble: OperatorEnsemble) -> dict:
    return {
        "dim": ensemble.dim,
        "label": ensemble.label,
        "operators": [matrix_to_json(a) for a in ensemble],
    }


def ensemble_from_json(data: dict) -> OperatorEnsemble:
    if "operators" not in data:
        raise ValueError("ensemble JSON requires an 'operators' field")
    ops = tuple(matrix_from_json(rows) for rows in data["operators"])
    ensemble = OperatorEnsemble(ops, label=str(data.get("label", "")))
    if "dim" in data and data["dim"] != ensemble.dim:
        raise ValueError(f"ensemble JSON declares dim {data['dim']!r}, but its operators are {ensemble.dim}x{ensemble.dim}")
    return ensemble


def code_to_json(code: QuantumCode) -> dict:
    return {
        "n": code.n,
        "k": code.k,
        "shape": list(code.shape) if code.shape is not None else None,
        "basis": [vector_to_json(s.amplitudes) for s in code.basis],
        "label": code.label,
    }


def code_from_json(data: dict, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumCode:
    for key in ("n", "k", "basis"):
        if key not in data:
            raise ValueError(f"code JSON requires a {key!r} field")
    n, k = int(data["n"]), int(data["k"])
    _check_dim(n)  # before any basis vector is decoded
    shape = tuple(int(f) for f in data["shape"]) if data.get("shape") else None
    basis = []
    for row in data["basis"]:
        vec = vector_from_json(row)
        if vec.size != n:
            raise ValueError(f"basis vector has dimension {vec.size}, expected n={n}")
        basis.append(PureState(vec, shape, tol=tol))
    if len(basis) != k:
        raise ValueError(f"code JSON lists {len(basis)} basis vectors, expected k={k}")
    return QuantumCode(tuple(basis), label=str(data.get("label", "")), tol=tol)


def recovery_to_json(rec: RecoveryOperator) -> dict:
    out = recovery_document(rec)
    out["operators"] = _to_pairs(out["operators"])
    return out


def recovery_document(rec: RecoveryOperator) -> dict:
    """``recovery_to_json(rec)`` with ``operators`` one stacked (m, d, d) complex array.

    ``dumps_canonical`` encodes it to the same text without building the
    operators' lists; this is how ``synthesize --out`` writes its file.
    """
    return {
        "dim": rec.dim,
        "label": rec.ensemble.label,
        "operators": np.stack(rec.ensemble.operators),
        "syndrome_dim": rec.syndrome_dim,
        "complement_dim": rec.complement_dim,
        "syndrome_coefficients": matrix_to_json(rec.syndrome_coefficients),
    }


def recovery_from_json(data: dict) -> RecoveryOperator:
    ensemble = ensemble_from_json(data)
    for key in ("syndrome_dim", "complement_dim"):
        if key not in data:
            raise ValueError(f"recovery JSON requires a {key!r} field")
    coeffs = (
        matrix_from_json(data["syndrome_coefficients"])
        if data.get("syndrome_coefficients")
        else np.zeros((int(data["syndrome_dim"]), 0), dtype=np.complex128)
    )
    return RecoveryOperator(
        ensemble=ensemble,
        syndrome_dim=int(data["syndrome_dim"]),
        complement_dim=int(data["complement_dim"]),
        syndrome_coefficients=coeffs,
    )


def kl_report_to_json(rep: KLReport) -> dict:
    return {
        "passed": rep.passed,
        "max_offdiag_violation": rep.max_offdiag_violation,
        "max_diag_violation": rep.max_diag_violation,
        "lambda_matrix": matrix_to_json(rep.lambda_matrix),
        "witness": list(rep.witness) if rep.witness is not None else None,
        "tol": rep.tol,
    }


def reduced_dm_report_to_json(rep: ReducedDMReport) -> dict:
    return {
        "passed": rep.passed,
        "max_marginal_mismatch": rep.max_marginal_mismatch,
        "max_support_overlap": rep.max_support_overlap,
        "witness_subset": list(rep.witness_subset.indices) if rep.witness_subset else None,
        "witness_pair": list(rep.witness_pair) if rep.witness_pair else None,
        "tol": rep.tol,
    }


def verification_report_to_json(rep: VerificationReport) -> dict:
    return {
        "passed": rep.passed,
        "max_identity_residual": rep.max_identity_residual,
        "lambda_values": matrix_to_json(rep.lambda_values),
        "route": rep.route,
        "tol": rep.tol,
    }


def entropy_report_to_json(rep: EntropyReport) -> dict:
    return {
        "passed": rep.passed,
        "difference_bits": rep.difference_bits,
        "mixed_codeword_entropy": rep.mixed_codeword_entropy,
        "entangled_image_entropy": rep.entangled_image_entropy,
        "tol": rep.tol,
    }


def fidelity_report_to_json(rep: FidelityReport) -> dict:
    return {
        "value": rep.value,
        "method": rep.method,
        "argmin_state": vector_to_json(rep.argmin_state.amplitudes),
        "optimizer_trace": rep.optimizer_trace,
    }


def entangled_report_to_json(rep: EntangledFidelityReport) -> dict:
    f_pure, bound, satisfied = rep.bound_check
    return {
        "max_entangled_value": rep.max_entangled_value,
        "min_value": rep.min_value,
        "bound_check": {"pure_fidelity": f_pure, "bound": bound, "satisfied": satisfied},
        "tight": rep.tight,
        "optimizer_trace": rep.optimizer_trace,
    }


def bound_check_to_json(rep: BoundCheckReport) -> dict:
    return {
        "pure_fidelity": rep.pure_fidelity,
        "entangled_fidelity": rep.entangled_fidelity,
        "bound": rep.bound,
        "satisfied": rep.satisfied,
        "tight": rep.tight,
    }


_SEPARATORS = (",", ":")
_OPERATORS_KEY = '"operators":'


def _operators_array(value) -> np.ndarray | None:
    """An array-valued ``operators`` block as one array, complex entries as [re, im] pairs; else None."""
    if isinstance(value, (list, tuple)) and value and all(isinstance(a, np.ndarray) for a in value):
        value = np.stack(value)  # the list of per-operator arrays ``loads`` returns
    if not isinstance(value, np.ndarray):
        return None
    return _pair_array(value) if np.iscomplexobj(value) else value


def _block_pieces(block: np.ndarray) -> list[str]:
    """Strings that join to ``json.dumps(block.tolist())``: one per operator, between the brackets.

    The mirror of ``_read_operator``: each distinct row of an operator,
    keyed by its bytes, is dumped once by ``json.dumps`` and the operator
    is joined from those strings. The rows of a recovery element ``B F†``
    repeat wherever the code basis B repeats a row.
    """
    if block.ndim < 3:
        return [_stdlib_block_text(block)]
    pieces = ["["]
    for op in block:
        first: dict[bytes, int] = {}
        index = [first.setdefault(row.tobytes(), j) for j, row in enumerate(op)]
        text = {j: json.dumps(op[j].tolist(), separators=_SEPARATORS) for j in first.values()}
        pieces.append("," * (len(pieces) > 1) + "[" + ",".join([text[j] for j in index]) + "]")
    pieces.append("]")
    return pieces


def _stdlib_block_text(block: np.ndarray) -> str:
    """The block's nested lists through ``json.dumps``: the oracle, and the writer of a block of fewer than 3 axes."""
    return json.dumps(block.tolist(), separators=_SEPARATORS)


def dumps_canonical(data: dict) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators); the inverse of ``loads``.

    A top-level ``operators`` value may be held as an array: one numpy
    array, or a list of equal-shape ones such as ``loads`` returns.
    Complex entries are written as [re, im] pairs. The text is the one
    ``json.dumps`` gives for the array's ``tolist()``, byte for byte:
    each distinct row of an operator goes through ``json.dumps`` once, so
    NaN, ±Infinity, -0.0 and every dtype come out as the stdlib writes
    them. The block is spliced into the stdlib encoding of the rest of
    the document at its sorted key position, in one join.
    """
    block = _operators_array(data.get("operators")) if isinstance(data, dict) else None
    if block is None:
        return json.dumps(data, sort_keys=True, separators=_SEPARATORS) + "\n"
    pieces = _block_pieces(block)
    head = json.dumps({k: v for k, v in data.items() if k < "operators"}, sort_keys=True, separators=_SEPARATORS)[:-1]
    tail = json.dumps({k: v for k, v in data.items() if k > "operators"}, sort_keys=True, separators=_SEPARATORS)[1:]
    return "".join([head, "," * (head != "{"), _OPERATORS_KEY, *pieces, "," * (tail != "}"), tail, "\n"])


_NUMBER_BYTES = b"0123456789+-.eE"
# Stands in for the operators block while the rest of the document is parsed.
_BLOCK = object()


def _read_operator(piece: str, d: int, row: bytes) -> np.ndarray | None:
    """One canonical operator as a (d, d, 2) float64 array, or None unless every number is JSON's.

    The text is ``[[[`` + ``]],[[``.join(rows) + ``]]]``. Each distinct
    row is checked against ``row``, the skeleton every one must have, and
    the distinct rows' numbers go to one ``json.loads`` call, so each gets
    the stdlib's value. An integer beyond the float range or the digit
    limit is left to the stdlib.
    """
    rows = piece[3:-3].split("]],[[")  # the piece ends in "]]]" where the caller cut it
    if not piece.startswith("[[[") or len(rows) != d:
        return None
    distinct: dict[str, int] = {}
    index = [distinct.setdefault(r, len(distinct)) for r in rows]
    try:
        raw = "]],[[".join(distinct).encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, _NUMBER_BYTES) != b"]],[[".join([row] * len(distinct)):
        return None
    try:  # 2 d numbers per distinct row, by the skeleton
        table = np.array(json.loads(b"[" + raw.translate(None, b"[]") + b"]"), dtype=np.float64).reshape(len(distinct), d, 2)
    except (ValueError, OverflowError):  # outside JSON's number grammar, or an integer no float64 holds
        return None
    return table if len(distinct) == d else table[index]


def _loads_canonical(text: str) -> dict | None:
    """``json.loads(text)`` with the top-level ``operators`` read as arrays, or None unless canonical.

    Applies when the text's first ``"operators":`` key is the top-level
    one ``json.loads`` keeps and its value is in the dense layout
    ``dumps_canonical`` writes. The rest of the document is parsed by
    ``json.loads`` with a placeholder where the block was, which also
    settles where the key sits. The block is then read one operator at a
    time by ``_read_operator``, which checks each distinct row once and
    parses the distinct rows with one ``json.loads``: the rows of a
    recovery element ``B F†`` repeat wherever the code basis B repeats a
    row.
    """
    key = text.find(_OPERATORS_KEY)
    start = key + len(_OPERATORS_KEY)
    if key < 0 or not text.startswith("[[[[", start):
        return None
    pieces = []  # (first, past-the-end) of each operator
    pos = start + 1
    while True:
        stop = text.find("]]]", pos) + 3
        if stop < 3:
            return None
        pieces.append((pos, stop))
        after = text[stop : stop + 1]
        if after == "]":
            break
        if after != ",":
            return None
        pos = stop + 1
    end = stop + 1
    if text.find("NaN", 0, start) >= 0 or text.find("NaN", end) >= 0:  # the placeholder must be the only NaN
        return None
    try:
        data = json.loads(text[:start] + "NaN" + text[end:], parse_constant=lambda c: _BLOCK if c == "NaN" else float(c))
    except ValueError:
        return None
    if type(data) is not dict or data.get("operators") is not _BLOCK:
        return None
    first_row = text[start + 4 : text.find("]]", start)]
    d = first_row.count("],[") + 1
    row = b"],[".join([b","] * d)  # a canonical row between its "[[" and "]]", numbers deleted
    if first_row.encode("ascii", "replace").translate(None, _NUMBER_BYTES) != row:
        return None
    _check_dim(d)  # refused before any of the block's numbers is parsed
    ops = []
    for first, stop in pieces:
        op = _read_operator(text[first:stop], d, row)
        if op is None:
            return None
        ops.append(op)
    data["operators"] = ops
    return data


def loads(text: str) -> dict:
    """Decode a JSON document; the inverse of ``dumps_canonical``.

    The result is ``json.loads(text)``, except that a top-level
    ``operators`` block in the canonical dense layout comes back as a
    list of (d, d, 2) float64 arrays of [re, im] pairs, bit-identical to
    the floats ``json.loads`` reads. Any other text, including every
    invalid document and every block holding an integer no float64
    holds, goes through ``json.loads`` unchanged, with its errors. Raises
    ``CapacityError`` when a canonical block's first row holds more than
    ``DIM_CAP`` pairs, before parsing its numbers.
    """
    data = _loads_canonical(text)
    return json.loads(text) if data is None else data
