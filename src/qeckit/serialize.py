"""JSON encodings for codes, channels, recoveries and reports.

Complex numbers are always encoded as ``[re, im]`` pairs and matrices as
row-major arrays of such pairs. Floats pass through Python's repr, so
explicit operator lists round-trip bit exactly.

Writing: ``dumps_canonical`` writes every numpy array in a document, at
any depth, through one writer, ``_array_text``, and assembles the text in
one join. It keys an array's rows (its last two axes) by their bytes,
dumps each distinct value of the distinct rows once, and fills the rows
in from that table. Recovery files (rows repeat wherever the code basis
does) and Knill–Laflamme matrices (``λ_ab`` depends on ``A_a†A_b`` only
up to a phase) repeat most of their values: on a 2-vCPU host, a 277×277
KL report writes in 0.09 s (0.28 s through ``tolist()`` and
``json.dumps``) and the 45 MB phase7 recovery in 0.11 s (0.22 s row by
row). An 8×128×128 block with every value distinct pays for the table
without using it: 0.51 s against 0.35 s row by row. Every number is
written by ``json.dumps``, so the bytes are the stdlib's.

Reading: the dense top-level ``operators`` block of a canonical document
comes back as float64 arrays: ``loads`` checks each distinct row of an
operator once and parses the operator's distinct rows with one
``json.loads``, so the floats are the stdlib's bit for bit.
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
    a = np.asarray(a, dtype=np.complex128, order="C")
    return a.reshape(-1).view(np.float64).reshape(*a.shape, 2)


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
    operators' lists; this is how ``synthesize`` writes its recovery, to
    its ``--out`` file or inside its report.
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
    """The report as a document for ``dumps_canonical``: ``lambda_matrix`` stays the complex array.

    ``dumps_canonical`` writes it as ``matrix_to_json`` lists would be
    written; ``array_to_json`` gives those lists.
    """
    return {
        "passed": rep.passed,
        "max_offdiag_violation": rep.max_offdiag_violation,
        "max_diag_violation": rep.max_diag_violation,
        "lambda_matrix": np.asarray(rep.lambda_matrix, dtype=np.complex128),
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
    """The report as a document for ``dumps_canonical``: ``lambda_values`` stays the complex array."""
    return {
        "passed": rep.passed,
        "max_identity_residual": rep.max_identity_residual,
        "lambda_values": np.asarray(rep.lambda_values, dtype=np.complex128),
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
# What ``json.dumps`` writes in place of each array, as ``"\u0000array"``.
_MARK = "\x00array"


def array_to_json(a: np.ndarray) -> list:
    """``a`` as nested lists, complex entries as [re, im] pairs: the value ``dumps_canonical`` writes for it."""
    return (_pair_array(a) if np.iscomplexobj(a) else a).tolist()


def _array_text(a: np.ndarray) -> list[str]:
    """Strings that join to ``json.dumps(array_to_json(a))``, byte for byte.

    The rows (the last two axes, complex entries paired) are keyed by
    their bytes, and the distinct rows' values by their bits through one
    ``np.unique``. Each distinct value is dumped once by ``json.dumps`` and
    each distinct row is filled in from that table, so every number is
    the stdlib's: NaN, ±Infinity, -0.0 and every numeric dtype come out as
    it writes them. The rows of a recovery element ``B F†`` repeat wherever
    the code basis B repeats a row, and a Knill–Laflamme matrix ``λ_ab``
    repeats its values because they depend on ``A_a†A_b`` only up to a
    phase.
    """
    a = _pair_array(a) if np.iscomplexobj(a) else a
    if a.ndim < 2 or a.size == 0:
        return [_stdlib_block_text(a)]
    *outer, height, width = a.shape
    first: dict[bytes, int] = {}
    index = [first.setdefault(row.tobytes(), len(first)) for row in a.reshape(-1, height, width)]
    distinct = np.frombuffer(b"".join(first), dtype=a.dtype).reshape(len(first), height * width)
    bits, inverse = np.unique(distinct.view(f"u{a.itemsize}").ravel(), return_inverse=True)
    table = json.dumps(bits.view(a.dtype).tolist(), separators=_SEPARATORS)[1:-1].split(",")
    template = "[" + ",".join(["[" + ",".join(["%s"] * width) + "]"] * height) + "]"
    cells = np.array(table, dtype=object)[inverse].reshape(distinct.shape).tolist()
    rows = [template % tuple(c) for c in cells]
    # between rows i - 1 and i, close and reopen each outer axis whose sub-block ends at row i
    starts = np.arange(1, len(index))
    depth = np.zeros(starts.size, dtype=np.intp)
    for size in np.cumprod(outer[:0:-1]):
        depth += starts % size == 0
    separators = ["]" * c + "," + "[" * c for c in range(len(outer))]
    pieces = ["[" * len(outer)] * (2 * len(index) + 1)
    pieces[1::2] = [rows[j] for j in index]
    pieces[2:-1:2] = [separators[c] for c in depth.tolist()]
    pieces[-1] = "]" * len(outer)
    return pieces


def _stdlib_block_text(block: np.ndarray) -> str:
    """``json.dumps`` of the array's nested lists: the oracle, and the writer of an array of fewer than 2 axes or no entries."""
    return json.dumps(array_to_json(block), separators=_SEPARATORS)


def _hold(arrays: list, mark: str, value):
    """``json.dumps``' ``default``: set an array aside and write ``mark`` in its place."""
    if not isinstance(value, np.ndarray):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    arrays.append(value)
    return mark


def dumps_canonical(data) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators); the inverse of ``loads``.

    Any value at any depth may be a numpy array; complex entries are
    written as [re, im] pairs. The text is the one ``json.dumps`` gives
    with every array replaced by ``array_to_json`` of it, byte for byte.
    The rest of the document goes through ``json.dumps`` with a mark in
    each array's place, each array through ``_array_text``, and the text
    is assembled from both in one join. A mark that a string of the
    document also spells is lengthened until it spells no other.
    """
    mark = _MARK
    while True:
        arrays: list[np.ndarray] = []
        text = json.dumps(data, sort_keys=True, separators=_SEPARATORS, default=lambda v: _hold(arrays, mark, v))
        parts = text.split(json.dumps(mark))
        if len(parts) == len(arrays) + 1:
            break
        mark += _MARK
    pieces = [parts[0]]
    for array, part in zip(arrays, parts[1:]):
        pieces += _array_text(array)
        pieces.append(part)
    pieces.append("\n")
    return "".join(pieces)


_OPERATORS_KEY = '"operators":'
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
