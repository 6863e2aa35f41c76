"""JSON encodings for codes, channels, recoveries and reports.

Complex numbers are always encoded as ``[re, im]`` pairs and matrices as
row-major arrays of such pairs. Floats pass through Python's repr, so
explicit operator lists round-trip bit exactly. ``loads`` reads files in
the canonical layout ``dumps_canonical`` writes with their dense
``operators`` block parsed straight into float64 arrays.
"""

from __future__ import annotations

import json
import warnings

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


def _to_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, one level per axis of ``a``."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


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
    out = ensemble_to_json(rec.ensemble)
    out["syndrome_dim"] = rec.syndrome_dim
    out["complement_dim"] = rec.complement_dim
    out["syndrome_coefficients"] = matrix_to_json(rec.syndrome_coefficients)
    return out


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


def dumps_canonical(data: dict) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


_OPERATORS_KEY = '"operators":'
_NUMBER_BYTES = b"0123456789+-.eE"
# Character classes of a dense operator's text, every other byte being class 0. "[" and ","
# come first and the digits last, so that ``<= _C`` and ``>= _Z`` select them.
_L, _C, _R, _M, _P, _T, _X, _Z, _N = range(1, 10)
_CLASS_MEMBERS = {_L: b"[", _C: b",", _R: b"]", _M: b"-", _P: b"+", _T: b".", _X: b"eE", _Z: b"0", _N: b"123456789"}
_CLASSES = bytes(next((c for c, members in _CLASS_MEMBERS.items() if byte in members), 0) for byte in range(256))
_DIGITS = (_Z, _N)
# Adjacent class pairs, coded 10 * left + right, that JSON's number grammar allows inside a
# canonical operator. A leading zero passes; ``_read_operator`` refuses it separately.
_FOLLOWERS = {
    _L: (_L, _M, *_DIGITS),
    _C: (_L, _M, *_DIGITS),
    _R: (_R, _C),
    _M: _DIGITS,
    _P: _DIGITS,
    _T: _DIGITS,
    _X: (_M, _P, *_DIGITS),
    _Z: (*_DIGITS, _T, _X, _C, _R),
    _N: (*_DIGITS, _T, _X, _C, _R),
}
_ALLOWED_PAIRS = bytes(10 * a + b for a, followers in _FOLLOWERS.items() for b in followers)
# Stands in for the operators block while the rest of the document is parsed.
_BLOCK = object()


def _row_skeleton(d: int) -> bytes:
    """A canonical row of d [re, im] pairs with its numbers deleted: ``[[,],...]``."""
    return b"[" + b",".join([b"[,]"] * d) + b"]"


def _read_operator(piece: str, d: int, skeleton: bytes) -> np.ndarray | None:
    """One canonical operator as a (d, d, 2) float64 array, or None unless every number is JSON's."""
    try:
        raw = piece.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, _NUMBER_BYTES) != skeleton:
        return None
    classes = np.frombuffer(raw.translate(_CLASSES), dtype=np.uint8)
    if (classes[:-1] * 10 + classes[1:]).tobytes().translate(None, _ALLOWED_PAIRS):
        return None
    # A number may not start with a 0 followed by a digit, and a lone "-0" is JSON's integer 0,
    # which np.fromstring would read as -0.0. A 0 starts a number after "[" or ",", or after a
    # "-" that does. The pair check put "[", "," or "e" before every "-", and a digit, ".", "e",
    # "," or "]" after every 0.
    before, after = classes[1:-2], classes[3:]
    signed = (before == _M) & (classes[:-3] != _X)
    if np.any((classes[2:-1] == _Z) & ((before <= _C) | signed) & ((after >= _Z) | (signed & (after <= _R)))):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy < 2 warns, and stops early, where numpy 2 raises
        try:  # a token the checks above let through, such as "1.5.5", ends the parse early
            values = np.fromstring(raw.translate(None, b"[]"), sep=",")
        except (ValueError, Warning):
            return None
    return values.reshape(d, d, 2) if values.size == 2 * d * d else None


def _loads_canonical(text: str) -> dict | None:
    """``json.loads(text)`` with the top-level ``operators`` read as arrays, or None unless canonical.

    Applies when the text's first ``"operators":`` key is the top-level
    one ``json.loads`` keeps and its value is in the dense layout
    ``dumps_canonical`` writes. The rest of the document is parsed by
    ``json.loads`` with a placeholder where the block was, which also
    settles where the key sits. The block is then read one operator at a
    time, so none of its numbers becomes a Python float and at most one
    operator's text is copied at once.
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
    first_row = text[start + 2 : text.find("]]", start) + 2]
    d = first_row.count("],[") + 1
    if first_row.encode("ascii", "replace").translate(None, _NUMBER_BYTES) != _row_skeleton(d):
        return None
    _check_dim(d)  # refused before any of the block's numbers is parsed
    skeleton = b"[" + b",".join([_row_skeleton(d)] * d) + b"]"
    ops = []
    for first, stop in pieces:
        op = _read_operator(text[first:stop], d, skeleton)
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
    invalid document, goes through ``json.loads`` unchanged, with its
    errors. Raises ``CapacityError`` when a canonical block's first row
    holds more than ``DIM_CAP`` pairs, before parsing its numbers.
    """
    data = _loads_canonical(text)
    return json.loads(text) if data is None else data
