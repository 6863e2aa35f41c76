"""JSON encodings for codes, channels, recoveries and reports.

Complex numbers are always encoded as ``[re, im]`` pairs and matrices as
row-major arrays of such pairs. Floats pass through Python's repr, so
explicit operator lists round-trip bit exactly.

Documents: every ``X_to_json`` returns its matrices and vectors as complex
numpy arrays, which every ``X_from_json`` takes back as they are;
``array_to_json`` gives an array's nested lists to callers who want lists.

Writing: ``dumps_canonical`` is the one place where arrays become text. It
writes every numpy array in a document, at any depth, through one writer,
``_array_text``, and assembles the text in one join. It keys an array's
rows (its last two axes) by their bytes, dumps each distinct value of the
distinct rows once, and fills the rows in from that table. Recovery
files (rows repeat wherever the code basis does) and Knill–Laflamme
matrices (``λ_ab`` depends on ``A_a†A_b`` only up to a phase) repeat most
of their values: on a 2-vCPU host, a 277×277 KL report writes in 0.09 s
(0.28 s through ``tolist()`` and ``json.dumps``) and the 45 MB phase7
recovery in 0.11 s (0.22 s row by row). An 8×128×128 block with every
value distinct pays for the table without using it: 0.51 s against
0.35 s row by row. Every number is written by ``json.dumps``, so the
bytes are the stdlib's.

Reading: ``loads`` reads the dense top-level ``operators`` block of a
canonical document from its bytes in one forward scan that predicts each
row from the previous operator's pattern of repeats and checks each
distinct row once; all distinct rows' numbers go to one ``json.loads``,
so the block comes back as one read-only float64 array of the stdlib's
floats, bit for bit, which ``OperatorEnsemble`` adopts uncopied. The
command line passes a file's read-only ``mmap`` rather than a copy of
its bytes (a file that cannot be mapped, such as an empty file or a
FIFO, is read instead), so the scan reads the page cache's pages in
place; a file truncated by another process while it is mapped ends the
process with SIGBUS.
"""

from __future__ import annotations

import json
import mmap

import numpy as np

from .channels import ChannelSpec, OperatorEnsemble
from .codes import KLReport, QuantumCode, ReducedDMReport
from .config import DEFAULT_TOL, ToleranceConfig
from .fidelity import BoundCheckReport, EntangledFidelityReport, FidelityReport
from .linalg import DIM_CAP, PureState, _check_dim
from .recovery import EntropyReport, RecoveryOperator, VerificationReport


def _pair_array(a: np.ndarray) -> np.ndarray:
    """``a`` as a float64 array of [re, im] pairs: one more axis, of length 2."""
    a = np.asarray(a, dtype=np.complex128, order="C")
    return a.reshape(-1).view(np.float64).reshape(*a.shape, 2)


def _from_pairs(data, ndim: int) -> np.ndarray:
    """Decode ``ndim`` levels of nested [re, im] pairs; ragged, non-numeric or non-finite input raises."""
    if isinstance(data, np.ndarray) and np.iscomplexobj(data):  # as an ``X_to_json`` document holds it
        return data
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


def vector_from_json(data) -> np.ndarray:
    return _from_pairs(data, 1)


def matrix_from_json(rows) -> np.ndarray:
    return _from_pairs(rows, 2)


def _integer(data: dict, key: str, what: str) -> int:
    """``data[key]``, refused by name unless present and a JSON integer: not 16.0, not true, not "16"."""
    if key not in data:
        raise ValueError(f"{what} JSON requires a {key!r} field")
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"{what} JSON field {key!r} must be an integer, got {value!r}")
    return value


def channel_spec_to_json(spec: ChannelSpec) -> dict:
    out: dict = {"kind": spec.kind, "params": dict(spec.params)}
    if spec.explicit_operators is not None:
        out["operators"] = list(spec.explicit_operators)
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
        "operators": ensemble.stack,
    }


def ensemble_from_json(data: dict) -> OperatorEnsemble:
    if "operators" not in data:
        raise ValueError("ensemble JSON requires an 'operators' field")
    ops = data["operators"]  # one array when ``loads`` read the block or ``ensemble_to_json`` built it, else one list per operator
    ops = _from_pairs(ops, 3) if isinstance(ops, np.ndarray) else tuple(matrix_from_json(rows) for rows in ops)
    ensemble = OperatorEnsemble(ops, label=str(data.get("label", "")))
    if "dim" in data and _integer(data, "dim", "ensemble") != ensemble.dim:
        raise ValueError(f"ensemble JSON declares dim {data['dim']!r}, but its operators are {ensemble.dim}x{ensemble.dim}")
    return ensemble


def code_to_json(code: QuantumCode) -> dict:
    return {
        "n": code.n,
        "k": code.k,
        "shape": list(code.shape) if code.shape is not None else None,
        "basis": code.matrix.T,
        "label": code.label,
    }


def code_from_json(data: dict, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumCode:
    for key in ("n", "k", "basis"):
        if key not in data:
            raise ValueError(f"code JSON requires a {key!r} field")
    n, k = _integer(data, "n", "code"), _integer(data, "k", "code")
    _check_dim(n)  # before any basis vector is decoded
    shape = data.get("shape")
    if shape and any(type(f) is not int for f in shape):
        raise ValueError(f"code JSON field 'shape' must list integers, got {shape!r}")
    shape = tuple(shape) if shape else None
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
    """The recovery as a document: ``operators`` is the family's own (m, d, d) ``stack``, not a copy."""
    return {
        "dim": rec.dim,
        "label": rec.ensemble.label,
        "operators": rec.ensemble.stack,
        "syndrome_dim": rec.syndrome_dim,
        "complement_dim": rec.complement_dim,
        "syndrome_coefficients": np.asarray(rec.syndrome_coefficients, dtype=np.complex128),
    }


def recovery_from_json(data: dict) -> RecoveryOperator:
    """The recovery ``[complement, R_1, ..., R_s]``; its metadata must agree with its operators."""
    ensemble = ensemble_from_json(data)
    syndrome_dim, complement_dim = (_integer(data, key, "recovery") for key in ("syndrome_dim", "complement_dim"))
    if syndrome_dim != len(ensemble) - 1:
        raise ValueError(f"recovery JSON declares syndrome_dim {syndrome_dim}, but lists {len(ensemble)} operators, not syndrome_dim + 1")
    if not 0 <= complement_dim <= ensemble.dim:
        raise ValueError(f"recovery JSON declares complement_dim {complement_dim}, outside 0..{ensemble.dim}")
    coeffs = data.get("syndrome_coefficients")
    if not isinstance(coeffs, np.ndarray) and not coeffs:  # absent or empty: no coefficients
        coeffs = np.zeros((syndrome_dim, 0), dtype=np.complex128)
    coeffs = matrix_from_json(coeffs)
    if len(coeffs) != syndrome_dim:
        raise ValueError(f"recovery JSON lists {len(coeffs)} rows of syndrome_coefficients, expected syndrome_dim={syndrome_dim}")
    return RecoveryOperator(ensemble, syndrome_dim, complement_dim, coeffs)


def kl_report_to_json(rep: KLReport) -> dict:
    """The report as a document for ``dumps_canonical``: ``lambda_matrix`` stays the complex array."""
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
        "argmin_state": rep.argmin_state.amplitudes,
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


_OPERATORS_KEY = b'"operators":'
_NUMBER_BYTES = b"0123456789+-.eE"
# Stands in for the operators block while the rest of the document is parsed.
_BLOCK = object()


def _loads_canonical(text: str | bytes | mmap.mmap) -> dict | None:
    """``json.loads(text)`` with the top-level ``operators`` read as one array, or None unless canonical.

    Applies when the first ``"operators":`` key is the top-level one
    ``json.loads`` keeps and its value is in the dense layout
    ``dumps_canonical`` writes. One forward scan of the bytes tests row i
    against row r of its operator where row i of the previous operator
    repeated its row r (rows of a recovery element ``B F†`` repeat
    wherever the code basis B does), cuts any other row at its ``]]``,
    checks each distinct row against the skeleton once and every
    separator exactly. The rest of the document is parsed with a
    placeholder for the block, which settles where the key sits, and all
    distinct rows' numbers by one ``json.loads``, from which the block is
    gathered into one read-only (m, d, d, 2) array. Bytes and an mmap
    are scanned alike, through ``find`` and slices, which both have; only
    rows and the text around the block are copied out of the buffer.
    """
    raw = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text

    def at(sub: bytes, where: int) -> bool:  # ``raw.startswith(sub, where)``, which an mmap lacks
        return raw[where : where + len(sub)] == sub

    key = raw.find(_OPERATORS_KEY)
    start = key + len(_OPERATORS_KEY)
    if key < 0 or not at(b"[[[[", start):
        return None
    pos = start + 4
    first = raw[pos : raw.find(b"]]", pos)]
    d = first.count(b"],[") + 1
    row = b"],[".join([b","] * d)  # a canonical row between its "[[" and "]]", numbers deleted
    if first.translate(None, _NUMBER_BYTES) != row:
        return None
    stop = raw.find(b"]]]]", pos) if d > DIM_CAP else 0  # such a block is refused below, its rows unread
    distinct: dict[bytes, int] = {}
    pattern = range(d)  # row i of the last operator repeated its row pattern[i], or was new where pattern[i] == i
    index = []
    while d <= DIM_CAP:
        rows, js = [], []  # this operator's rows and their indices in distinct
        for i in range(d):
            r = pattern[i]
            if r < i and at(rows[r], pos) and at(b"]]", pos + len(rows[r])):
                body, j = rows[r], js[r]
            else:  # a row with no "]]" after it runs to the last byte, where no separator fits
                body = raw[pos : raw.find(b"]]", pos)]
                j = distinct.get(body)
                if j is None:
                    if body.translate(None, _NUMBER_BYTES) != row:
                        return None
                    j = distinct[body] = len(distinct)
            rows.append(body)
            js.append(j)
            stop = pos + len(body)
            if i < d - 1:
                if not at(b"]],[[", stop):
                    return None
                pos = stop + 5
        index += js
        seen: dict[int, int] = {}
        pattern = [seen.setdefault(j, i) for i, j in enumerate(js)]
        if at(b"]]]]", stop):
            break
        if not at(b"]]],[[[", stop):
            return None
        pos = stop + 7
    end = stop + 4
    if stop < 0 or raw.find(b"NaN", 0, start) >= 0 or raw.find(b"NaN", end) >= 0:  # the placeholder must be the only NaN
        return None
    try:  # the block is ASCII, so the rest is valid UTF-8 exactly when the whole is
        rest = (raw[:start] + b"NaN" + raw[end:]).decode("utf-8")
        data = json.loads(rest, parse_constant=lambda c: _BLOCK if c == "NaN" else float(c))
    except ValueError:
        return None
    if type(data) is not dict or data.get("operators") is not _BLOCK:
        return None
    _check_dim(d)  # refused before any of the block's numbers is parsed
    try:  # 2 d numbers per distinct row, by the skeleton; their text and list are freed before the block is gathered
        table = np.array(json.loads(b"[" + b",".join(distinct).translate(None, b"[]") + b"]"), dtype=np.float64)
        table = table.reshape(len(distinct), d, 2)
    except (ValueError, OverflowError):  # outside JSON's number grammar, or an integer no float64 holds
        return None
    data["operators"] = block = table[np.reshape(index, (-1, d))]
    block.setflags(write=False)  # so ``OperatorEnsemble`` adopts it as its stack, uncopied
    return data


def loads(text: str | bytes | mmap.mmap) -> dict:
    """Decode a JSON document; the inverse of ``dumps_canonical``.

    ``text`` is a str or a read-only buffer: bytes, or a file's ``mmap``,
    whose canonical block is scanned in place, so the file is mapped, not
    copied (a mapped file that another process truncates meanwhile ends
    the process with SIGBUS). The result is ``json.loads(text)``, except
    that a top-level ``operators`` block in the canonical dense layout
    comes back as one read-only (m, d, d, 2) float64 array of [re, im]
    pairs, bit-identical to the floats ``json.loads`` reads; a block whose
    first row holds more than ``DIM_CAP`` pairs raises ``CapacityError``
    before its other rows are read. A buffer is decoded as a text-mode
    read decodes a file: strict
    UTF-8, a byte-order mark kept, CR LF and a lone CR read as LF. Any
    other text, every invalid document and every block holding an integer
    no float64 holds go through ``json.loads`` unchanged, with its errors.
    """
    data = _loads_canonical(text)
    if data is None and not isinstance(text, str):
        text = str(text, "utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text) if data is None else data
