"""JSON encodings for codes, channels, recoveries and reports.

Complex numbers are always encoded as ``[re, im]`` pairs and matrices as
row-major arrays of such pairs. Floats pass through Python's repr, so
explicit operator lists round-trip bit exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import ChannelSpec, OperatorEnsemble
from .codes import KLReport, QuantumCode, ReducedDMReport
from .config import DEFAULT_TOL, ToleranceConfig
from .fidelity import BoundCheckReport, EntangledFidelityReport, FidelityReport
from .linalg import PureState
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
    arr = np.asarray(data, dtype=np.float64)
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


def ensemble_from_json(data: dict, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorEnsemble:
    if "operators" not in data:
        raise ValueError("ensemble JSON requires an 'operators' field")
    ops = tuple(matrix_from_json(rows) for rows in data["operators"])
    return OperatorEnsemble(ops, label=str(data.get("label", "")), tol=tol)


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


def recovery_from_json(data: dict, tol: ToleranceConfig = DEFAULT_TOL) -> RecoveryOperator:
    ensemble = ensemble_from_json(data, tol=tol)
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
