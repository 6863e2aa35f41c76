"""Noise channels as finite families of interaction (Kraus) operators.

An ``OperatorEnsemble`` is an ordered family {A_a} of same-dimension
operators; it is a superoperator (trace-preserving channel) when the
completeness relation sum_a A_a^dag A_a = I holds. The builders below
produce the standard one-qubit channels, their tensor powers and the
bounded-error-count families derived from them.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import CapacityError, NotSuperoperatorError
from .linalg import DIM_CAP, ENSEMBLE_BYTE_CAP, DensityMatrix, _as_matrix, dagger, kron_all

_ID2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_LIFT = ("qubits", "max_errors")

# The parameters each kind reads; a kind that reads qubits= and max_errors=
# lifts its one-qubit operators to a register (explicit ones only when they
# act on one qubit).
_PARAMS = {
    "decoherence": ("gamma", *_LIFT),
    "decoherence_pm_basis": ("gamma", *_LIFT),
    "spontaneous_emission": ("p", *_LIFT),
    "amplitude_damping": ("p", *_LIFT),
    "pauli_unitary_basis": _LIFT,
    "measurement_basis": _LIFT,
    "depolarizing_third": _LIFT,
    "uniform_phase_flip": ("p", "qubits"),
    "overlap_example": ("q",),
    "explicit": _LIFT,
}

CHANNEL_KINDS = tuple(_PARAMS)


def _check_bytes(need: int, what: str) -> None:
    """Refuse ``need`` bytes of dense arrays (described by ``what``) above ``ENSEMBLE_BYTE_CAP``."""
    if need > ENSEMBLE_BYTE_CAP:
        raise CapacityError(f"{what} need {need / 2**30:.3g} GiB, above the {ENSEMBLE_BYTE_CAP / 2**30:.3g} GiB cap")


def _check_family_bytes(count: int, dim: int) -> None:
    """Refuse a family of ``count`` dense dim x dim operators above ``ENSEMBLE_BYTE_CAP``."""
    _check_bytes(count * dim * dim * 16, f"{count} operators of dimension {dim}")


def _sum_adag_a(ops) -> np.ndarray:
    """sum_a A_a^dag A_a, the operator in the completeness relation."""
    acc = np.zeros_like(ops[0])
    for a in ops:
        acc += dagger(a) @ a
    return acc


@dataclass(frozen=True, eq=False)
class OperatorEnsemble:
    """Ordered family of same-dimension interaction operators.

    By convention, slot 0 holds the identity-like (dominant) element for
    channels that have one; the error-counting machinery keys off it.
    ``completeness_residual`` is the max-norm deviation of sum A^dag A from
    the identity, computed on first read and kept.
    """

    operators: tuple[np.ndarray, ...]
    label: str = ""
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL
    _superop_tol: float = field(init=False, repr=False)

    def __post_init__(self, tol: ToleranceConfig):
        ops = tuple(_as_matrix(a) for a in self.operators)
        if not ops:
            raise ValueError("an ensemble needs at least one operator")
        dim = ops[0].shape[0]
        for a in ops:
            if a.shape != (dim, dim):
                raise ValueError(f"operators must be square with equal dimension, got {a.shape}")
            a.setflags(write=False)
        if dim > DIM_CAP:
            raise CapacityError(f"dimension {dim} exceeds the cap {DIM_CAP}")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "_superop_tol", tol.check)

    @cached_property
    def completeness_residual(self) -> float:
        return float(np.max(np.abs(_sum_adag_a(self.operators) - np.eye(self.dim))))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def is_superoperator(self) -> bool:
        return self.completeness_residual < self._superop_tol

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.operators)


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Declarative channel description: a kind plus numeric parameters.

    Supported params: ``gamma`` (dephasing rate, >= 0), ``p`` (probability
    in [0, 1]), ``q`` (overlap parameter in (0, 1/2)), and the structural
    ints ``qubits`` / ``max_errors`` which lift a one-qubit kind to a
    register (full tensor power, or the family inducing at most
    ``max_errors`` errors). ``explicit`` carries its operators directly.
    """

    kind: str
    params: dict = field(default_factory=dict)
    explicit_operators: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; known: {CHANNEL_KINDS}")
        params = {str(k): float(v) for k, v in dict(self.params).items()}
        object.__setattr__(self, "params", params)
        unread = sorted(set(params) - set(_PARAMS[self.kind]))
        if unread:
            raise ValueError(
                f"channel kind {self.kind!r} does not read parameter(s) {unread}; it reads {list(_PARAMS[self.kind])}"
            )

        def need(name, lo=None, hi=None, strict_lo=False, strict_hi=False):
            if name not in params:
                raise ValueError(f"channel kind {self.kind!r} requires parameter {name!r}")
            v = params[name]
            if lo is not None and (v <= lo if strict_lo else v < lo):
                raise ValueError(f"parameter {name}={v} violates {name} {'>' if strict_lo else '>='} {lo}")
            if hi is not None and (v >= hi if strict_hi else v > hi):
                raise ValueError(f"parameter {name}={v} violates {name} {'<' if strict_hi else '<='} {hi}")
            return v

        if self.kind in ("decoherence", "decoherence_pm_basis"):
            need("gamma", lo=0.0)
        elif self.kind in ("spontaneous_emission", "amplitude_damping", "uniform_phase_flip"):
            need("p", lo=0.0, hi=1.0)
        elif self.kind == "overlap_example":
            need("q", lo=0.0, hi=0.5, strict_lo=True, strict_hi=True)
        elif self.kind == "explicit":
            if not self.explicit_operators:
                raise ValueError("explicit channel requires explicit_operators")
            ops = tuple(_as_matrix(a) for a in self.explicit_operators)
            object.__setattr__(self, "explicit_operators", ops)

        if "qubits" in params:
            r = params["qubits"]
            if r != int(r) or r < 1:
                raise ValueError(f"qubits must be a positive integer, got {r}")
        if "max_errors" in params:
            e = params["max_errors"]
            r = params.get("qubits", 1.0)
            if e != int(e) or e < 0 or e > r:
                raise ValueError(f"max_errors must be an integer in 0..qubits, got {e}")


def _decoherence_ops(gamma: float) -> list[np.ndarray]:
    g = math.exp(-gamma)
    a0 = np.diag([1.0, g]).astype(np.complex128)
    a1 = np.diag([0.0, math.sqrt(max(0.0, 1.0 - g * g))]).astype(np.complex128)
    return [a0, a1]


def _decoherence_pm_ops(gamma: float) -> list[np.ndarray]:
    g = math.exp(-gamma)
    a_plus = math.sqrt((1.0 + g) / 2.0)
    a_minus = math.sqrt((1.0 - g) / 2.0)
    return [a_plus * _ID2, a_minus * SIGMA_Z]


def _uniform_phase_flip_ops(p: float, r: int) -> list[np.ndarray]:
    dim = 2**r
    if dim > DIM_CAP:
        raise CapacityError(f"dimension {dim} exceeds the cap {DIM_CAP}")
    ident = np.eye(dim, dtype=np.complex128)
    ops = [math.sqrt(1.0 - p) * ident]
    for j in range(r):
        factors = [_ID2] * r
        factors[j] = SIGMA_Z
        ops.append(math.sqrt(p / r) * kron_all(factors))
    return ops


def _overlap_ops(q: float) -> list[np.ndarray]:
    # A1 and A2 each map both logical columns of the pair code onto
    # overlapping two-dimensional sectors; one of the three images of each
    # logical state is linearly dependent on the other two, so two recovery
    # elements suffice. The sign pattern of A2 is fixed so that
    # <A_a i|A_b i> is independent of the logical index i.
    s, t = math.sqrt(1.0 - 2.0 * q), math.sqrt(q / 2.0)
    a0 = np.diag([s, 1.0, 1.0, s]).astype(np.complex128)
    a1 = np.zeros((4, 4), dtype=np.complex128)
    a1[0, 0] = t
    a1[2, 0] = t
    a1[1, 3] = t
    a1[3, 3] = t
    a2 = np.zeros((4, 4), dtype=np.complex128)
    a2[0, 0] = t
    a2[2, 0] = -t
    a2[1, 3] = -t
    a2[3, 3] = t
    return [a0, a1, a2]


def build_channel(spec: ChannelSpec, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorEnsemble:
    """Materialize a ``ChannelSpec`` into an ``OperatorEnsemble``."""
    params = spec.params
    kind = spec.kind
    if kind == "decoherence":
        ops = _decoherence_ops(params["gamma"])
    elif kind == "decoherence_pm_basis":
        ops = _decoherence_pm_ops(params["gamma"])
    elif kind == "spontaneous_emission":
        # Matrices taken as printed in the source channel table: the jump
        # operator carries p on the (2, 2) slot. See amplitude_damping for
        # the conventional off-diagonal variant.
        p = params["p"]
        ops = [
            np.diag([1.0, math.sqrt(max(0.0, 1.0 - p * p))]).astype(np.complex128),
            np.diag([0.0, p]).astype(np.complex128),
        ]
    elif kind == "amplitude_damping":
        p = params["p"]
        jump = np.zeros((2, 2), dtype=np.complex128)
        jump[0, 1] = p
        ops = [np.diag([1.0, math.sqrt(max(0.0, 1.0 - p * p))]).astype(np.complex128), jump]
    elif kind == "pauli_unitary_basis":
        ops = [
            _ID2.copy(),
            SIGMA_Z.copy(),
            SIGMA_X.copy(),
            np.array([[0, -1], [1, 0]], dtype=np.complex128),
        ]
    elif kind == "measurement_basis":
        ops = [
            np.diag([1.0, 0.0]).astype(np.complex128),
            np.diag([0.0, 1.0]).astype(np.complex128),
            np.array([[0, 1], [0, 0]], dtype=np.complex128),
            np.array([[0, 0], [1, 0]], dtype=np.complex128),
        ]
    elif kind == "depolarizing_third":
        f = 1.0 / math.sqrt(3.0)
        ops = [f * SIGMA_X, f * SIGMA_Y, f * SIGMA_Z]
    elif kind == "uniform_phase_flip":
        ops = _uniform_phase_flip_ops(params["p"], int(params.get("qubits", 1)))
    elif kind == "overlap_example":
        ops = _overlap_ops(params["q"])
    elif kind == "explicit":
        ops = list(spec.explicit_operators)
    else:  # pragma: no cover - kinds validated in ChannelSpec
        raise ValueError(f"unknown channel kind {kind!r}")

    suffix = ",".join(f"{k}={v:g}" for k, v in sorted(params.items()))
    base = OperatorEnsemble(tuple(ops), label=f"{kind}({suffix})" if suffix else kind, tol=tol)

    qubits = int(params.get("qubits", 1))
    max_errors = params.get("max_errors")
    if "max_errors" in _PARAMS[kind] and (kind != "explicit" or base.dim == 2):
        if max_errors is not None:
            return e_error_family(base, qubits, int(max_errors), tol=tol)
        if qubits > 1:
            return tensor_power(base, qubits, tol=tol)
    elif kind == "explicit" and ("qubits" in params or max_errors is not None):
        raise ValueError("explicit operators lift to a register only when they act on one qubit")
    return base


def validate_superoperator(ensemble: OperatorEnsemble) -> float:
    """Max-norm residual of the completeness relation sum A^dag A = I."""
    return ensemble.completeness_residual


def _require_superoperator(ensemble: OperatorEnsemble, what: str, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Refuse (``NotSuperoperatorError``) a family whose completeness residual exceeds ``tol.check``."""
    residual = validate_superoperator(ensemble)
    if residual > tol.check:
        raise NotSuperoperatorError(f"{what} needs a trace-preserving family (completeness residual {residual:.3e})")


def apply_channel(
    ensemble: OperatorEnsemble, rho: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> DensityMatrix:
    """Evolve a density matrix: rho -> sum_a A_a rho A_a^dag.

    Trace is preserved exactly when the ensemble is a superoperator;
    incomplete families yield a subnormalized state. Families of strength
    above 1 (e.g. linear operator bases) are refused since the image would
    not be a state.
    """
    if ensemble.dim != rho.dim:
        raise ValueError(f"dimension mismatch: channel {ensemble.dim}, state {rho.dim}")
    out = np.zeros_like(rho.matrix)
    for a in ensemble:
        out = out + a @ rho.matrix @ dagger(a)
    out = (out + dagger(out)) / 2.0  # remove round-off asymmetry
    if ensemble.is_superoperator:
        return DensityMatrix(out, shape=rho.shape, subnormalized=rho.subnormalized, tol=tol)
    tr = float(np.trace(out).real)
    if tr > 1.0 + tol.norm:
        raise ValueError(f"ensemble has strength above 1 (output trace {tr:.6f}); not a channel")
    return DensityMatrix(out, shape=rho.shape, subnormalized=True, tol=tol)


def tensor_product(
    a: OperatorEnsemble, b: OperatorEnsemble, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorEnsemble:
    """All pairwise tensor products {A_i (x) B_j}, ordered lexicographically."""
    if a.dim * b.dim > DIM_CAP:
        raise CapacityError(f"dimension {a.dim * b.dim} exceeds the cap {DIM_CAP}")
    _check_family_bytes(len(a) * len(b), a.dim * b.dim)
    ops = tuple(np.kron(x, y) for x in a for y in b)
    return OperatorEnsemble(ops, label=f"{a.label}(x){b.label}", tol=tol)


def tensor_power(
    ensemble: OperatorEnsemble, r: int, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorEnsemble:
    """r-fold tensor power acting independently on each subsystem."""
    if r < 1:
        raise ValueError(f"tensor power needs r >= 1, got {r}")
    if ensemble.dim**r > DIM_CAP:
        raise CapacityError(f"dimension {ensemble.dim ** r} exceeds the cap {DIM_CAP}")
    _check_family_bytes(len(ensemble) ** r, ensemble.dim**r)
    out = ensemble
    for _ in range(r - 1):
        out = tensor_product(out, ensemble, tol=tol)
    return OperatorEnsemble(out.operators, label=f"{ensemble.label}^(x){r}", tol=tol)


def e_error_family(
    one_qubit_basis: OperatorEnsemble, r: int, e: int, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorEnsemble:
    """Tensor-product operators touching at most ``e`` of ``r`` subsystems.

    Slot 0 of the basis must be (proportional to) the identity; the family
    consists of every r-fold product whose non-slot-0 factors occupy at most
    e positions. Deduplication is structural (by factor index tuple), so the
    all-identity product appears exactly once and the count is
    sum_{m<=e} C(r, m) * (len(basis) - 1)^m.
    """
    ops = one_qubit_basis.operators
    d = one_qubit_basis.dim
    if d**r > DIM_CAP:
        raise CapacityError(f"dimension {d ** r} exceeds the cap {DIM_CAP}")
    if e < 0 or e > r:
        raise ValueError(f"need 0 <= e <= r, got e={e}, r={r}")
    _check_family_bytes(sum(math.comb(r, j) * (len(ops) - 1) ** j for j in range(e + 1)), d**r)
    a0 = ops[0]
    c = a0[0, 0]
    if np.max(np.abs(a0 - c * np.eye(d))) > tol.check * max(1.0, abs(c)):
        raise ValueError("operator 0 of the basis must be proportional to the identity")

    members: list[np.ndarray] = []
    for m in range(e + 1):
        for positions in combinations(range(r), m):
            for choices in product(range(1, len(ops)), repeat=m):
                factors = [a0] * r
                for pos, which in zip(positions, choices):
                    factors[pos] = ops[which]
                members.append(kron_all(factors))
    return OperatorEnsemble(
        tuple(members), label=f"{one_qubit_basis.label}[r={r},e<={e}]", tol=tol
    )


def strength(ensemble: OperatorEnsemble) -> float:
    """Largest eigenvalue of sum A^dag A (the exact sup over unit vectors)."""
    return float(np.max(np.linalg.eigvalsh(_sum_adag_a(ensemble.operators))))


def compose(
    outer: OperatorEnsemble, inner: OperatorEnsemble, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorEnsemble:
    """Composite family {R_r A_a} of applying ``inner`` then ``outer``."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch: {outer.dim} vs {inner.dim}")
    _check_family_bytes(len(outer) * len(inner), outer.dim)
    ops = tuple(r @ a for r in outer for a in inner)
    return OperatorEnsemble(ops, label=f"{outer.label}*{inner.label}", tol=tol)
