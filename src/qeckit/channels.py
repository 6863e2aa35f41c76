"""Noise channels as finite families of interaction (Kraus) operators.

An ``OperatorEnsemble`` is an ordered family {A_a} of same-dimension
operators; it is a superoperator (trace-preserving channel) when the
completeness relation sum_a A_a^dag A_a = I holds within the caller's
``tol.check``. The ensemble stores no tolerance of its own.

Every channel is built one way. ``_KINDS`` says which parameters each kind
reads and how its operators are built, and ``_RANGES`` bounds each numeric
parameter; ``ChannelSpec`` and ``build_channel`` read nothing else. The
register lifts, ``tensor_power`` and ``e_error_family``, form their members
through one builder, ``_register``, which refuses a family over the size
caps before it builds any member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NotSuperoperatorError
from .linalg import DensityMatrix, _as_matrix, _check_bytes, _check_dim, dagger, kron_all

_ID2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_LIFT = ("qubits", "max_errors")

# The range of each numeric parameter as (low, high, strict); a strict range is open at both ends.
_RANGES = {"gamma": (0.0, math.inf, False), "p": (0.0, 1.0, False), "q": (0.0, 0.5, True)}


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

    def __post_init__(self):
        ops = tuple(_as_matrix(a) for a in self.operators)
        if not ops:
            raise ValueError("an ensemble needs at least one operator")
        dim = ops[0].shape[0]
        for a in ops:
            if a.shape != (dim, dim):
                raise ValueError(f"operators must be square with equal dimension, got {a.shape}")
            a.setflags(write=False)
        _check_dim(dim)
        object.__setattr__(self, "operators", ops)

    @cached_property
    def completeness_residual(self) -> float:
        return float(np.max(np.abs(_sum_adag_a(self.operators) - np.eye(self.dim))))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; known: {CHANNEL_KINDS}")
        params = {str(k): float(v) for k, v in dict(self.params).items()}
        object.__setattr__(self, "params", params)
        reads = _KINDS[self.kind][0]
        unread = sorted(set(params) - set(reads))
        if unread:
            raise ValueError(f"channel kind {self.kind!r} does not read parameter(s) {unread}; it reads {list(reads)}")
        for name in (n for n in reads if n in _RANGES):
            if name not in params:
                raise ValueError(f"channel kind {self.kind!r} requires parameter {name!r}")
            v, (lo, hi, strict) = params[name], _RANGES[name]
            if v <= lo if strict else v < lo:
                raise ValueError(f"parameter {name}={v} violates {name} {'>' if strict else '>='} {lo}")
            if v >= hi if strict else v > hi:
                raise ValueError(f"parameter {name}={v} violates {name} {'<' if strict else '<='} {hi}")
        if self.kind == "explicit":
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


def _damping_ops(p: float, jump_slot: tuple[int, int]) -> list[np.ndarray]:
    jump = np.zeros((2, 2), dtype=np.complex128)
    jump[jump_slot] = p
    return [np.diag([1.0, math.sqrt(max(0.0, 1.0 - p * p))]).astype(np.complex128), jump]


def _uniform_phase_flip_ops(p: float, r: int) -> list[np.ndarray]:
    dim = 2**r
    _check_dim(dim)
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


# Each kind: the parameters it reads, and its operators built from a valid spec. A kind that
# reads qubits= and max_errors= lifts its one-qubit operators to a register (explicit ones
# only when they act on one qubit).
_KINDS = {
    "decoherence": (("gamma", *_LIFT), lambda spec: _decoherence_ops(spec.params["gamma"])),
    "decoherence_pm_basis": (("gamma", *_LIFT), lambda spec: _decoherence_pm_ops(spec.params["gamma"])),
    # Matrices taken as printed in the source channel table: the jump operator
    # carries p on the (2, 2) slot. amplitude_damping is the conventional
    # off-diagonal variant.
    "spontaneous_emission": (("p", *_LIFT), lambda spec: _damping_ops(spec.params["p"], (1, 1))),
    "amplitude_damping": (("p", *_LIFT), lambda spec: _damping_ops(spec.params["p"], (0, 1))),
    "pauli_unitary_basis": (
        _LIFT,
        lambda spec: [_ID2.copy(), SIGMA_Z.copy(), SIGMA_X.copy(), np.array([[0, -1], [1, 0]], dtype=np.complex128)],
    ),
    "measurement_basis": (
        _LIFT,
        lambda spec: [
            np.diag([1.0, 0.0]).astype(np.complex128),
            np.diag([0.0, 1.0]).astype(np.complex128),
            np.array([[0, 1], [0, 0]], dtype=np.complex128),
            np.array([[0, 0], [1, 0]], dtype=np.complex128),
        ],
    ),
    "depolarizing_third": (_LIFT, lambda spec: [(1.0 / math.sqrt(3.0)) * s for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]),
    "uniform_phase_flip": (
        ("p", "qubits"),
        lambda spec: _uniform_phase_flip_ops(spec.params["p"], int(spec.params.get("qubits", 1))),
    ),
    "overlap_example": (("q",), lambda spec: _overlap_ops(spec.params["q"])),
    "explicit": (_LIFT, lambda spec: list(spec.explicit_operators)),
}

CHANNEL_KINDS = tuple(_KINDS)


def build_channel(spec: ChannelSpec, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorEnsemble:
    """Materialize a ``ChannelSpec`` into an ``OperatorEnsemble``.

    ``tol.check`` is the slot-0 identity test of a ``max_errors`` lift.
    """
    params, kind = spec.params, spec.kind
    reads, build = _KINDS[kind]
    suffix = ",".join(f"{k}={v:g}" for k, v in sorted(params.items()))
    base = OperatorEnsemble(tuple(build(spec)), label=f"{kind}({suffix})" if suffix else kind)

    qubits = int(params.get("qubits", 1))
    max_errors = params.get("max_errors")
    if "max_errors" in reads and (kind != "explicit" or base.dim == 2):
        if max_errors is not None:
            return e_error_family(base, qubits, int(max_errors), tol=tol)
        if qubits > 1:
            return tensor_power(base, qubits)
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

    ``tol.check`` decides trace preservation: a family whose completeness
    residual is below it keeps the state's normalization, and any other
    family yields a subnormalized state. Families of strength above 1
    (e.g. linear operator bases) are refused since the image would not be
    a state.
    """
    if ensemble.dim != rho.dim:
        raise ValueError(f"dimension mismatch: channel {ensemble.dim}, state {rho.dim}")
    out = np.zeros_like(rho.matrix)
    for a in ensemble:
        out = out + a @ rho.matrix @ dagger(a)
    out = (out + dagger(out)) / 2.0  # remove round-off asymmetry
    if ensemble.completeness_residual < tol.check:
        return DensityMatrix(out, shape=rho.shape, subnormalized=rho.subnormalized, tol=tol)
    tr = float(np.trace(out).real)
    if tr > 1.0 + tol.norm:
        raise ValueError(f"ensemble has strength above 1 (output trace {tr:.6f}); not a channel")
    return DensityMatrix(out, shape=rho.shape, subnormalized=True, tol=tol)


def _register(
    basis: OperatorEnsemble, r: int, words: Iterable[Iterable[int]], count: int, label: str
) -> OperatorEnsemble:
    """The ``count`` r-fold products ``basis[w_1] (x) ... (x) basis[w_r]``, one per word.

    The dimension cap and the byte budget are checked from ``count`` before
    the first word is drawn, so ``words`` may be a lazy generator of any
    length. Each member is the left ``np.kron`` fold of ``kron_all`` over
    its word; a word that shares its first letters with the word before
    reuses their product.
    """
    dim = basis.dim**r
    _check_dim(dim)
    _check_family_bytes(count, dim)
    ops = basis.operators
    # prefix[j] is the product of the first j letters of ``last``, the word before
    prefix, last, members = [np.ones((1, 1), dtype=np.complex128)], (), []
    for word in words:
        keep = next((j for j, (a, b) in enumerate(zip(word, last)) if a != b), len(last))
        del prefix[keep + 1 :]
        for i in word[keep:]:
            prefix.append(np.kron(prefix[-1], ops[i]))
        members.append(prefix[-1])
        last = word
    return OperatorEnsemble(tuple(members), label=label)


def tensor_product(a: OperatorEnsemble, b: OperatorEnsemble) -> OperatorEnsemble:
    """All pairwise tensor products {A_i (x) B_j}, ordered lexicographically."""
    _check_dim(a.dim * b.dim)
    _check_family_bytes(len(a) * len(b), a.dim * b.dim)
    ops = tuple(np.kron(x, y) for x in a for y in b)
    return OperatorEnsemble(ops, label=f"{a.label}(x){b.label}")


def tensor_power(ensemble: OperatorEnsemble, r: int) -> OperatorEnsemble:
    """r-fold tensor power acting independently on each subsystem, words in lexicographic order."""
    if r < 1:
        raise ValueError(f"tensor power needs r >= 1, got {r}")
    m = len(ensemble)
    return _register(ensemble, r, product(range(m), repeat=r), m**r, f"{ensemble.label}^(x){r}")


def _bounded_words(basis: OperatorEnsemble, r: int, e: int, tol: ToleranceConfig) -> Iterator[list[int]]:
    """Words with at most ``e`` non-zero letters, by weight, then positions, then letters.

    A generator: its check of slot 0 runs when ``_register`` draws the
    first word, after the size checks.
    """
    a0 = basis.operators[0]
    c = a0[0, 0]
    if np.max(np.abs(a0 - c * np.eye(basis.dim))) > tol.check * max(1.0, abs(c)):
        raise ValueError("operator 0 of the basis must be proportional to the identity")
    for m in range(e + 1):
        for positions in combinations(range(r), m):
            for choices in product(range(1, len(basis)), repeat=m):
                word = [0] * r
                for pos, which in zip(positions, choices):
                    word[pos] = which
                yield word


def e_error_family(
    one_qubit_basis: OperatorEnsemble, r: int, e: int, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorEnsemble:
    """Tensor-product operators touching at most ``e`` of ``r`` subsystems.

    Slot 0 of the basis must be (proportional to) the identity within
    ``tol.check``; the family consists of every r-fold product whose
    non-slot-0 factors occupy at most e positions. Deduplication is
    structural (by factor index tuple), so the all-identity product appears
    exactly once and the count is sum_{m<=e} C(r, m) * (len(basis) - 1)^m.
    """
    if e < 0 or e > r:
        raise ValueError(f"need 0 <= e <= r, got e={e}, r={r}")
    count = sum(math.comb(r, j) * (len(one_qubit_basis) - 1) ** j for j in range(e + 1))
    words = _bounded_words(one_qubit_basis, r, e, tol)
    return _register(one_qubit_basis, r, words, count, f"{one_qubit_basis.label}[r={r},e<={e}]")


def strength(ensemble: OperatorEnsemble) -> float:
    """Largest eigenvalue of sum A^dag A (the exact sup over unit vectors)."""
    return float(np.max(np.linalg.eigvalsh(_sum_adag_a(ensemble.operators))))


def compose(outer: OperatorEnsemble, inner: OperatorEnsemble) -> OperatorEnsemble:
    """Composite family {R_r A_a} of applying ``inner`` then ``outer``."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch: {outer.dim} vs {inner.dim}")
    _check_family_bytes(len(outer) * len(inner), outer.dim)
    ops = tuple(r @ a for r in outer for a in inner)
    return OperatorEnsemble(ops, label=f"{outer.label}*{inner.label}")
