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

A dense family is one read-only complex (m, n, n) ``stack``, which
``images``, the completeness relation, ``compose`` and ``apply_channel``
read whole. A lift whose one-qubit operators each have at most one
nonzero per row (every catalogued kind) is one (m, n) table of columns
and one of values instead. Its length, dimension, completeness residual
and error images come from those tables, so ``check``, ``synthesize``,
``fidelity`` and ``memory`` never form one of its 2^r x 2^r members.
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
from .linalg import DensityMatrix, _as_matrix, _check_bytes, _check_dim, _check_register, dagger

_ID2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_LIFT = ("qubits", "max_errors")

# Entries whose squared magnitudes sum beyond the float range: every norm and residual of the family would be inf or NaN.
_OVERFLOW = "matrix entries are too large: the sum of their squared magnitudes overflows"

# The range of each numeric parameter as (low, high, strict); a strict range is open at both ends.
_RANGES = {"gamma": (0.0, math.inf, False), "p": (0.0, 1.0, False), "q": (0.0, 0.5, True)}


def _check_family_bytes(count: int, dim: int) -> None:
    """Refuse a family of ``count`` dense dim x dim operators above ``ENSEMBLE_BYTE_CAP``."""
    _check_bytes(count * dim * dim * 16, f"{count} operators of dimension {dim}")


def _sum_adag_a(ensemble: OperatorEnsemble) -> np.ndarray:
    """sum_a A_a^dag A_a, the operator in the completeness relation, summed member by member in order.

    A dense family adds its ``stack`` rows one at a time. Member a of a
    lifted family adds |vals[a]|^2 to the diagonal at ``cols[a]``: the
    weights are binned per member, then the members' bins are added.
    """
    if isinstance(ensemble, _LiftedEnsemble):
        m, n = ensemble.cols.shape
        weights = ensemble.vals.real**2 + ensemble.vals.imag**2
        bins = np.bincount((ensemble.cols + n * np.arange(m)[:, None]).ravel(), weights=weights.ravel(), minlength=m * n)
        return np.diag(np.add.reduce(bins.reshape(m, n))).astype(np.complex128)
    acc = np.zeros_like(ensemble.stack[0])
    for a in ensemble.stack:
        acc += dagger(a) @ a
    return acc


@dataclass(frozen=True, eq=False)
class OperatorEnsemble:
    """Ordered family of same-dimension interaction operators, held as one read-only complex (m, n, n) ``stack``.

    ``operators`` (n x n matrices, or an (m, n, n) array) is validated once
    and becomes ``tuple(stack)``. A read-only array (the decoder's gathered
    block) is adopted uncopied; any other input is copied, so the caller's
    arrays stay writeable and their later writes leave the family unchanged.
    By convention, slot 0 holds the identity-like (dominant) element for
    channels that have one; the error-counting machinery keys off it.
    ``completeness_residual`` is the max-norm deviation of sum A^dag A from
    the identity, computed on first read and kept.
    """

    operators: tuple[np.ndarray, ...]
    label: str = ""
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = self.operators
        readonly = isinstance(ops, np.ndarray) and not ops.flags.writeable
        try:
            stack = np.asarray(ops, dtype=np.complex128) if readonly else np.array(ops, dtype=np.complex128)
        except ValueError:  # members of different shapes, or a member that is no numeric matrix (_as_matrix says so)
            mats = [_as_matrix(a) for a in ops]
            raise ValueError(f"operators must be square with equal dimension, got {next(a.shape for a in mats if a.shape != mats[0].shape)}") from None
        if len(stack) == 0:
            raise ValueError("an ensemble needs at least one operator")
        if stack.ndim != 3:
            raise ValueError(f"expected a matrix, got ndim={stack.ndim - 1}")
        if not math.isfinite(np.vdot(stack, stack).real):  # one pass finds NaN, inf and overflowing squares
            raise ValueError(_OVERFLOW if np.isfinite(stack).all() else "matrix entries must be finite")
        if stack.shape[1] != stack.shape[2]:
            raise ValueError(f"operators must be square with equal dimension, got {stack.shape[1:]}")
        _check_dim(stack.shape[1])
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "operators", tuple(stack))

    @cached_property
    def completeness_residual(self) -> float:
        return float(np.max(np.abs(_sum_adag_a(self) - np.eye(self.dim))))

    def images(self, frame: np.ndarray) -> np.ndarray:
        """Images of an n x d frame as an (n, m, d) array: ``X[:, a, i] = A_a frame[:, i]``."""
        images = np.empty((frame.shape[0], len(self), frame.shape[1]), dtype=np.complex128)
        np.matmul(self.stack, frame, out=images.transpose(1, 0, 2))
        return images

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.operators)

    def __repr__(self) -> str:
        # not the members: a lifted family would build all of them
        return f"{type(self).__name__}(label={self.label!r}, len={len(self)}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Declarative channel description: a kind plus numeric parameters.

    Supported params: ``gamma`` (dephasing rate, >= 0), ``p`` (probability
    in [0, 1]), ``q`` (overlap parameter in (0, 1/2)), and the structural
    finite integers ``qubits`` / ``max_errors`` which lift a one-qubit kind
    to a register (full tensor power, or the family inducing at most
    ``max_errors`` errors). ``explicit`` carries read-only copies of its
    operators. A NaN parameter is refused by name.
    """

    kind: str
    params: dict = field(default_factory=dict)
    explicit_operators: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; known: {CHANNEL_KINDS}")
        params = {}
        for k, v in dict(self.params).items():
            try:
                params[str(k)] = float(v)
            except (TypeError, ValueError, OverflowError):  # e.g. a JSON integer beyond the float range
                raise ValueError(f"parameter {k} must be a number within the float range") from None
        object.__setattr__(self, "params", params)
        reads = _KINDS[self.kind][0]
        unread = sorted(set(params) - set(reads))
        if unread:
            raise ValueError(f"channel kind {self.kind!r} does not read parameter(s) {unread}; it reads {list(reads)}")
        for name, v in params.items():
            if math.isnan(v):
                raise ValueError(f"parameter {name} must be a number, got nan")
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
            ops = tuple(_as_matrix(np.array(a, dtype=np.complex128)) for a in self.explicit_operators)
            for a in ops:  # a later write to the caller's arrays reaches neither the spec nor its channel
                a.setflags(write=False)
            object.__setattr__(self, "explicit_operators", ops)

        if "qubits" in params:
            r = params["qubits"]
            if not r.is_integer() or r < 1:
                raise ValueError(f"qubits must be a positive integer, got {r}")
        if "max_errors" in params:
            e = params["max_errors"]
            r = params.get("qubits", 1.0)
            if not e.is_integer() or e < 0 or e > r:
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
    dim = _check_register(2, r)
    flips = _kron_words(np.stack([_ID2, SIGMA_Z]), np.eye(r, dtype=np.intp))  # Z on qubit j, for each j
    return [math.sqrt(1.0 - p) * np.eye(dim, dtype=np.complex128), *(math.sqrt(p / r) * flips)]


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
    stack = ensemble.stack
    out = np.add.reduce(stack @ rho.matrix @ stack.conj().transpose(0, 2, 1), axis=0, initial=0.0)  # from 0, in order
    out = (out + dagger(out)) / 2.0  # remove round-off asymmetry
    if ensemble.completeness_residual < tol.check:
        return DensityMatrix(out, shape=rho.shape, subnormalized=rho.subnormalized, tol=tol)
    tr = float(np.trace(out).real)
    if tr > 1.0 + tol.check:
        raise ValueError(f"ensemble has strength above 1 (output trace {tr:.6f}); not a channel")
    return DensityMatrix(out, shape=rho.shape, subnormalized=True, tol=tol)


def _kron_words(factors: np.ndarray, words: np.ndarray) -> np.ndarray:
    """One read-only stack of the products ``factors[w_1] (x) ... (x) factors[w_r]``, a member per row of ``words``.

    A left fold over the word positions for all members at once; each
    step multiplies as ``np.kron`` does, so a member is ``kron_all`` of
    its word bit for bit.
    """
    m, d = len(words), factors.shape[1]
    stack = np.ones((m, 1, 1), dtype=np.complex128)
    for letters in words.T:
        stack = (stack[:, :, None, :, None] * factors[letters][:, None, :, None, :]).reshape(m, stack.shape[1] * d, -1)
    stack.setflags(write=False)
    return stack


def _monomial(stack: np.ndarray):
    """Each operator of ``stack`` as ``(cols, vals)`` with ``stack[a, i, cols[a, i]] = vals[a, i]``, or None if a row has two nonzeros."""
    nonzero = stack != 0
    if np.any(np.count_nonzero(nonzero, axis=2) > 1):
        return None
    cols = np.argmax(nonzero, axis=2)
    return cols, np.take_along_axis(stack, cols[:, :, None], axis=2)[:, :, 0]


class _LiftedEnsemble(OperatorEnsemble):
    """A register lift of one-qubit operators with at most one nonzero per row, held as two (m, n) tables.

    Row i of member a holds ``vals[a, i]`` in column ``cols[a, i]``. Both
    come from ``_kron_words``' left fold over the word positions, in
    table form, so the values are the products ``np.kron`` forms. Row i of
    ``A_a frame`` is ``vals[a, i] * frame[cols[a, i]]``. ``stack`` (and with
    it ``operators``) is built on first read by ``_kron_words``.
    """

    def __init__(self, basis: OperatorEnsemble, monomials: tuple, words: np.ndarray, label: str):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_words", words)
        (fcols, fvals), m = monomials, len(words)
        cols, vals = np.zeros((m, 1), dtype=np.intp), np.ones((m, 1), dtype=np.complex128)
        for letters in words.T:
            cols = (cols[:, :, None] * basis.dim + fcols[letters][:, None, :]).reshape(m, -1)
            vals = (vals[:, :, None] * fvals[letters][:, None, :]).reshape(m, -1)
        if not math.isfinite(np.vdot(vals, vals).real):
            raise ValueError(_OVERFLOW)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    @cached_property
    def stack(self) -> np.ndarray:
        return _kron_words(self._basis.stack, self._words)

    @cached_property
    def operators(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack)

    @property
    def dim(self) -> int:
        return self.cols.shape[1]

    def __len__(self) -> int:
        return len(self.cols)

    def images(self, frame: np.ndarray) -> np.ndarray:
        images = np.asarray(frame, dtype=np.complex128)[self.cols.T]  # (n, m, d)
        np.multiply(self.vals.T[:, :, None], images, out=images)
        images += 0.0  # turns -0.0 into +0.0, as the dense product's sum of zeros does
        return images


def _register(
    basis: OperatorEnsemble, dim: int, r: int, words: Iterable[Iterable[int]], count: int, label: str
) -> OperatorEnsemble:
    """The ``count`` r-fold products ``basis[w_1] (x) ... (x) basis[w_r]``, one per word.

    ``dim`` is ``basis.dim**r`` as ``_check_register`` returned it. The
    byte budget is checked from ``count``, as if every member were dense,
    before the first word is drawn, so ``words`` may be a lazy generator of
    any length. The words are then drawn into a (count, r) array. When every
    basis operator has at most one nonzero per row, the family is held as
    its column and value tables; otherwise its members are built at once by
    ``_kron_words``. Either way a member is ``kron_all``'s left ``np.kron``
    fold over its word.
    """
    _check_family_bytes(count, dim)
    words = np.array(list(words), dtype=np.intp).reshape(count, r)
    monomials = _monomial(basis.stack)
    with np.errstate(over="ignore", invalid="ignore"):  # a product that overflows is refused by the family, not warned of
        if monomials is not None:
            return _LiftedEnsemble(basis, monomials, words, label)
        stack = _kron_words(basis.stack, words)
        if not math.isfinite(np.vdot(stack, stack).real):  # the factors are finite, so a non-finite product overflowed
            raise ValueError(_OVERFLOW)
    return OperatorEnsemble(stack, label=label)


def tensor_product(a: OperatorEnsemble, b: OperatorEnsemble) -> OperatorEnsemble:
    """All pairwise tensor products {A_i (x) B_j}, ordered lexicographically."""
    _check_dim(a.dim * b.dim)
    _check_family_bytes(len(a) * len(b), a.dim * b.dim)
    # np.kron's products, every pair at once
    ops = (a.stack[:, None, :, None, :, None] * b.stack[None, :, None, :, None, :]).reshape(len(a) * len(b), a.dim * b.dim, -1)
    ops.setflags(write=False)  # adopted as the family's stack
    return OperatorEnsemble(ops, label=f"{a.label}(x){b.label}")


def tensor_power(ensemble: OperatorEnsemble, r: int) -> OperatorEnsemble:
    """r-fold tensor power acting independently on each subsystem, words in lexicographic order."""
    if r < 1:
        raise ValueError(f"tensor power needs r >= 1, got {r}")
    dim = _check_register(ensemble.dim, r)
    m = len(ensemble)
    return _register(ensemble, dim, r, product(range(m), repeat=r), m**r, f"{ensemble.label}^(x){r}")


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
    dim = _check_register(one_qubit_basis.dim, r)
    count = sum(math.comb(r, j) * (len(one_qubit_basis) - 1) ** j for j in range(e + 1))
    words = _bounded_words(one_qubit_basis, r, e, tol)
    return _register(one_qubit_basis, dim, r, words, count, f"{one_qubit_basis.label}[r={r},e<={e}]")


def strength(ensemble: OperatorEnsemble) -> float:
    """Largest eigenvalue of sum A^dag A (the exact sup over unit vectors)."""
    return float(np.max(np.linalg.eigvalsh(_sum_adag_a(ensemble))))


def compose(outer: OperatorEnsemble, inner: OperatorEnsemble) -> OperatorEnsemble:
    """Composite family {R_r A_a} of applying ``inner`` then ``outer``."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch: {outer.dim} vs {inner.dim}")
    _check_family_bytes(len(outer) * len(inner), outer.dim)
    ops = (outer.stack[:, None] @ inner.stack[None]).reshape(-1, outer.dim, outer.dim)
    ops.setflags(write=False)  # adopted as the family's stack
    return OperatorEnsemble(ops, label=f"{outer.label}*{inner.label}")
