"""Code subspaces and correctability checks.

A quantum code is a k-dimensional subspace of an n-dimensional coding
space, stored as an explicit orthonormal basis of logical states. The
central check is ``kl_check``: a code extends to one correcting an operator
family {A_a} iff every cross matrix element <i|A_a^dag A_b|j> vanishes for
i != j and the diagonal elements are independent of the logical index.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from itertools import combinations

import numpy as np

from .channels import OperatorEnsemble
from .config import DEFAULT_TOL, ToleranceConfig
from .linalg import DensityMatrix, PureState, QubitSubset, _check_bytes, dagger, kron_all, orthonormalize, partial_trace


@dataclass(frozen=True, eq=False)
class QuantumCode:
    """Orthonormal basis of a k-dimensional subspace of an n-dimensional space."""

    basis: tuple[PureState, ...]
    label: str = ""
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig):
        states = tuple(self.basis)
        if not states:
            raise ValueError("a code needs at least one basis state")
        dim = states[0].dim
        shape = states[0].shape
        for s in states:
            if s.dim != dim:
                raise ValueError("basis states must share one dimension")
            if s.shape != shape:
                raise ValueError("basis states must share one register shape")
        mat = np.column_stack([s.amplitudes for s in states])
        gram = dagger(mat) @ mat
        viol = float(np.max(np.abs(gram - np.eye(len(states)))))
        if viol > tol.norm:
            raise ValueError(f"code basis is not orthonormal (violation {viol:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "basis", states)
        object.__setattr__(self, "_matrix", mat)

    @property
    def n(self) -> int:
        return self.basis[0].dim

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def shape(self) -> tuple[int, ...] | None:
        return self.basis[0].shape

    @property
    def matrix(self) -> np.ndarray:
        """n x k matrix whose columns are the logical basis states."""
        return self._matrix

    def projector(self) -> np.ndarray:
        return self._matrix @ dagger(self._matrix)


@dataclass(frozen=True, eq=False)
class KLReport:
    """Outcome of the correctability conditions for a (code, errors) pair.

    ``lambda_matrix[a, b]`` holds the common value of <i|A_a^dag A_b|i>
    (averaged over the logical index; the spread is what
    ``max_diag_violation`` measures). ``witness`` is the (a, b, i, j) index
    of the worst violation when the check fails.
    """

    passed: bool
    max_offdiag_violation: float
    max_diag_violation: float
    lambda_matrix: np.ndarray
    witness: tuple[int, int, int, int] | None
    tol: float


def _images(ensemble: OperatorEnsemble, frame: np.ndarray) -> np.ndarray:
    """Images of an n x d frame as an (n, m, d) array: ``X[:, a, i] = A_a frame[:, i]``."""
    images = np.empty((frame.shape[0], len(ensemble), frame.shape[1]), dtype=np.complex128)
    for a, op in enumerate(ensemble):
        images[:, a, :] = op @ frame
    return images


def _error_images(code: QuantumCode, ensemble: OperatorEnsemble) -> np.ndarray:
    """Error images as an (n, m, k) array: ``X[:, a, i] = A_a |i_L>``."""
    if ensemble.dim != code.n:
        raise ValueError(f"dimension mismatch: operators {ensemble.dim}, code {code.n}")
    return _images(ensemble, code.matrix)


def _image_gram(images: np.ndarray) -> np.ndarray:
    """``G[a, b, i, j] = <A_a i_L|A_b j_L>`` from one product of the stacked images, refused before it is formed."""
    n, m, k = images.shape
    _check_bytes(16 * (m * k) ** 2, f"image Gram ({m * k} x {m * k})")
    flat = images.reshape(n, m * k)
    return (dagger(flat) @ flat).reshape(m, k, m, k).transpose(0, 2, 1, 3)


def _slice_max(k: int, values) -> tuple[float, tuple[int, int, int, int]]:
    """Maximum of V[a, b, i, j] = values(i, j)[a, b] over all four indices, one (i, j) slice at a time.

    The witness is the first index in C order within rounding of the
    maximum, so exact ties give one witness whatever order the Gram was
    summed in.
    """
    maxima = np.array([[values(i, j).max() for j in range(k)] for i in range(k)])
    top = float(maxima.max())
    floor = top * (1.0 - 1e-12)
    witnesses = []
    for i, j in np.argwhere(maxima >= floor):  # only these slices hold a candidate
        v = values(i, j)
        witnesses.append((*np.unravel_index(int(np.flatnonzero(v >= floor)[0]), v.shape), i, j))
    return top, tuple(int(x) for x in min(witnesses))


def kl_check(code: QuantumCode, errors: OperatorEnsemble, tol: ToleranceConfig = DEFAULT_TOL) -> KLReport:
    """Check the correctability conditions for ``code`` against ``errors``.

    Computes every G[a, b, i, j] = <i_L|A_a^dag A_b|j_L>, the Gram matrix of
    the error images A_a|i_L>. The check passes iff all i != j entries
    vanish and the diagonal entries do not depend on the logical index, both
    within ``tol.check`` (absolute; the inputs are unit vectors). G as an (mk) x
    (mk) matrix over k, and sum_i G[:, :, i, i] / k, carry the spectra of the
    corrupted mixed and entangled codeword states (``entropy_test``, quant-ph/9604022).
    Violations are reduced one m x m logical slice at a time, so no second
    array of the Gram's size is formed.
    """
    gram = _image_gram(_error_images(code, errors))
    m, k = gram.shape[0], code.k
    idx = np.arange(k)
    diags = gram[:, :, idx, idx]  # (m, m, k)
    zero = np.zeros((m, m))
    max_off, off_witness = _slice_max(k, lambda i, j: np.abs(gram[:, :, i, j]) if i != j else zero)
    max_diag, diag_witness = _slice_max(k, lambda i, j: np.abs(diags[:, :, i] - diags[:, :, j]))

    passed = max_off < tol.check and max_diag < tol.check
    witness = None
    if not passed:
        witness = off_witness if max_off >= max_diag else diag_witness
    return KLReport(
        passed=passed,
        max_offdiag_violation=max_off,
        max_diag_violation=max_diag,
        lambda_matrix=diags.mean(axis=2),
        witness=witness,
        tol=tol.check,
    )


@dataclass(frozen=True, eq=False)
class ReducedDMReport:
    """Outcome of the reduced-density-matrix criterion for e-error correction.

    For every qubit subset U of size 2e the logical states must have (i)
    identical marginals on U and (ii) orthogonally supported marginals on
    the complement of U.
    """

    passed: bool
    max_marginal_mismatch: float
    max_support_overlap: float
    witness_subset: QubitSubset | None
    witness_pair: tuple[int, int] | None
    tol: float


def reduced_dm_check(code: QuantumCode, e: int, tol: ToleranceConfig = DEFAULT_TOL) -> ReducedDMReport:
    """e-error correction criterion via reduced density matrices, both residuals within ``tol.check``."""
    if code.shape is None or any(f != 2 for f in code.shape):
        raise ValueError("reduced-density-matrix check requires an all-qubit register shape")
    r = len(code.shape)
    if e < 0 or 2 * e > r:
        raise ValueError(f"need 0 <= 2e <= number of qubits, got e={e}, r={r}")

    densities = [s.density() for s in code.basis]
    max_mismatch = 0.0
    max_overlap = 0.0
    witness_subset: QubitSubset | None = None
    witness_pair: tuple[int, int] | None = None

    def marginals(subset: tuple[int, ...]) -> list[DensityMatrix]:
        return [partial_trace(d, subset) for d in densities]

    for u in combinations(range(1, r + 1), 2 * e):
        on_u = marginals(u)
        complement = tuple(q for q in range(1, r + 1) if q not in u)
        on_comp = marginals(complement)
        for i in range(code.k):
            for j in range(i + 1, code.k):
                mismatch = float(np.max(np.abs(on_u[i].matrix - on_u[j].matrix)))
                overlap = float(np.max(np.abs(on_comp[i].matrix @ on_comp[j].matrix)))
                if mismatch > max_mismatch:
                    max_mismatch, witness_subset, witness_pair = mismatch, QubitSubset(u), (i, j)
                if overlap > max_overlap:
                    max_overlap, witness_subset, witness_pair = overlap, QubitSubset(u), (i, j)

    passed = max_mismatch < tol.check and max_overlap < tol.check
    return ReducedDMReport(
        passed=passed,
        max_marginal_mismatch=max_mismatch,
        max_support_overlap=max_overlap,
        witness_subset=None if passed else witness_subset,
        witness_pair=None if passed else witness_pair,
        tol=tol.check,
    )


def qubit_lower_bound(e: int, k: int) -> int:
    """Minimal qubit count r >= 4e + ceil(log2 k) for an e-error-correcting code."""
    if k < 1 or e < 0:
        raise ValueError(f"need k >= 1 and e >= 0, got k={k}, e={e}")
    return 4 * e + (k - 1).bit_length()


def naive_counting_bound(r: int, e: int, k: int) -> tuple[bool, int, int]:
    """Informational sphere-packing count: k * sum_{j<=e} C(r,j) 3^j <= 2^r.

    The count treats differently-corrupted codewords as independent, which
    the correctability conditions do not force, so failing this bound does
    not prove impossibility; it is reported as a heuristic.
    """
    if r < 0 or e < 0 or k < 1:
        raise ValueError(f"invalid arguments r={r}, e={e}, k={k}")
    lhs = k * sum(math.comb(r, j) * 3**j for j in range(e + 1))
    rhs = 2**r
    return lhs <= rhs, lhs, rhs


_PLUS = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0)


def repetition_phase_code(m: int, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumCode:
    """Phase-flip repetition code on m qubits: logical states (|0> +- |1>)^(x m).

    Majority rule over the +- sign pattern corrects up to (m-1)/2 phase
    flips; m must be odd (and <= 7 under the dimension policy).
    """
    if m % 2 == 0:
        raise ValueError(f"repetition phase code needs odd m, got {m}")
    if m < 1 or m > 7:
        raise ValueError(f"m must be in 1..7, got {m}")
    shape = (2,) * m
    zero = kron_all([_PLUS.reshape(2, 1)] * m).reshape(-1)
    one = kron_all([_MINUS.reshape(2, 1)] * m).reshape(-1)
    return QuantumCode(
        (PureState(zero, shape, tol=tol), PureState(one, shape, tol=tol)),
        label=f"phase{m}",
        tol=tol,
    )


def builtin_code(name: str, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumCode:
    """Catalogued codes: phase3/phase5/phase7, pair, trivial(d)."""
    key = name.strip().lower()
    if key in ("phase3", "phase5", "phase7"):
        return repetition_phase_code(int(key[-1]), tol=tol)
    if key == "pair":
        shape = (2, 2)
        zero = np.zeros(4, dtype=np.complex128)
        zero[0] = 1.0
        one = np.zeros(4, dtype=np.complex128)
        one[3] = 1.0
        return QuantumCode(
            (PureState(zero, shape, tol=tol), PureState(one, shape, tol=tol)),
            label="pair",
            tol=tol,
        )
    if key.startswith("trivial"):
        rest = key[len("trivial"):].strip("():")
        d = int(rest) if rest else 2
        if d < 1:
            raise ValueError(f"trivial code dimension must be >= 1, got {d}")
        shape = (2,) * int(math.log2(d)) if d & (d - 1) == 0 and d > 1 else None
        eye = np.eye(d, dtype=np.complex128)
        states = tuple(PureState(eye[:, i], shape, tol=tol) for i in range(d))
        return QuantumCode(states, label=f"trivial({d})", tol=tol)
    raise ValueError(f"unknown code name {name!r}; known: phase3, phase5, phase7, pair, trivial(d)")


def random_code(
    n: int,
    k: int,
    seed: int,
    shape: tuple[int, ...] | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> QuantumCode:
    """Random code: orthonormalized columns of an n x k complex Gaussian matrix.

    The seed is recorded in the label so a failing property trial can be
    replayed exactly.
    """
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    basis, _, rank = orthonormalize(list(g.T), rank_tol=1e-12)
    if rank != k:  # pragma: no cover - zero-probability event
        raise ValueError("random matrix was rank deficient; pick another seed")
    states = tuple(PureState(v, shape, tol=tol) for v in basis)
    return QuantumCode(states, label=f"random(n={n},k={k},seed={seed})", tol=tol)
