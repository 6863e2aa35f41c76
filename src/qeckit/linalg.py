"""Dense complex linear algebra on qubit registers.

Matrices and vectors are plain ``numpy`` arrays of ``complex128``; the
wrapper types below add register-shape metadata and validate the physical
invariants (normalization, hermiticity, positivity). All operations are
pure functions and all values are frozen after construction.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import CapacityError, NotAStateError

#: Dense-algebra policy cap: coding spaces above 2**8 are refused.
DIM_CAP = 2**8

#: Byte budget for one family of dense operators (count * dim**2 complex
#: entries); larger families are refused before any operator is built.
ENSEMBLE_BYTE_CAP = 4 * 2**30


def _check_dim(dim: int) -> None:
    """Refuse (``CapacityError``) a dimension above ``DIM_CAP``."""
    if dim > DIM_CAP:
        raise CapacityError(f"dimension {dim} exceeds the cap {DIM_CAP}")


def _check_bytes(need: int, what: str) -> None:
    """Refuse ``need`` bytes of dense arrays (described by ``what``) above ``ENSEMBLE_BYTE_CAP``."""
    if need > ENSEMBLE_BYTE_CAP:
        raise CapacityError(f"{what} need {need / 2**30:.3g} GiB, above the {ENSEMBLE_BYTE_CAP / 2**30:.3g} GiB cap")


def _as_matrix(m) -> np.ndarray:
    mat = np.asarray(m, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return mat


def _as_vector(v) -> np.ndarray:
    if isinstance(v, PureState):
        return v.amplitudes
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector entries must be finite")
    return vec


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector with an optional register factorization, e.g. (2, 2, 2)."""

    amplitudes: np.ndarray
    shape: tuple[int, ...] | None = None
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig):
        vec = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if not np.all(np.isfinite(vec)):
            raise ValueError("state amplitudes must be finite")
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > tol.norm:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        if self.shape is not None:
            shp = tuple(int(f) for f in self.shape)
            if math.prod(shp) != vec.size:
                raise ValueError(f"shape {shp} does not factor dimension {vec.size}")
            object.__setattr__(self, "shape", shp)
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), shape=self.shape)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite matrix with trace 1.

    ``subnormalized`` relaxes the trace condition to trace <= 1, which is the
    state produced by an incomplete (non-trace-preserving) operator family.
    """

    matrix: np.ndarray
    shape: tuple[int, ...] | None = None
    subnormalized: bool = False
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, tol: ToleranceConfig):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix entries must be finite")
        herm = float(np.max(np.abs(mat - dagger(mat)))) if mat.size else 0.0
        if herm > tol.check:
            raise NotAStateError(f"matrix is not hermitian (residual {herm:.3e})")
        tr = float(np.trace(mat).real)
        if self.subnormalized:
            if tr > 1.0 + tol.norm or tr < -tol.norm:
                raise NotAStateError(f"subnormalized state needs 0 <= trace <= 1, got {tr:.6f}")
        elif abs(tr - 1.0) > tol.norm:
            raise NotAStateError(f"trace must be 1, got {tr:.12f}")
        lo = float(np.min(np.linalg.eigvalsh(mat))) if mat.size else 0.0
        if lo < -tol.check:
            raise NotAStateError(f"matrix has negative eigenvalue {lo:.3e}")
        if self.shape is not None:
            shp = tuple(int(f) for f in self.shape)
            if math.prod(shp) != mat.shape[0]:
                raise ValueError(f"shape {shp} does not factor dimension {mat.shape[0]}")
            object.__setattr__(self, "shape", shp)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class QubitSubset:
    """Sorted, distinct qubit positions; positions are 1-based."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise IndexError(f"qubit positions must be distinct, got {idx}")
        if any(i < 1 for i in idx):
            raise IndexError(f"qubit positions are 1-based, got {idx}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def validate(self, num_qubits: int) -> None:
        for i in self.indices:
            if i > num_qubits:
                raise IndexError(f"qubit position {i} out of range 1..{num_qubits}")

    def __len__(self) -> int:
        return len(self.indices)


def kron(a, b) -> np.ndarray:
    """Tensor product of two matrices (row-major, first factor most significant)."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def kron_all(mats: Sequence) -> np.ndarray:
    """Tensor product of a sequence of matrices, left to right."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, _as_matrix(m))
    return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in ``keep`` (1-based positions).

    Requires an all-qubit register shape on ``rho``. Keeping the empty
    subset returns the 1x1 matrix holding the trace.
    """
    if rho.shape is None:
        raise ValueError("partial trace requires the register shape of the density matrix")
    if any(f != 2 for f in rho.shape):
        raise ValueError(f"partial trace requires an all-qubit register, got shape {rho.shape}")
    r = len(rho.shape)
    subset = keep if isinstance(keep, QubitSubset) else QubitSubset(tuple(keep))
    subset.validate(r)
    keep0 = [i - 1 for i in subset.indices]
    traced = sorted((q for q in range(r) if q not in keep0), reverse=True)

    work = rho.matrix.reshape((2,) * (2 * r))
    remaining = r
    for q in traced:
        work = np.trace(work, axis1=q, axis2=q + remaining)
        remaining -= 1
    dim = 2 ** len(keep0)
    mat = work.reshape(dim, dim)
    shape = (2,) * len(keep0) if keep0 else None
    return DensityMatrix(mat, shape=shape, subnormalized=rho.subnormalized)


def orthonormalize(
    vectors: Sequence, rank_tol: float = DEFAULT_TOL.rank
) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Orthonormalize a batch of vectors, tracking expansion coefficients.

    Modified Gram-Schmidt with one re-orthogonalization pass, which keeps
    the basis orthonormal even when inputs are nearly dependent. A vector
    whose residual norm after projection falls below ``rank_tol`` times the
    largest input norm contributes no new basis vector.

    Returns ``(basis, coeffs, rank)`` with ``vectors[j] ~= sum_i
    coeffs[i, j] * basis[i]``; ``coeffs`` has staircase (upper-triangular)
    structure and shape ``(rank, len(vectors))``.
    """
    vecs = [_as_vector(v) for v in vectors]
    m = len(vecs)
    if m == 0:
        return [], np.zeros((0, 0), dtype=np.complex128), 0
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise ValueError("all vectors must share one dimension")

    scale = max((float(np.linalg.norm(v)) for v in vecs), default=0.0)
    if scale == 0.0:
        return [], np.zeros((0, m), dtype=np.complex128), 0
    cutoff = rank_tol * scale

    basis: list[np.ndarray] = []
    columns: list[np.ndarray] = []
    for v in vecs:
        w = v.astype(np.complex128, copy=True)
        coeff = np.zeros(len(basis), dtype=np.complex128)
        for _ in range(2):  # second pass controls loss of orthogonality
            for i, b in enumerate(basis):
                c = np.vdot(b, w)
                coeff[i] += c
                w -= c * b
        nrm = float(np.linalg.norm(w))
        if nrm > cutoff:
            basis.append(w / nrm)
            coeff = np.append(coeff, nrm)
        columns.append(coeff)

    rank = len(basis)
    coeffs = np.zeros((rank, m), dtype=np.complex128)
    for j, col in enumerate(columns):
        coeffs[: col.size, j] = col
    for b in basis:
        b.setflags(write=False)
    return basis, coeffs, rank


def _check_frame(vectors: list[np.ndarray], tol: float, role: str) -> None:
    frame = np.column_stack(vectors)
    gram = dagger(frame) @ frame
    viol = float(np.max(np.abs(gram - np.eye(len(vectors)))))
    if viol > tol:
        raise ValueError(f"{role} vectors are not orthonormal (max violation {viol:.3e})")


def _complete_frame(vectors: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Deterministic orthonormal completion: project out the standard basis in index order."""
    seed = list(vectors) + [np.eye(dim, dtype=np.complex128)[:, j] for j in range(dim)]
    basis, _, _ = orthonormalize(seed, rank_tol=1e-8)
    return basis[len(vectors):]


def unitary_extension(
    pairs: Sequence[tuple], dim: int | None = None, tol: float = DEFAULT_TOL.check
) -> np.ndarray:
    """Unitary matrix sending each input vector to its paired output.

    Inputs and outputs must each form orthonormal sets of a common
    dimension. The map is completed deterministically by orthonormalizing
    the complements of the input and output spans and pairing them in index
    order; an empty list yields the identity (``dim`` required then).
    """
    pairs = list(pairs)
    if not pairs:
        if dim is None:
            raise ValueError("dim is required to extend an empty map")
        return np.eye(dim, dtype=np.complex128)

    ins = [_as_vector(x) for x, _ in pairs]
    outs = [_as_vector(y) for _, y in pairs]
    d = ins[0].size
    if any(v.size != d for v in ins + outs):
        raise ValueError("all inputs and outputs must share one dimension")
    if dim is not None and dim != d:
        raise ValueError(f"dim={dim} conflicts with vector dimension {d}")
    _check_frame(ins, tol, "input")
    _check_frame(outs, tol, "output")

    comp_in = _complete_frame(ins, d)
    comp_out = _complete_frame(outs, d)
    w = np.zeros((d, d), dtype=np.complex128)
    for x, y in zip(ins + comp_in, outs + comp_out):
        w += np.outer(y, x.conj())
    return w


def von_neumann_entropy(rho, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Entropy in bits: -sum(lam * log2(lam)) over eigenvalues above the floor."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else _as_matrix(rho)
    eigs = np.linalg.eigvalsh((mat + dagger(mat)) / 2.0)
    lo = float(eigs.min()) if eigs.size else 0.0
    if lo < -tol.check:
        raise NotAStateError(f"not a state: negative eigenvalue {lo:.3e}")
    lams = eigs[eigs > tol.entropy_floor]
    if lams.size == 0:
        return 0.0
    return max(0.0, float(-np.sum(lams * np.log2(lams))))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Gaussian, phase-fixed)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    ph = d / np.abs(d)
    return q * ph.conj()
