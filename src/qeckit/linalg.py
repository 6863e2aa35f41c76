"""Dense complex linear algebra on qubit registers.

Matrices and vectors are plain ``numpy`` arrays of ``complex128``; the
state types below validate the physical invariants (normalization,
hermiticity, positivity). All operations are pure functions and all
values are frozen after construction.
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

# Relative rank cutoff of ``orthonormalize``, and recovery's rank cuts.
_RANK_TOL = 1e-10
# Eigenvalues at or below this contribute zero entropy (0 log 0 = 0).
_ENTROPY_FLOOR = 1e-14


def _check_dim(dim: int) -> None:
    """Refuse (``CapacityError``) a dimension above ``DIM_CAP``."""
    if dim > DIM_CAP:
        raise CapacityError(f"dimension {dim} exceeds the cap {DIM_CAP}")


def _check_register(dim: int, r: int) -> int:
    """``dim**r``, the dimension of r subsystems of dimension ``dim``, refused above ``DIM_CAP`` before it is formed."""
    if dim > 1 and r > math.log2(DIM_CAP) / math.log2(dim):
        shown = dim**r if r <= 64 else f"{dim}**{r:.6g}"  # a huge power is named, not formed
        raise CapacityError(f"dimension {shown} exceeds the cap {DIM_CAP}")
    return dim**r


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
        with np.errstate(over="ignore"):  # an overflowing norm is refused as unnormalized, not warned of
            nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > tol.check:
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
            if tr > 1.0 + tol.check or tr < -tol.check:
                raise NotAStateError(f"subnormalized state needs 0 <= trace <= 1, got {tr:.6f}")
        elif abs(tr - 1.0) > tol.check:
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


def kron_all(mats: Sequence) -> np.ndarray:
    """Tensor product of a sequence of matrices, left to right."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, _as_matrix(m))
    return out


def orthonormalize(vectors: Sequence) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Orthonormalize a batch of vectors, tracking expansion coefficients.

    Modified Gram-Schmidt with one re-orthogonalization pass, which keeps
    the basis orthonormal even when inputs are nearly dependent. A vector
    whose residual norm after projection falls below ``_RANK_TOL`` times the
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
    cutoff = _RANK_TOL * scale

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


def von_neumann_entropy(rho, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Entropy in bits: -sum(lam * log2(lam)) over eigenvalues above the floor."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else _as_matrix(rho)
    eigs = np.linalg.eigvalsh((mat + dagger(mat)) / 2.0)
    lo = float(eigs.min()) if eigs.size else 0.0
    if lo < -tol.check:
        raise NotAStateError(f"not a state: negative eigenvalue {lo:.3e}")
    lams = eigs[eigs > _ENTROPY_FLOOR]
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
