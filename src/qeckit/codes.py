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
from .linalg import PureState, QubitSubset, _check_bytes, _check_dim, dagger, kron_all, orthonormalize


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
        _check_dim(dim)
        shape = states[0].shape
        for s in states:
            if s.dim != dim:
                raise ValueError("basis states must share one dimension")
            if s.shape != shape:
                raise ValueError("basis states must share one register shape")
        mat = np.column_stack([s.amplitudes for s in states])
        gram = dagger(mat) @ mat
        viol = float(np.max(np.abs(gram - np.eye(len(states)))))
        if viol > tol.check:
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


def _error_images(code: QuantumCode, ensemble: OperatorEnsemble) -> np.ndarray:
    """Error images as an (n, m, k) array: ``X[:, a, i] = A_a |i_L>``."""
    if ensemble.dim != code.n:
        raise ValueError(f"dimension mismatch: operators {ensemble.dim}, code {code.n}")
    return ensemble.images(code.matrix)


def _image_gram(images: np.ndarray) -> np.ndarray:
    """``G[a, b, i, j] = <A_a i_L|A_b j_L>`` as an (m, m, k, k) view of one (km x km) array in logical-block order.

    Only the upper logical blocks ``G_ij = X_i^dag X_j`` (i <= j, ``X_i =
    images[:, :, i]``) are products, one per logical row i over the columns
    of ``X_i, ..., X_{k-1}`` in one contiguous (n, km) copy of the images.
    Each lower block is the conjugate transpose of its mirror, and each
    diagonal block's strict upper triangle the conjugate of its strict lower
    one, with a real diagonal, so G is exactly Hermitian:
    ``G[:, :, j, i] == G[:, :, i, j].conj().T`` for every i and j. The
    lower triangle is the one kept because a BLAS may round a product's
    trailing columns differently from its leading ones, and the lower
    triangle matches the bits of one whole (km x km) product in more entries.
    """
    n, m, k = images.shape
    xs = np.ascontiguousarray(images.transpose(0, 2, 1)).reshape(n, k * m)  # X_i = xs[:, i m:(i + 1) m]
    x_conj = np.empty((n, m), dtype=np.complex128)
    flat = np.empty((k * m, k * m), dtype=np.complex128)
    gram = flat.reshape(k, m, k, m).transpose(1, 3, 0, 2)
    for i in range(k):
        rows = slice(i * m, (i + 1) * m)
        np.conjugate(xs[:, rows], out=x_conj)
        np.matmul(x_conj.T, xs[:, i * m:], out=flat[rows, i * m:])
        block = gram[:, :, i, i]
        for a in range(m - 1):
            np.conjugate(block[a + 1:, a], out=block[a, a + 1:])
        np.fill_diagonal(block.imag, 0.0)
        for j in range(i):
            np.conjugate(gram[:, :, j, i].T, out=gram[:, :, i, j])
        flat[rows, :(i + 1) * m] += 0.0  # a mirrored +0.0 comes back as -0.0; the product itself gives +0.0
    return gram


def _error_gram(code: QuantumCode, errors: OperatorEnsemble) -> np.ndarray:
    """``_image_gram`` of the error images, refused from m, n and k alone before any image is formed.

    The budget counts the Gram's 16 (mk)^2 bytes plus 16 nmk bytes each for
    the images and their contiguous (n, km) copy.
    """
    mk = len(errors) * code.k
    _check_bytes(16 * mk**2 + 2 * 16 * code.n * mk, f"image Gram ({mk} x {mk}) and its images")
    return _image_gram(_error_images(code, errors))


def _pair_max(k: int, values, mirror: bool) -> tuple[float, tuple[int, int, int, int] | None]:
    """Maximum of V[a, b, i, j] = values(i, j)[a, b] over all four indices, one logical pair i < j at a time.

    V is symmetric under i <-> j: with ``mirror`` as V[b, a, j, i] =
    V[a, b, i, j], otherwise as V[a, b, j, i] = V[a, b, i, j]. The witness
    is the first index in C order within rounding of the maximum, so exact
    ties give one witness whatever order the Gram was summed in. Only the
    slices that hold a candidate are read again, each with its mirrored
    (j, i) candidates when ``mirror`` is set (otherwise those come after the
    slice's own in C order). With k = 1 there is no pair: 0.0 and no witness.
    """
    pairs = list(combinations(range(k), 2))
    if not pairs:
        return 0.0, None
    maxima = np.array([values(i, j).max() for i, j in pairs])
    top = float(maxima.max())
    floor = top * (1.0 - 1e-12)
    witnesses = []
    for (i, j), peak in zip(pairs, maxima):
        if peak < floor:
            continue
        hits = values(i, j) >= floor
        a, b = np.unravel_index(int(np.flatnonzero(hits)[0]), hits.shape)
        witnesses.append((a, b, i, j))
        if mirror:
            b, a = np.unravel_index(int(np.flatnonzero(hits.T)[0]), hits.shape)
            witnesses.append((b, a, j, i))
    return top, tuple(int(x) for x in min(witnesses))


def kl_check(code: QuantumCode, errors: OperatorEnsemble, tol: ToleranceConfig = DEFAULT_TOL) -> KLReport:
    """Check the correctability conditions for ``code`` against ``errors``.

    Computes every G[a, b, i, j] = <i_L|A_a^dag A_b|j_L>, the Gram matrix of
    the error images A_a|i_L>. The check passes iff all i != j entries
    vanish and the diagonal entries do not depend on the logical index, both
    within ``tol.check`` (absolute; the inputs are unit vectors). G as an (mk) x
    (mk) matrix over k, and sum_i G[:, :, i, i] / k, carry the spectra of the
    corrupted mixed and entangled codeword states (``entropy_test``, quant-ph/9604022).
    Since G is Hermitian, both violations are reduced over the logical pairs
    i < j only, one m x m slice at a time: |G[:, :, i, i] - G[:, :, j, j]|
    is symmetric in i and j, and |G[:, :, j, i]| is the transpose of
    |G[:, :, i, j]|, whose mirrored entries join the witness search. No second
    array of the Gram's size is formed.
    """
    gram = _error_gram(code, errors)
    m, k = gram.shape[0], code.k
    diff, mag = np.empty((m, m), dtype=np.complex128), np.empty((m, m))  # one buffer each for every slice
    max_off, off_witness = _pair_max(k, lambda i, j: np.abs(gram[:, :, i, j], out=mag), mirror=True)
    max_diag, diag_witness = _pair_max(
        k, lambda i, j: np.abs(np.subtract(gram[:, :, i, i], gram[:, :, j, j], out=diff), out=mag), mirror=False
    )

    lam = gram[:, :, 0, 0].copy()
    for i in range(1, k):
        lam += gram[:, :, i, i]

    passed = max_off < tol.check and max_diag < tol.check
    witness = None
    if not passed:
        witness = off_witness if max_off >= max_diag else diag_witness
    return KLReport(
        passed=passed,
        max_offdiag_violation=max_off,
        max_diag_violation=max_diag,
        lambda_matrix=lam / k,
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
    """e-error correction criterion via reduced density matrices, both residuals within ``tol.check``.

    Each marginal is read off the code vectors: |i_L> as a 2^(2e) x 2^(r-2e) matrix M_i (rows on the subset U) has
    the marginals M_i M_i^dag on U and M_i^T conj(M_i) on its complement, about k 2^r work per subset.
    """
    if code.shape is None or any(f != 2 for f in code.shape):
        raise ValueError("reduced-density-matrix check requires an all-qubit register shape")
    r = len(code.shape)
    if e < 0 or 2 * e > r:
        raise ValueError(f"need 0 <= 2e <= number of qubits, got e={e}, r={r}")

    amplitudes = code.matrix.T.reshape((code.k, *code.shape))  # axis q holds qubit q
    max_mismatch = max_overlap = 0.0
    witness_subset: QubitSubset | None = None
    witness_pair: tuple[int, int] | None = None
    for u in combinations(range(1, r + 1), 2 * e):
        rest = tuple(q for q in range(1, r + 1) if q not in u)
        m = amplitudes.transpose(0, *u, *rest).reshape(code.k, 2 ** (2 * e), -1)
        on_u = m @ m.conj().transpose(0, 2, 1)
        on_rest = m.transpose(0, 2, 1) @ m.conj()
        for i, j in combinations(range(code.k), 2):
            mismatch = float(np.max(np.abs(on_u[i] - on_u[j])))
            overlap = float(np.max(np.abs(on_rest[i] @ on_rest[j])))
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


BUILTIN_CODES = ("phase3", "phase5", "phase7", "pair", "trivial(d)")


def names_builtin_code(name: str) -> bool:
    """Whether ``name`` has the form of a catalogued code, which ``builtin_code`` may still refuse."""
    key = name.strip().lower()
    return key in BUILTIN_CODES or key.startswith("trivial")


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
        try:
            d = int(rest) if rest else 2
        except ValueError:
            raise ValueError(f"trivial code dimension must be an integer, got {rest!r}") from None
        if d < 1:
            raise ValueError(f"trivial code dimension must be >= 1, got {d}")
        _check_dim(d)
        shape = (2,) * int(math.log2(d)) if d & (d - 1) == 0 and d > 1 else None
        eye = np.eye(d, dtype=np.complex128)
        states = tuple(PureState(eye[:, i], shape, tol=tol) for i in range(d))
        return QuantumCode(states, label=f"trivial({d})", tol=tol)
    raise ValueError(f"unknown code name {name!r}; known: {', '.join(BUILTIN_CODES)}")


def random_code(
    n: int,
    k: int,
    seed: int,
    shape: tuple[int, ...] | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> QuantumCode:
    """Random code: orthonormalized columns of an n x k complex Gaussian matrix.

    The seed is recorded in the label so a failing property trial can be
    replayed exactly. Sizes no seed can meet (``n < 1``, ``k < 1`` or
    ``k > n``) and ``n`` above ``DIM_CAP`` are refused before any draw.
    """
    if n < 1 or k < 1:
        raise ValueError(f"a random code needs n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"a random code needs k <= n: {k} orthonormal states do not fit in dimension {n}")
    _check_dim(n)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    basis, _, rank = orthonormalize(list(g.T))
    if rank != k:  # pragma: no cover - zero-probability event
        raise ValueError("random matrix was rank deficient; pick another seed")
    states = tuple(PureState(v, shape, tol=tol) for v in basis)
    return QuantumCode(states, label=f"random(n={n},k={k},seed={seed})", tol=tol)
