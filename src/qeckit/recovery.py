"""Recovery-superoperator synthesis and the equivalent verification routes.

The synthesis follows the constructive argument behind the correctability
conditions: orthonormalize the images {A_a |0_L>} into syndrome frames
|nu_r^0> with coefficients beta[r, a]; the matching frames for every other
logical state are obtained by applying the identical coefficients (the
diagonal condition guarantees the Gram matrices agree), and each recovery
element R_r = sum_i |i_L><nu_r^i| is a projection onto one syndrome sector
followed by the decoding unitary. On the code, R_r A_a then acts as
beta[r, a] times the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import OperatorEnsemble, _require_superoperator
from .codes import QuantumCode, _error_images, _image_gram, kl_check
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NotCorrectableError
from .linalg import _RANK_TOL, _complete_frame, dagger, orthonormalize, random_unitary, von_neumann_entropy

# Construction residuals above this, or above tol.check when that is larger,
# indicate the coefficient-replay step broke down (inputs violate the
# correctability conditions more than the kl tolerance admitted, or the
# syndrome frames are too ill-conditioned).
_CONSTRUCTION_TOL = 1e-7

# The entropy route's gap is in bits, not a residual: -x log2 x is not Lipschitz
# at 0, so round-off in small eigenvalues moves it far more than a residual.
_ENTROPY_GAP_BITS = 1e-6


@dataclass(frozen=True, eq=False)
class RecoveryOperator:
    """Recovery superoperator: complement projection plus decoding elements.

    ``ensemble`` holds [O, R_1, ..., R_s]: element 0 projects onto the part
    of the space never reached from the code, and each R_r decodes one
    syndrome sector. ``syndrome_coefficients[r, a]`` is the scalar by which
    R_{r+1} A_a acts on the code.
    """

    ensemble: OperatorEnsemble
    syndrome_dim: int
    complement_dim: int
    syndrome_coefficients: np.ndarray

    @property
    def dim(self) -> int:
        return self.ensemble.dim


@dataclass(frozen=True, eq=False)
class SyndromeDecomposition:
    """Unitary identification of the coding space with (code x syndrome) + rest.

    ``iso_map`` is an n x n unitary whose column i*syndrome_dim + r is the
    frame vector |nu_r^i>, followed by a basis of the unreached complement.
    ``syndrome_vectors[:, a]`` are the coefficients of the syndrome state
    produced by operator a, so that A_a |Psi> = iso(|Psi> (x) |E(a)>) for
    every code state.
    """

    iso_map: np.ndarray
    syndrome_basis: tuple[np.ndarray, ...]
    complement_basis: tuple[np.ndarray, ...]
    syndrome_vectors: np.ndarray
    syndrome_dim: int
    complement_dim: int
    perfect: bool
    max_residual: float


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Residuals of the proportionality check R_r A_a = lambda[r, a] * I on the code."""

    lambda_values: np.ndarray
    max_identity_residual: float
    passed: bool
    route: str
    tol: float


@dataclass(frozen=True, eq=False)
class EntropyReport:
    """Information-route verdict: the entropy gap must equal log2(k) bits."""

    difference_bits: float
    passed: bool
    mixed_codeword_entropy: float
    entangled_image_entropy: float
    tol: float


def _syndrome_frames(code: QuantumCode, errors: OperatorEnsemble, tol: ToleranceConfig):
    """Per-logical syndrome frames Q_i (n x s) and shared coefficients C (s x m).

    Q_0 comes from orthonormalizing the images of the first logical state
    (ranks cut at ``_RANK_TOL``); Q_i for i > 0 solves X_i = Q_i C in the
    least-squares sense, which is exact (and Q_i orthonormal) precisely when
    the correctability conditions hold. A construction residual (frame
    orthonormality or factorization) above ``max(tol.check,
    _CONSTRUCTION_TOL)`` raises ``NotCorrectableError``. Returns
    (frames, C, rank, residual).
    """
    images = list(np.moveaxis(_error_images(code, errors), 2, 0).copy())  # k blocks, n x m
    basis0, coeff, rank = orthonormalize(list(images[0].T))
    if rank == 0:
        empty = np.zeros((code.n, 0), dtype=np.complex128)
        frames, residual = [empty] * code.k, float(max(np.max(np.abs(x)) for x in images))
    else:
        frames = [np.column_stack(basis0)]
        gram = coeff @ dagger(coeff)
        for i in range(1, code.k):
            frames.append(images[i] @ np.linalg.solve(gram, coeff).conj().T)
        joint = np.hstack(frames)  # n x ks; an isometry iff the frames are orthonormal together
        residual = max(
            float(np.max(np.abs(dagger(joint) @ joint - np.eye(code.k * rank)))),
            max(float(np.max(np.abs(x - q @ coeff))) for x, q in zip(images, frames)),
        )
    if residual > max(tol.check, _CONSTRUCTION_TOL):
        raise NotCorrectableError(f"syndrome-frame construction is inconsistent (residual {residual:.3e})")
    return frames, coeff, rank, residual


def synthesize_recovery(
    code: QuantumCode,
    errors: OperatorEnsemble,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int | None = None,
) -> RecoveryOperator:
    """Construct a recovery superoperator for a correctable (code, errors) pair.

    Raises ``NotCorrectableError`` (carrying the ``KLReport``) when the
    correctability check fails within ``tol.check``; the syndrome frames
    are cut at ``_RANK_TOL``. ``seed`` rotates the syndrome-frame basis by
    a common random unitary; the recovery is non-unique and any such choice
    verifies identically.
    """
    report = kl_check(code, errors, tol)
    if not report.passed:
        raise NotCorrectableError(
            "code does not correct this family "
            f"(offdiag {report.max_offdiag_violation:.3e}, diag {report.max_diag_violation:.3e})",
            report=report,
        )
    frames, coeff, rank, _ = _syndrome_frames(code, errors, tol)
    if seed is not None and rank > 0:
        w = random_unitary(rank, np.random.default_rng(seed))
        frames = [q @ w for q in frames]
        coeff = dagger(w) @ coeff

    n, k = code.n, code.k
    b = code.matrix
    stack = np.zeros((rank + 1, n, n), dtype=np.complex128)  # [complement, R_1, ..., R_rank]
    for r in range(rank):
        for i in range(k):
            stack[r + 1] += np.outer(b[:, i], frames[i][:, r].conj())
    reached = np.zeros((n, n), dtype=np.complex128)
    for q in frames:
        reached += q @ dagger(q)
    complement = np.eye(n) - reached
    stack[0] = (complement + dagger(complement)) / 2.0
    stack.setflags(write=False)  # adopted as the family's stack
    ensemble = OperatorEnsemble(stack, label=f"recovery[{code.label or 'code'}|{errors.label}]")
    return RecoveryOperator(
        ensemble=ensemble,
        syndrome_dim=rank,
        complement_dim=n - k * rank,
        syndrome_coefficients=coeff,
    )


def verify_recovery(
    code: QuantumCode,
    errors: OperatorEnsemble,
    recovery: RecoveryOperator,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Check that every composite R_r A_a is a scalar on the code.

    The scalar lambda[r, a] is fitted from the first logical state only and
    then validated against every basis state, so a genuine failure cannot
    average away. The report's residual is the worst norm of
    (R_r A_a - lambda I) applied to a logical state, passing below ``tol.check``.
    """
    if recovery.dim != code.n or errors.dim != code.n:
        raise ValueError("dimension mismatch between code, errors and recovery")
    b = code.matrix
    images = _error_images(code, errors)
    n, m, k = images.shape
    flat = images.reshape(n, m * k)
    lam = np.zeros((len(recovery.ensemble), m), dtype=np.complex128)
    worst = 0.0
    for r, rr in enumerate(recovery.ensemble.stack):
        image = (rr @ flat).reshape(n, m, k)
        lam[r] = b[:, 0].conj() @ image[:, :, 0]
        residual = np.linalg.norm(image - lam[r][:, None] * b[:, None, :], axis=0)  # m x k
        worst = max(worst, float(np.max(residual)))
    return VerificationReport(
        lambda_values=lam,
        max_identity_residual=worst,
        passed=worst < tol.check,
        route="composite-proportionality",
        tol=tol.check,
    )


def entangled_state_test(
    code: QuantumCode, composite: OperatorEnsemble, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Zero-error test on one state: I (x) A must fix the fully entangled codeword sum.

    Each composite element A must map sum_i |i_L>|i_L> on a doubled space to
    a multiple of itself (within ``tol.check``); equivalent to the proportionality route.
    """
    return _entangled_residual(code, composite) < tol.check


def _entangled_residual(code: QuantumCode, composite: OperatorEnsemble) -> float:
    """Worst ||(I (x) A)|ent> - lam |ent>|| / ||ent|| over the composite elements.

    For the n x k isometry B of logical states this is ||A B - lam B||_F / sqrt(k),
    with lam = tr(B^dag A B) / k, since (I (x) A)|ent> = sum_i |i_L> (x) A|i_L>.
    """
    b, k = code.matrix, code.k
    images = _error_images(code, composite)  # n x m x k
    lam = np.einsum("ni,nai->a", b.conj(), images) / k
    residual = np.linalg.norm(images - lam[:, None] * b[:, None, :], axis=(0, 2)) / np.sqrt(k)
    return float(np.max(residual))


def syndrome_decomposition(
    code: QuantumCode,
    errors: OperatorEnsemble,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SyndromeDecomposition:
    """Exhibit the coding space as (code x syndrome space) + unreached rest.

    The construction is attempted directly from the error images and
    validated numerically (frame unitarity and the factorization
    A_a|i_L> = iso(|i_L> (x) |E(a)>)); residuals above ``tol.check`` (and
    ``_CONSTRUCTION_TOL``, the same refusal ``synthesize_recovery`` makes) mean
    it does not exist: ``NotCorrectableError``.
    The code is flagged ``perfect`` when nothing is unreached and the
    syndrome vectors span the syndrome space (ranks cut at ``_RANK_TOL``).
    """
    frames, coeff, rank, residual = _syndrome_frames(code, errors, tol)
    n, k = code.n, code.k
    nu_columns = [frames[i][:, r] for i in range(k) for r in range(rank)]
    complement = tuple(_complete_frame(nu_columns, n))
    iso = np.column_stack(nu_columns + list(complement))
    unitarity = float(np.max(np.abs(dagger(iso) @ iso - np.eye(n))))
    if unitarity > max(tol.check, _CONSTRUCTION_TOL):
        raise NotCorrectableError(f"syndrome map is not unitary (residual {unitarity:.3e})")

    spanned = int(np.linalg.matrix_rank(coeff, tol=_RANK_TOL * max(1.0, float(np.max(np.abs(coeff)) if coeff.size else 0.0))))
    perfect = (n - k * rank) == 0 and spanned == rank
    return SyndromeDecomposition(
        iso_map=iso,
        syndrome_basis=tuple(frames[0][:, r] for r in range(rank)),
        complement_basis=complement,
        syndrome_vectors=coeff,
        syndrome_dim=rank,
        complement_dim=n - k * rank,
        perfect=perfect,
        max_residual=max(residual, unitarity),
    )


def entropy_test(
    code: QuantumCode,
    errors: OperatorEnsemble,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> EntropyReport:
    """Information-theoretic route: correctability iff the entropy gap is log2(k).

    Compares the entropy of the uniform mixture of corrupted codewords with
    that of the corrupted fully entangled codeword state: the coherent-
    information criterion of Schumacher and Nielsen (quant-ph/9604022).
    Both spectra come from the image Gram G[a, b, i, j] = <A_a i_L|A_b j_L>:
    the mixed state sum_a A_a P A_a^dag / k has the nonzero spectrum of G as
    an (mk) x (mk) matrix over k, and the entangled image sum_a |y_a><y_a|,
    |y_a> = sum_i |i_L> (x) A_a|i_L> / sqrt(k), that of its m x m Gram
    sum_i G[:, :, i, i] / k. Families that are not trace preserving within
    ``tol.check`` are refused, not silently renormalized; the gap passes
    within ``_ENTROPY_GAP_BITS`` (the report's ``tol``).
    """
    _require_superoperator(errors, "entropy route", tol)
    m, k = len(errors), code.k
    gram = _image_gram(_error_images(code, errors))
    s_mixed = von_neumann_entropy(gram.transpose(0, 2, 1, 3).reshape(m * k, m * k) / k, tol)
    s_entangled = von_neumann_entropy(np.trace(gram, axis1=2, axis2=3) / k, tol)
    diff = s_mixed - s_entangled
    return EntropyReport(
        difference_bits=diff,
        passed=abs(diff - np.log2(k)) < _ENTROPY_GAP_BITS,
        mixed_codeword_entropy=s_mixed,
        entangled_image_entropy=s_entangled,
        tol=_ENTROPY_GAP_BITS,
    )
