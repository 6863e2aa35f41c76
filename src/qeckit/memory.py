"""Iterated noise-plus-recovery cycles on a stored state.

A memory run starts from a pure state in the code, alternates the noise
channel and the recovery superoperator on its density matrix, and records
the overlap with the initial state after every cycle. The optional
worst-case mode re-minimizes the fidelity over the whole code at every
cycle with ``min_fidelity``'s solve, for any code dimension k: exact for
k <= 2 and, for k > 2, an upper bound whose restarts stop once the certified
mixed-state floor of the same solve closes the bracket.

Every cycle runs in one orthonormal frame W, a basis of the range of
``B B^dag + sum_r R_r R_r^dag``: it holds the code and every recovery
output, so after any number of cycles the state is ``W sigma W^dag`` for
a d x d matrix sigma. A synthesized recovery maps every degraded state
back into the code plus the unreached complement, so d = k +
``complement_dim`` (d = 2 for the phase repetition codes); a full-rank
recovery gives d = n. One cycle is two pairs of matrix products on the
stacked frame images ``A_a W`` (n x m_A d) and ``W^dag R_r`` (m_R d x n),
about n^2 d (m_A + m_R) multiply-adds, with no per-operator loop and no
n x n product per operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, OperatorEnsemble, _require_superoperator, build_channel, e_error_family, tensor_power
from .codes import QuantumCode, builtin_code, repetition_phase_code
from .config import DEFAULT_TOL, ToleranceConfig
from .fidelity import _choi_kraus, _minima, binomial_fidelity_bound
from .linalg import PureState, _check_bytes, dagger
from .recovery import RecoveryOperator, synthesize_recovery

CYCLE_CAP = 10_000


@dataclass(frozen=True, eq=False)
class MemoryRun:
    """Fidelity trajectory of an iterated coded memory.

    ``per_cycle_fidelity`` has ``cycles + 1`` entries, starting at 1.0 for
    the initial state itself. ``worst_case_fidelity`` holds per-cycle
    minima over pure code states when the run was asked for them: exact for
    k <= 2 and, as in ``min_fidelity``, an upper bound for k > 2, within
    ``fidelity._GAP_TOL`` of the truth where the solve's bracket closed.
    ``monotone`` records (without asserting) whether the trajectory never
    increased. ``min_eigenvalue`` is the
    smallest eigenvalue of any cycle's state (1.0 for zero cycles); the
    state has exact zeros outside its frame, so it is at most 0 when the
    frame is smaller than the space. ``frame_dim`` is the frame's dimension
    d and ``frame_residual`` the largest ``||R_r - W W^dag R_r||_F``, the
    part of a recovery element that leaves the frame.
    """

    cycles: int
    per_cycle_fidelity: tuple[float, ...]
    initial_state: PureState
    channel_label: str
    recovery: RecoveryOperator
    worst_case_fidelity: tuple[float, ...] | None
    max_trace_deviation: float
    min_eigenvalue: float
    monotone: bool
    frame_dim: int
    frame_residual: float


@dataclass(frozen=True, eq=False)
class MemoryComparison:
    """Coded-versus-bare trajectories for one dephasing strength."""

    gamma: float
    cycles: int
    coded: tuple[float, ...]
    uncoded: tuple[float, ...]
    bound_curve: tuple[float, ...]
    coded_dominates: bool
    crossover_cycle: int | None


def _frame(code: QuantumCode, recovery: RecoveryOperator) -> np.ndarray:
    """Orthonormal n x d basis of the range of B B^dag + sum_r R_r R_r^dag, cut at numerical rank."""
    b = code.matrix
    span = b @ dagger(b)
    for r in recovery.ensemble.stack:
        span += r @ dagger(r)
    vals, vecs = np.linalg.eigh(span)
    return vecs[:, vals > vals[-1] * code.n * np.finfo(float).eps]


def _cycle(x: np.ndarray, xh: np.ndarray, y: np.ndarray, yh: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """One channel-then-recovery cycle on an (s, d, d) batch of frame matrices.

    ``x`` is the (n, m_A, d) stack of channel images A_a W and ``y`` the
    (d, m_R, n) stack of W^dag R_r; ``xh`` and ``yh`` are their flattened
    adjoints.
    """
    n, m, d = x.shape
    noisy = (x.reshape(n * m, d) @ batch).reshape(-1, n, m * d) @ xh  # sum_a X_a s X_a^dag, (s, n, n)
    return (y.reshape(-1, n) @ noisy).reshape(-1, d, yh.shape[0]) @ yh  # sum_r Y_r (.) Y_r^dag


def _worst_case_values(v: np.ndarray, sectors: np.ndarray) -> float:
    """Minimum of <psi| T^t(|psi><psi|) |psi> over the code, from the evolved sector matrices.

    ``v`` holds the code basis in frame coordinates (d x k) and
    ``sectors[i * k + j]`` the evolved image of |i_L><j_L|. ``_minima`` finds
    the pure witness from the logical channel's Kraus matrices, solving the
    mixed minimum first so that k > 2 restarts stop on a closed bracket;
    q re-evaluates the witness.
    """
    k = v.shape[1]
    q = (dagger(v) @ sectors @ v).reshape(k, k, k, k)  # q[i, j, kk, ll]
    (c, _, _), _ = _minima(_choi_kraus(q), np.zeros((k, k)))
    return float(np.einsum("ijkl,i,j,k,l->", q, c, c.conj(), c.conj(), c).real)


def run_memory(
    code: QuantumCode,
    channel: OperatorEnsemble,
    recovery: RecoveryOperator,
    initial: PureState,
    cycles: int,
    worst_case: bool = False,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MemoryRun:
    """Iterate rho -> recovery(channel(rho)) and track fidelity per cycle.

    Both the channel and the recovery must be trace preserving (within
    ``tol.check``), and so must the initial state's distance from the code
    subspace. The state is carried as the d x d matrix
    sigma in the frame W of the module docstring, so a cycle costs about
    n^2 d (m_A + m_R) multiply-adds; with ``worst_case`` the k^2
    sector matrices |i_L><j_L| ride along in the same batch. The frame
    arrays (about 2 n d (m_A + m_R) entries, plus the cycle's temporaries)
    are refused above ``ENSEMBLE_BYTE_CAP`` with ``CapacityError``; a
    recovery element with a part outside the frame above ``tol.check``
    (``frame_residual``) raises ``ValueError``.
    """
    if cycles < 0 or cycles > CYCLE_CAP:
        raise ValueError(f"cycles must be in 0..{CYCLE_CAP}, got {cycles}")
    if channel.dim != code.n or recovery.dim != code.n:
        raise ValueError("dimension mismatch between code, channel and recovery")
    _require_superoperator(channel, "memory channel", tol)
    _require_superoperator(recovery.ensemble, "memory recovery", tol)
    psi = initial.amplitudes
    if psi.size != code.n:
        raise ValueError("initial state dimension does not match the code")
    outside = float(np.linalg.norm(psi - code.matrix @ (dagger(code.matrix) @ psi)))
    if outside > tol.check:
        raise ValueError(f"initial state is outside the code subspace (residual {outside:.3e})")

    w = _frame(code, recovery)
    n, d = w.shape
    m_a, m_r, s = len(channel), len(recovery.ensemble), 1 + (code.k**2 if worst_case else 0)
    # x, y and their adjoints, plus one cycle's temporaries for the s-matrix batch
    need = 16 * (2 * n * d * (m_a + m_r) + s * (n * d * max(m_a, m_r) + n * n))
    _check_bytes(need, f"memory frame arrays ({n} x {d})")
    wh = dagger(w)
    x = channel.images(w)  # (n, m_A, d)
    xh = dagger(x.reshape(n, -1))
    y = np.empty((d, m_r, n), dtype=np.complex128)
    np.matmul(wh, recovery.ensemble.stack, out=y.transpose(1, 0, 2))  # y[:, r, :] = W^dag R_r
    yh = dagger(y.reshape(d, -1))
    # one element at a time: batched, R - W W^dag R would be two fresh (m_R, n, n) arrays, whose page faults cost more
    frame_residual = max(float(np.linalg.norm(r - w @ y[:, i, :])) for i, r in enumerate(recovery.ensemble.stack))
    if frame_residual > tol.check:
        raise ValueError(f"recovery output leaves its numerical range by {frame_residual:.3e}; the frame would drop it")

    u = wh @ psi
    v = wh @ code.matrix
    states = [np.outer(u, u.conj())]
    if worst_case:
        states += [np.outer(v[:, i], v[:, j].conj()) for i in range(code.k) for j in range(code.k)]
    batch = np.stack(states)
    fidelities = [1.0]
    max_trace_dev = 0.0
    min_eig = 1.0
    worst_values = [_worst_case_values(v, batch[1:])] if worst_case else None

    for _ in range(cycles):
        batch = _cycle(x, xh, y, yh, batch)
        sigma = batch[0] = (batch[0] + dagger(batch[0])) / 2.0
        fidelities.append(float(np.vdot(u, sigma @ u).real))
        max_trace_dev = max(max_trace_dev, abs(float(np.trace(sigma).real) - 1.0))
        lowest = float(np.linalg.eigvalsh(sigma)[0])
        min_eig = min(min_eig, lowest if d == n else min(lowest, 0.0))
        if worst_case:
            worst_values.append(_worst_case_values(v, batch[1:]))

    monotone = all(fidelities[i + 1] <= fidelities[i] + 1e-12 for i in range(len(fidelities) - 1))
    return MemoryRun(
        cycles=cycles,
        per_cycle_fidelity=tuple(fidelities),
        initial_state=initial,
        channel_label=channel.label,
        recovery=recovery,
        worst_case_fidelity=tuple(worst_values) if worst_values is not None else None,
        max_trace_deviation=max_trace_dev,
        min_eigenvalue=min_eig,
        monotone=monotone,
        frame_dim=d,
        frame_residual=frame_residual,
    )


def bound_trajectory(r: int, e: int, p: float, cycles: int) -> list[float]:
    """Single-cycle tail bound raised to the cycle count (heuristic compounding)."""
    single = binomial_fidelity_bound(r, e, p)
    return [single**t for t in range(cycles + 1)]


def identity_recovery(dim: int) -> RecoveryOperator:
    """Do-nothing recovery (the identity channel), for bare-memory baselines."""
    ensemble = OperatorEnsemble((np.zeros((dim, dim), dtype=np.complex128), np.eye(dim, dtype=np.complex128)), label="identity-recovery")
    return RecoveryOperator(
        ensemble=ensemble,
        syndrome_dim=1,
        complement_dim=0,
        syndrome_coefficients=np.ones((1, 1), dtype=np.complex128),
    )


def compare_coded_uncoded(gamma: float, cycles: int) -> MemoryComparison:
    """Three-qubit phase-coded memory versus a bare qubit under dephasing.

    Both trajectories are per-cycle worst cases. The coded memory uses the
    synthesized recovery for single phase flips; for small gamma it should
    dominate the bare qubit at every cycle, and the report records (without
    failing) when it does not.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    code = repetition_phase_code(3)
    noise = tensor_power(pm, 3)
    recovery = synthesize_recovery(code, e_error_family(pm, 3, 1))
    p_flip = (1.0 - math.exp(-gamma)) / 2.0
    coded = run_memory(code, noise, recovery, code.basis[0], cycles, worst_case=True)

    qubit = builtin_code("trivial(2)")
    bare_channel = build_channel(ChannelSpec("decoherence", {"gamma": gamma}))
    plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0), shape=(2,))
    uncoded = run_memory(qubit, bare_channel, identity_recovery(2), plus, cycles, worst_case=True)

    coded_vals, uncoded_vals = coded.worst_case_fidelity, uncoded.worst_case_fidelity
    crossover = next((t for t, (c, u) in enumerate(zip(coded_vals, uncoded_vals)) if c < u - 1e-12), None)
    return MemoryComparison(
        gamma=gamma,
        cycles=cycles,
        coded=coded_vals,
        uncoded=uncoded_vals,
        bound_curve=tuple(bound_trajectory(3, 1, p_flip, cycles)),
        coded_dominates=crossover is None,
        crossover_cycle=crossover,
    )


def trajectory_csv(run: MemoryRun, bound: list[float] | None = None) -> str:
    """Render a run as CSV ``cycle,fidelity,bound`` (17 significant digits); ``bound``, a per-cycle curve such as ``bound_trajectory``'s, fills the last column."""
    lines = ["cycle,fidelity,bound"]
    for t, f in enumerate(run.per_cycle_fidelity):
        cell = f"{bound[t]:.17g}" if bound is not None else ""
        lines.append(f"{t},{f:.17g},{cell}")
    return "\n".join(lines) + "\n"


def comparison_csv(cmp: MemoryComparison) -> str:
    """CSV with coded and bare worst-case columns plus the heuristic bound curve."""
    lines = ["cycle,coded_fidelity,uncoded_fidelity,bound"]
    for t in range(cmp.cycles + 1):
        lines.append(
            f"{t},{cmp.coded[t]:.17g},{cmp.uncoded[t]:.17g},{cmp.bound_curve[t]:.17g}"
        )
    return "\n".join(lines) + "\n"
