"""Memory runs in the recovery's output frame against the dense n x n oracle."""

import math

import numpy as np
import pytest

from qeckit import channels
from qeckit import (
    ChannelSpec,
    OperatorEnsemble,
    PureState,
    RecoveryOperator,
    CapacityError,
    QuantumCode,
    build_channel,
    compare_coded_uncoded,
    e_error_family,
    identity_recovery,
    random_code,
    repetition_phase_code,
    run_memory,
    synthesize_recovery,
    tensor_power,
)
from helpers import dense_memory_run, random_superoperator

CYCLES = 6
AGREE = 1e-12


def as_recovery(ensemble):
    return RecoveryOperator(
        ensemble=ensemble,
        syndrome_dim=len(ensemble),
        complement_dim=0,
        syndrome_coefficients=np.zeros((len(ensemble), 0), dtype=np.complex128),
    )


def ranged_recovery(n, s, rng, avoid=None):
    """Trace-preserving recovery whose outputs span an s-dimensional subspace.

    The subspace is random, or orthogonal to the columns of ``avoid``.
    """
    g = rng.normal(size=(n, s)) + 1j * rng.normal(size=(n, s))
    if avoid is not None:
        g -= avoid @ (avoid.conj().T @ g)
    into, _ = np.linalg.qr(g)  # n x s isometry onto the output subspace
    num_ops = n // s + 1
    h = rng.normal(size=(s * num_ops, n)) + 1j * rng.normal(size=(s * num_ops, n))
    kraus, _ = np.linalg.qr(h)  # stacked s x n blocks with sum K^dag K = I
    return as_recovery(OperatorEnsemble(tuple(into @ kraus[r * s:(r + 1) * s] for r in range(num_ops))))


def code_state(code, rng):
    c = rng.normal(size=code.k) + 1j * rng.normal(size=code.k)
    return PureState(code.matrix @ (c / np.linalg.norm(c)))


def assert_matches_dense(code, channel, recovery, initial, cycles=CYCLES, worst_case=None):
    worst_case = code.k <= 2 if worst_case is None else worst_case
    run = run_memory(code, channel, recovery, initial, cycles, worst_case=worst_case)
    fids, worst, trace_dev, min_eig = dense_memory_run(code, channel, recovery, initial, cycles, worst_case)
    assert np.max(np.abs(np.subtract(run.per_cycle_fidelity, fids))) <= AGREE
    if worst_case:
        assert np.max(np.abs(np.subtract(run.worst_case_fidelity, worst))) <= AGREE
    assert abs(run.max_trace_deviation - trace_dev) <= AGREE
    assert abs(run.min_eigenvalue - min_eig) <= AGREE
    assert run.frame_residual <= AGREE
    return run


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["outside_code", "random_range", "full_rank", "identity"])
def test_frame_run_matches_dense_oracle(n, k, kind):
    rng = np.random.default_rng(1000 * n + 10 * k + len(kind))
    code = random_code(n, k, seed=n + k)
    channel = random_superoperator(n, 3, rng)
    s = max(1, (n - k) // 2)
    recovery = {
        "outside_code": lambda: ranged_recovery(n, s, rng, avoid=code.matrix),
        "random_range": lambda: ranged_recovery(n, s, rng),
        "full_rank": lambda: as_recovery(random_superoperator(n, 2, rng)),
        "identity": lambda: identity_recovery(n),
    }[kind]()
    run = assert_matches_dense(code, channel, recovery, code_state(code, rng))
    expected_dim = {"outside_code": k + s, "random_range": min(k + s, n)}.get(kind, n)
    assert run.frame_dim == expected_dim
    if run.frame_dim < n:
        assert run.min_eigenvalue <= 0.0


def phase_setup(m, gamma=0.1):
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    code = repetition_phase_code(m)
    return code, tensor_power(pm, m), synthesize_recovery(code, e_error_family(pm, m, (m - 1) // 2))


def logical_flip(m, gamma):
    """Probability that more than (m - 1)/2 of m qubits flip under decoherence_pm_basis."""
    p = (1.0 - math.exp(-gamma)) / 2.0
    e = (m - 1) // 2
    return sum(math.comb(m, j) * p**j * (1.0 - p) ** (m - j) for j in range(e + 1, m + 1))


@pytest.mark.parametrize("m", [3, 5, 7])
def test_phase_codes_match_closed_form(m):
    code, noise, recovery = phase_setup(m)
    run = run_memory(code, noise, recovery, code.basis[0], 20)
    q = logical_flip(m, 0.1)
    closed = [(1.0 + (1.0 - 2.0 * q) ** t) / 2.0 for t in range(21)]
    assert np.max(np.abs(np.subtract(run.per_cycle_fidelity, closed))) <= 1e-12
    assert run.frame_dim == 2
    assert run.frame_residual <= 1e-12
    assert run.max_trace_deviation <= 1e-12


@pytest.mark.parametrize("m", [3, 5])
def test_phase_codes_match_dense_oracle(m):
    code, noise, recovery = phase_setup(m)
    state = PureState(code.matrix @ np.array([0.6, 0.8j]), code.shape)
    assert assert_matches_dense(code, noise, recovery, state).frame_dim == 2


def test_compare_worst_cases_match_closed_form():
    gamma, cycles = 0.05, 20
    cmp = compare_coded_uncoded(gamma, cycles)
    q = logical_flip(3, gamma)
    for t in range(cycles + 1):
        assert cmp.coded[t] == pytest.approx((1.0 + (1.0 - 2.0 * q) ** t) / 2.0, abs=1e-12)
        assert cmp.uncoded[t] == pytest.approx((1.0 + math.exp(-gamma * t)) / 2.0, abs=1e-12)


def test_run_at_the_dimension_cap():
    rng = np.random.default_rng(256)
    code = random_code(256, 2, seed=7)
    channel = random_superoperator(256, 2, rng)
    recovery = ranged_recovery(256, 64, rng, avoid=code.matrix)
    run = assert_matches_dense(code, channel, recovery, code_state(code, rng), cycles=2, worst_case=False)
    assert run.frame_dim == 66


def test_frame_arrays_are_refused_above_the_byte_cap(monkeypatch):
    code, noise, recovery = phase_setup(3)
    monkeypatch.setattr(channels, "ENSEMBLE_BYTE_CAP", 2**14)
    assert run_memory(code, noise, recovery, code.basis[0], 2).frame_dim == 2  # d = 2 fits
    with pytest.raises(CapacityError, match="memory frame arrays"):
        run_memory(code, noise, identity_recovery(8), code.basis[0], 2)  # d = n does not


def test_recovery_part_below_the_frame_cut_is_refused():
    """A recovery element of norm 1e-8 along |1> has R R^dag weight 1e-16, below the rank cut."""
    t = 1e-8
    ket = np.eye(2, dtype=np.complex128)
    ops = (np.outer(ket[0], ket[0]), math.sqrt(1 - t * t) * np.outer(ket[0], ket[1]), t * np.outer(ket[1], ket[1]))
    code = QuantumCode(basis=(PureState(ket[0]),))
    channel = OperatorEnsemble((np.eye(2, dtype=np.complex128),))
    with pytest.raises(ValueError, match="numerical range"):
        run_memory(code, channel, as_recovery(OperatorEnsemble(ops)), code.basis[0], 1)
