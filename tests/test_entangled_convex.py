"""The entangled-state minimum as one convex solve, against the frame-search oracle.

``entangled_fidelity`` minimizes F(rho) = sum_a |tr(M_a rho)|^2 over code
density matrices rho = sum_i p_i |psi_i><psi_i|: exactly on the Bloch ball
for k = 2, and for k > 2 by a Barzilai-Borwein descent on a purification
rho = Y Y^dag, stopped on its Frank-Wolfe gap. The oracle is a non-convex
random search over Schmidt frames with exact weights per frame
(``helpers.frame_search_minimum``); being a search over feasible states it
can only land on or above the minimum.
"""

import functools

import numpy as np
import pytest

from helpers import frame_search_minimum, random_superoperator
from qeckit import (
    ChannelSpec,
    OperatorEnsemble,
    build_channel,
    compose,
    entangled_fidelity,
    min_fidelity,
    random_code,
    repetition_phase_code,
)
from qeckit import fidelity
from qeckit.fidelity import (
    BOUND_SLACK,
    _GAP_TOL,
    _PAULIS,
    _bloch_form,
    _logical,
    _minima,
    _objective,
    _quartic,
)
from test_logical_channel import SIZES, _as_recovery


def _cases():
    cases = {}
    for n, k in SIZES:
        for with_recovery in (False, True):
            rng = np.random.default_rng(3000 * n + 10 * k + with_recovery)
            code = random_code(n, k, seed=n + k)
            noise = random_superoperator(n, 4, rng)
            recovery = _as_recovery(random_superoperator(n, 3, rng)) if with_recovery else None
            cases[f"n{n}-k{k}-{'rec' if with_recovery else 'bare'}"] = (code, noise, recovery)
    return cases


CASES = _cases()
K2 = [name for name, case in CASES.items() if case[0].k == 2]
K3 = [name for name, case in CASES.items() if case[0].k == 3]


@functools.lru_cache(maxsize=None)
def _oracle(name):
    """The frame search with the settings ``entangled_fidelity`` used to run it with."""
    code, noise, recovery = CASES[name]
    m_ops, _ = _logical(code, noise, recovery)
    witness = code.matrix.conj().T @ min_fidelity(code, noise, recovery=recovery).argmin_state.amplitudes
    return frame_search_minimum(m_ops, witness)[0]


def _doubled_space_value(code, noise, recovery, rho):
    """sum |<Psi|(I (x) C)|Psi>|^2 over the composite C for a purification Psi of rho."""
    composite = noise if recovery is None else compose(recovery.ensemble, noise)
    weights, frame = np.linalg.eigh(rho)
    psi = sum(
        np.sqrt(max(p, 0.0)) * np.kron(np.eye(code.k)[:, i], code.matrix @ frame[:, i])
        for i, p in enumerate(weights)
    )
    return sum(abs(np.vdot(psi, np.kron(np.eye(code.k), c) @ psi)) ** 2 for c in composite)


@pytest.mark.parametrize("name", CASES)
def test_minimum_is_below_every_feasible_value(name):
    code, noise, recovery = CASES[name]
    report = entangled_fidelity(code, noise, recovery=recovery)
    f_pure, bound, satisfied = report.bound_check
    assert report.min_value <= _oracle(name) + 1e-12
    assert report.min_value <= f_pure
    assert report.min_value <= report.max_entangled_value
    # random superoperators compose to a trace-preserving family, so the linear bound holds
    assert report.min_value >= 1.0 - 1.5 * (1.0 - f_pure) - BOUND_SLACK
    assert satisfied
    assert abs(sum(report.optimizer_trace["weights"]) - 1.0) <= 1e-12


@pytest.mark.parametrize("name", CASES)
def test_solved_state_matches_the_doubled_space_fidelity(name):
    code, noise, recovery = CASES[name]
    m_ops, _ = _logical(code, noise, recovery)
    _, (rho, value, _) = _minima(m_ops, np.zeros((code.k, code.k)))
    assert np.allclose(rho, rho.conj().T, atol=1e-14)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert abs(value - _doubled_space_value(code, noise, recovery, rho)) <= 1e-12


@pytest.mark.parametrize("name", K2)
def test_two_dimensional_minimum_is_certified_on_the_ball(name):
    code, noise, recovery = CASES[name]
    m_ops, _ = _logical(code, noise, recovery)
    _, (rho, value, trace) = _minima(m_ops, np.zeros((code.k, code.k)))
    t = _bloch_form(_quartic(m_ops))
    q, b = t[1:, 1:], t[1:, 0]
    r = np.einsum("mij,ji->m", _PAULIS[1:], rho).real
    assert trace["method"] == "bloch_ball"
    assert np.linalg.eigvalsh(q)[0] >= -1e-12  # F is convex: Q is positive semidefinite
    assert abs(value - np.concatenate([[1.0], r]) @ t @ np.concatenate([[1.0], r])) <= 1e-12
    if trace["radius"] == 1.0:  # sphere branch: a nonpositive multiplier makes it the ball minimum
        assert trace["multiplier"] <= 1e-14 * max(1.0, float(np.max(np.abs(t))))
        assert abs(np.linalg.norm(r) - 1.0) <= 1e-12
    else:  # interior branch: the stationary point of the convex quadratic
        assert trace["multiplier"] > 0.0
        assert np.linalg.norm(r) <= 1.0
        assert np.linalg.norm(q @ r + b) <= 1e-12
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.normal(size=3)
        x *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(x)
        assert value <= np.concatenate([[1.0], x]) @ t @ np.concatenate([[1.0], x]) + 1e-12


def test_interior_branch_on_a_contracting_channel():
    # fully depolarizing noise: F = |r|^2 / 3 on the ball, minimized at the centre
    dep = build_channel(ChannelSpec("depolarizing_third", {}))
    m_ops, _ = _logical(random_code(2, 2, seed=1), dep)
    _, (rho, value, trace) = _minima(m_ops, np.zeros((2, 2)))
    assert trace["multiplier"] > 0.0 and trace["radius"] <= 1e-12
    assert np.allclose(rho, np.eye(2) / 2.0, atol=1e-12)
    assert abs(value) <= 1e-15


@pytest.mark.parametrize("name", K3)
def test_three_dimensional_minimum_carries_a_small_gap(name):
    code, noise, recovery = CASES[name]
    report = entangled_fidelity(code, noise, recovery=recovery)
    trace = report.optimizer_trace
    assert trace["method"] == "purified_descent"
    assert 0.0 <= trace["gap"] <= 1e-9
    fid = min_fidelity(code, noise, recovery=recovery)
    lower = fid.optimizer_trace["lower_bound"]
    assert lower <= fid.value
    assert lower <= report.min_value <= lower + trace["gap"] + 1e-12


def test_frame_search_stops_above_the_convex_minimum():
    # the non-convex frame search stalls here (by about 1.2e-3); the convex solve does not
    code, noise, recovery = CASES["n4-k3-bare"]
    report = entangled_fidelity(code, noise, recovery=recovery)
    assert report.optimizer_trace["gap"] <= 1e-9
    assert _oracle("n4-k3-bare") - report.min_value > 1e-6


def test_phase_code_minimum_is_flat_and_exact():
    # dephasing acts on phase3 through its symmetric logical frame: F is constant on the ball
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1, "qubits": 3}))
    report = entangled_fidelity(repetition_phase_code(3), pm)
    assert abs(report.min_value - report.max_entangled_value) <= 1e-12
    assert abs(report.min_value - report.bound_check[0]) <= 1e-12


def test_one_dimensional_code_is_closed_form():
    ident = OperatorEnsemble((np.eye(4, dtype=np.complex128),))
    report = entangled_fidelity(random_code(4, 1, seed=2), ident)
    assert report.optimizer_trace["method"] == "closed_form"
    assert abs(report.min_value - 1.0) <= 1e-12


# the k <= 8 codes of the k > 2 solver table: (n, k, seed, qubits) under decoherence
SWEEP = [(8, 3, 5, 3), (16, 3, 1603, 4), (16, 4, 1604, 4), (8, 4, 7, 3), (16, 3, 11, 4), (4, 3, 2, 2), (16, 8, 3, 4)]


@pytest.mark.parametrize("gamma", [0.3, 1.0])
@pytest.mark.parametrize("n, k, seed, qubits", SWEEP)
def test_mixed_descent_certifies_its_minimum(n, k, seed, qubits, gamma):
    code = random_code(n, k, seed=seed)
    m_ops, gram = _logical(code, build_channel(ChannelSpec("decoherence", {"gamma": gamma, "qubits": qubits})))
    zero = np.zeros((k, k))
    _, (rho, _, _) = _minima(m_ops, zero)
    # a frame search led by the solve's top eigenvector; any state it finds is feasible for both objectives
    _, weights, frame = frame_search_minimum(m_ops, np.linalg.eigh(rho)[1][:, -1], restarts=0, perturbations=10)
    feasible = (frame * weights) @ frame.conj().T
    for leak in (zero, gram):
        _, (_, value, trace) = _minima(m_ops, leak)
        assert trace["converged"]
        assert 0.0 <= trace["gap"] <= _GAP_TOL
        assert value - trace["gap"] <= _objective(m_ops, leak, feasible)[0]


def test_a_mixed_descent_stopped_by_the_guard_is_reported(monkeypatch):
    code = random_code(8, 3, seed=5)
    m_ops, _ = _logical(code, build_channel(ChannelSpec("decoherence", {"gamma": 0.3, "qubits": 3})))
    zero = np.zeros((3, 3))
    monkeypatch.setattr(fidelity, "_DESCENT_STEPS", 3)
    _, (rho, value, trace) = _minima(m_ops, zero)
    assert trace["steps"] == 3 and trace["converged"] is False
    at_rho, grad, lin = _objective(m_ops, zero, rho)
    assert value == at_rho
    assert trace["gap"] == max(0.0, 2.0 * at_rho + lin - float(np.linalg.eigvalsh(grad)[0])) > _GAP_TOL
