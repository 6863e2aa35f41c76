"""The exact two-dimensional worst case against the dense grid-and-refine oracle."""

import math

import numpy as np
import pytest

from qeckit import (
    ChannelSpec,
    OperatorEnsemble,
    PureState,
    build_channel,
    builtin_code,
    code_error,
    compare_coded_uncoded,
    compose,
    e_error_family,
    min_fidelity,
    pure_fidelity,
    repetition_phase_code,
    synthesize_recovery,
    tensor_power,
)
from qeckit import fidelity, memory
from qeckit.catalog import phase_error_family
from qeckit.channels import SIGMA_X, SIGMA_Y, SIGMA_Z
from qeckit.fidelity import _bloch_form, _min_on_sphere
from helpers import grid_refine_minimum, quartic_value, random_state, random_superoperator

QUBIT = builtin_code("trivial(2)")
PAULIS = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])
CERTIFICATE_SLACK = 1e-12


def fidelity_tensor(code, ensemble):
    m = np.stack([code.matrix.conj().T @ a @ code.matrix for a in ensemble])
    return np.einsum("aji,alk->ijkl", m, m.conj())


def deviation_tensor(code, ensemble):
    g = sum((a @ code.matrix).conj().T @ (a @ code.matrix) for a in ensemble)
    return fidelity_tensor(code, ensemble) - np.einsum("ji,lk->ijkl", g, np.eye(2))


def tensor_of_form(t):
    """A (2, 2, 2, 2) objective whose Bloch form is the symmetric matrix t."""
    return np.einsum("mn,mji,nkl->ijkl", t, PAULIS, PAULIS)


def phase_composite(m, gamma=0.1):
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    code = repetition_phase_code(m)
    recovery = synthesize_recovery(code, e_error_family(pm, m, (m - 1) // 2))
    return code, compose(recovery.ensemble, tensor_power(pm, m))


def assert_certified(trace):
    assert trace["multiplier"] <= trace["min_curvature"] + CERTIFICATE_SLACK


def assert_globally_optimal(t, c, trace):
    """The witness solves (Q - mu I) r = -b with mu <= lambda_min(Q): a global minimum."""
    assert_certified(trace)
    rho = np.outer(c, c.conj())
    r = np.real(np.einsum("mij,ji->m", PAULIS[1:], rho))
    q, b, mu = t[1:, 1:], t[1:, 0], trace["multiplier"]
    assert np.linalg.norm((q - mu * np.eye(3)) @ r + b) <= 1e-10
    assert mu <= np.linalg.eigvalsh(q)[0] + CERTIFICATE_SLACK


def assert_matches_oracle(code, ensemble):
    report = min_fidelity(code, ensemble)
    assert report.method == "bloch_exact"
    assert_certified(report.optimizer_trace)
    assert report.value == pure_fidelity(report.argmin_state, ensemble)
    oracle, _ = grid_refine_minimum(fidelity_tensor(code, ensemble))
    assert abs(report.value - oracle) <= 1e-12
    return report


def test_bloch_form_reproduces_the_quartic():
    rng = np.random.default_rng(101)
    for _ in range(20):
        q = fidelity_tensor(QUBIT, random_superoperator(2, int(rng.integers(1, 6)), rng))
        t = _bloch_form(q)
        assert np.array_equal(t, t.T)
        for _ in range(5):
            c = random_state(2, rng).amplitudes
            rho = np.outer(c, c.conj())
            x = np.real(np.einsum("mij,ji->m", PAULIS, rho))
            assert x @ t @ x == pytest.approx(quartic_value(q, c), abs=1e-14)


def test_random_channels_match_oracle():
    rng = np.random.default_rng(103)
    for _ in range(200):
        assert_matches_oracle(QUBIT, random_superoperator(2, int(rng.integers(1, 6)), rng))


@pytest.mark.parametrize("m", [3, 5])
def test_phase_code_composites_match_oracle(m):
    assert_matches_oracle(*phase_composite(m))


def test_code_error_matches_oracle():
    code, composite = phase_composite(3)
    for ensemble in (composite, phase_error_family(0.3, 3, 1)):
        report = code_error(code, ensemble)
        assert report.method == "bloch_exact"
        assert_certified(report.optimizer_trace)
        oracle, _ = grid_refine_minimum(deviation_tensor(code, ensemble))
        assert abs(report.value + oracle) <= 1e-12


def test_min_fidelity_solves_the_sphere_once(monkeypatch):
    calls = []
    monkeypatch.setattr(fidelity, "_min_on_sphere", lambda t, _s=_min_on_sphere: calls.append(1) or _s(t))
    report = min_fidelity(*phase_composite(3))
    assert report.method == "bloch_exact" and report.entangled.optimizer_trace["method"] == "bloch_ball"
    assert len(calls) == 1  # the pure minimum and the ball's come from one solve


def test_memory_worst_cases_match_oracle(monkeypatch):
    checked = []
    exact = memory._worst_case_values

    def checking(v, sectors):
        value = exact(v, sectors)
        k = v.shape[1]
        q = np.array([[v.conj().T @ sectors[i * k + j] @ v for j in range(k)] for i in range(k)])
        _, trace = _min_on_sphere(_bloch_form(q))
        assert_certified(trace)
        oracle, _ = grid_refine_minimum(q)
        assert abs(value - oracle) <= 1e-12
        checked.append(value)
        return value

    monkeypatch.setattr(memory, "_worst_case_values", checking)
    cmp = compare_coded_uncoded(0.05, 10)
    assert checked == list(cmp.coded) + list(cmp.uncoded)


def test_random_forms_are_certified_and_never_above_oracle():
    # Indefinite curvature and arbitrary linear terms. The oracle's angle
    # refinement can stall at a pole of the grid, so it is only an upper bound.
    rng = np.random.default_rng(107)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        t = (a + a.T) / 2.0
        c, trace = _min_on_sphere(t)
        assert_globally_optimal(t, c, trace)
        q = tensor_of_form(t)
        oracle, _ = grid_refine_minimum(q)
        assert quartic_value(q, c) <= oracle + 1e-12


@pytest.mark.parametrize(
    "t",
    [
        np.diag([0.5, 0.2, 0.2, 0.9]),  # b = 0, two-dimensional bottom eigenspace
        np.diag([0.5, 0.0, 1.0, 2.0]),
        [[0.5, 1e-13, 0.3, 0.0], [1e-13, 0.0, 0.0, 0.0], [0.3, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 2.0]],
        [[0.5, 0.0, 0.9, 0.0], [0.0, 0.0, 0.0, 0.0], [0.9, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 2.0]],
        [[0.5, 0.0, 0.3, 0.0], [0.0, 0.0, 0.0, 0.0], [0.3, 0.0, 1e-12, 0.0], [0.0, 0.0, 0.0, 2.0]],
    ],
    ids=["degenerate", "diagonal", "near_hard", "hard_with_long_rest", "near_degenerate"],
)
def test_hard_and_near_hard_forms_match_oracle(t):
    t = np.asarray(t, dtype=float)
    c, trace = _min_on_sphere(t)
    assert_globally_optimal(t, c, trace)
    q = tensor_of_form(t)
    oracle, _ = grid_refine_minimum(q)
    assert abs(quartic_value(q, c) - oracle) <= 1e-12


def test_hard_case_depolarizing():
    # Q is proportional to the identity and b = 0: every state is a minimizer
    report = assert_matches_oracle(QUBIT, build_channel(ChannelSpec("depolarizing_third", {})))
    trace = report.optimizer_trace
    assert trace["multiplier"] == trace["min_curvature"]
    assert report.value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_hard_case_identity_channel():
    report = assert_matches_oracle(QUBIT, OperatorEnsemble((np.eye(2, dtype=complex),)))
    assert report.optimizer_trace["multiplier"] == report.optimizer_trace["min_curvature"] == 0.0
    assert report.value == pytest.approx(1.0, abs=1e-12)


def test_hard_case_phase_code_great_circle():
    code, composite = phase_composite(3)
    report = assert_matches_oracle(code, composite)
    trace = report.optimizer_trace
    assert trace["multiplier"] == trace["min_curvature"]
    # the minimum is attained on the whole great circle x = 0 of the code's Bloch sphere
    for s in np.linspace(0.0, math.pi, 7):
        state = PureState(code.matrix @ np.array([math.cos(s), 1j * math.sin(s)]), code.shape)
        assert pure_fidelity(state, composite) == pytest.approx(report.value, abs=1e-12)
