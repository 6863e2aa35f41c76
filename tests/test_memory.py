import math

import numpy as np
import pytest

from qeckit import (
    ChannelSpec,
    NotSuperoperatorError,
    PureState,
    ToleranceConfig,
    binomial_fidelity_bound,
    bound_trajectory,
    build_channel,
    builtin_code,
    compare_coded_uncoded,
    comparison_csv,
    e_error_family,
    identity_recovery,
    min_fidelity,
    repetition_phase_code,
    run_memory,
    synthesize_recovery,
    tensor_power,
    trajectory_csv,
)
from qeckit.catalog import phase_error_family


def phase3_flip_setup(p):
    code = repetition_phase_code(3)
    base = build_channel(ChannelSpec("uniform_phase_flip", {"p": p}))
    noise = tensor_power(base, 3)
    recovery = synthesize_recovery(code, e_error_family(base, 3, 1))
    return code, noise, recovery


def test_exact_correction_fixpoint():
    code = repetition_phase_code(3)
    channel = build_channel(ChannelSpec("uniform_phase_flip", {"p": 0.3, "qubits": 3}))
    recovery = synthesize_recovery(code, channel)
    run = run_memory(code, channel, recovery, code.basis[0], 8)
    assert all(abs(f - 1.0) < 1e-9 for f in run.per_cycle_fidelity)
    assert run.monotone


def test_uncoded_decoherence_semigroup():
    gamma = 0.25
    qubit = builtin_code("trivial(2)")
    channel = build_channel(ChannelSpec("decoherence", {"gamma": gamma}))
    plus = PureState(np.array([1, 1]) / math.sqrt(2), shape=(2,))
    run = run_memory(qubit, channel, identity_recovery(2), plus, 6)
    for t, f in enumerate(run.per_cycle_fidelity):
        assert f == pytest.approx((1 + math.exp(-gamma * t)) / 2, abs=1e-12)


def test_zero_cycles():
    code, noise, recovery = phase3_flip_setup(0.1)
    run = run_memory(code, noise, recovery, code.basis[0], 0)
    assert run.per_cycle_fidelity == (1.0,)


def test_state_validity_diagnostics():
    code, noise, recovery = phase3_flip_setup(0.2)
    run = run_memory(code, noise, recovery, code.basis[0], 10)
    assert run.max_trace_deviation < 1e-9
    assert run.min_eigenvalue > -1e-9


def test_single_cycle_meets_bound():
    for p in (0.02, 0.1):
        code, noise, recovery = phase3_flip_setup(p)
        run = run_memory(code, noise, recovery, code.basis[0], 1)
        bound_curve = bound_trajectory(3, 1, p, 1)
        assert run.per_cycle_fidelity[1] >= binomial_fidelity_bound(3, 1, p) - 1e-6
        assert bound_curve[1] == pytest.approx(binomial_fidelity_bound(3, 1, p))


def test_run_memory_input_validation():
    code, noise, recovery = phase3_flip_setup(0.1)
    outside = PureState(np.eye(8, dtype=complex)[:, 1], shape=(2, 2, 2))
    with pytest.raises(ValueError, match="code subspace"):
        run_memory(code, noise, recovery, outside, 2)
    incomplete = phase_error_family(0.1, 3, 1)
    with pytest.raises(NotSuperoperatorError):
        run_memory(code, incomplete, recovery, code.basis[0], 2)


def test_run_memory_tests_code_membership_at_the_callers_tolerance():
    code, noise, recovery = phase3_flip_setup(0.1)
    away = np.eye(8, dtype=complex)[:, 1] - (code.matrix @ code.matrix.conj().T)[:, 1]
    away /= np.linalg.norm(away)
    nearly = PureState(math.cos(1e-8) * code.basis[0].amplitudes + math.sin(1e-8) * away, shape=(2, 2, 2))
    with pytest.raises(ValueError, match="code subspace"):
        run_memory(code, noise, recovery, nearly, 2)
    run = run_memory(code, noise, recovery, nearly, 2, tol=ToleranceConfig(check=1e-6))
    assert len(run.per_cycle_fidelity) == 3


@pytest.mark.parametrize("distance, refused", [(2.0, True), (0.5, False)])
def test_run_memory_refuses_a_state_twice_the_tolerance_outside_the_code(distance, refused):
    code, noise, recovery = phase3_flip_setup(0.1)
    tol = ToleranceConfig(check=1e-6)
    away = np.eye(8, dtype=complex)[:, 1] - (code.matrix @ code.matrix.conj().T)[:, 1]
    away /= np.linalg.norm(away)
    angle = math.asin(distance * tol.check)
    state = PureState(math.cos(angle) * code.basis[1].amplitudes + math.sin(angle) * away, shape=(2, 2, 2))
    if refused:
        with pytest.raises(ValueError, match=r"outside the code subspace \(residual 2\.000e-06\)"):
            run_memory(code, noise, recovery, state, 1, tol=tol)
    else:
        assert len(run_memory(code, noise, recovery, state, 1, tol=tol).per_cycle_fidelity) == 2


def test_compare_small_gamma_coded_dominates():
    cmp = compare_coded_uncoded(0.05, 10)
    assert cmp.coded_dominates
    assert all(c >= u - 1e-12 for c, u in zip(cmp.coded, cmp.uncoded))
    g = 0.05
    p_minus, p_plus = (1 - math.exp(-g)) / 2, (1 + math.exp(-g)) / 2
    assert cmp.coded[1] == pytest.approx(1 - (3 * p_minus**2 * p_plus + p_minus**3), abs=1e-9)
    assert cmp.uncoded[1] == pytest.approx((1 + math.exp(-g)) / 2, abs=1e-9)


def test_compare_gamma_zero_everything_is_one():
    cmp = compare_coded_uncoded(0.0, 4)
    assert all(f == pytest.approx(1.0, abs=1e-12) for f in cmp.coded)
    assert all(f == pytest.approx(1.0, abs=1e-12) for f in cmp.uncoded)
    assert cmp.coded_dominates


def test_compare_large_gamma_recorded_without_failing():
    cmp = compare_coded_uncoded(2.0, 4)
    assert cmp.cycles == 4
    if not cmp.coded_dominates:
        assert cmp.crossover_cycle is not None


def test_bound_trajectory_values():
    curve = bound_trajectory(3, 1, 0.1, 3)
    assert curve[0] == 1.0
    assert curve[1] == pytest.approx(0.972, abs=1e-12)
    assert curve[2] == pytest.approx(0.972**2, abs=1e-12)
    assert bound_trajectory(3, 1, 0.0, 3) == [1.0, 1.0, 1.0, 1.0]


def test_trajectory_csv_format():
    code, noise, recovery = phase3_flip_setup(0.1)
    run = run_memory(code, noise, recovery, code.basis[0], 3)
    text = trajectory_csv(run, bound_trajectory(3, 1, 0.1, 3))
    lines = text.strip().split("\n")
    assert lines[0] == "cycle,fidelity,bound"
    assert len(lines) == 5
    cycle, fidelity, bound = lines[1].split(",")
    assert cycle == "0" and float(fidelity) == 1.0 and float(bound) == 1.0
    # 17 significant digits survive the round trip
    for line in lines[2:]:
        _, fid, _ = line.split(",")
        assert float(fid) == float(repr(float(fid)))


def test_comparison_csv_format():
    cmp = compare_coded_uncoded(0.05, 2)
    lines = comparison_csv(cmp).strip().split("\n")
    assert lines[0] == "cycle,coded_fidelity,uncoded_fidelity,bound"
    assert len(lines) == 4


def _scaling_fit(m, gammas=np.geomspace(3e-3, 3e-2, 5)):
    """(exponent, constant) of the log-log least-squares fit of the m-qubit phase code's one-cycle infidelity against gamma."""
    code = repetition_phase_code(m)
    ys = []
    for gamma in gammas:
        pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": float(gamma)}))
        recovery = synthesize_recovery(code, e_error_family(pm, m, (m - 1) // 2))
        ys.append(1.0 - min_fidelity(code, tensor_power(pm, m), recovery=recovery).value)
    slope, intercept = np.polyfit(np.log(gammas), np.log(ys), 1)
    return slope, math.exp(intercept)


def test_scaling_exponent_fits():
    exponent3, constant3 = _scaling_fit(3)
    assert exponent3 == pytest.approx(2.0, abs=0.1)
    assert constant3 > 0
    exponent5, _ = _scaling_fit(5)
    assert exponent5 == pytest.approx(3.0, abs=0.15)
