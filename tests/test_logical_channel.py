"""Fidelity quantities from the code-frame compression against the dense composite.

``min_fidelity``, ``entangled_fidelity`` and ``pure_fidelity`` accept the
recovery applied after the channel and read the k x k matrices
(R_r^dag B)^dag (A_a B) off the error images, so the n x n composites
R_r A_a are never formed. ``compose`` builds those composites and stays
the oracle here, on seeded random codes and on the phase codes.
"""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import grid_refine_minimum, random_state, random_superoperator
from qeckit import (
    CapacityError,
    ChannelSpec,
    OperatorEnsemble,
    PureState,
    build_channel,
    builtin_code,
    code_error,
    compose,
    e_error_family,
    entangled_fidelity,
    min_fidelity,
    pure_fidelity,
    random_code,
    repetition_phase_code,
    synthesize_recovery,
    tensor_power,
)
from qeckit import fidelity, linalg
from qeckit.recovery import RecoveryOperator
from test_bloch_exact import deviation_tensor

GAMMA = 0.1
SIZES = [(n, k) for n in (4, 8, 16) for k in (1, 2, 3)]


def _as_recovery(ensemble):
    """Any superoperator as a RecoveryOperator, wrapped like ``memory.identity_recovery``."""
    return RecoveryOperator(
        ensemble=ensemble,
        syndrome_dim=1,
        complement_dim=0,
        syndrome_coefficients=np.ones((1, 1), dtype=np.complex128),
    )


def _phase_case(m):
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": GAMMA}))
    code = repetition_phase_code(m)
    recovery = synthesize_recovery(code, e_error_family(pm, m, (m - 1) // 2))
    return code, tensor_power(pm, m), recovery


def _random_cases():
    for n, k in SIZES:
        rng = np.random.default_rng(2000 * n + k)
        code = random_code(n, k, seed=int(rng.integers(1 << 31)))
        noise = random_superoperator(n, int(rng.integers(2, 5)), rng)
        recovery = _as_recovery(random_superoperator(n, int(rng.integers(2, 5)), rng))
        yield pytest.param(code, noise, recovery, id=f"n{n}k{k}")


RANDOM_CASES = list(_random_cases())


@pytest.mark.parametrize("m", [3, 5])
def test_phase_codes_match_compose(m):
    code, noise, recovery = _phase_case(m)
    report = min_fidelity(code, noise, recovery=recovery)
    dense = min_fidelity(code, compose(recovery.ensemble, noise))
    assert abs(report.value - dense.value) <= 1e-12
    assert report.value == pure_fidelity(report.argmin_state, noise, recovery)


def test_phase7_matches_compose_and_binomial_tail():
    # The full phase7 composite has 8,320 dense 128 x 128 elements (2.2 GB),
    # so compose checks an eighth of the noise family and the full channel
    # is checked against its closed form: 1 minus the chance of 4+ flips.
    code, noise, recovery = _phase_case(7)
    part = OperatorEnsemble(tuple(noise)[::16], label="part")
    dense = min_fidelity(code, compose(recovery.ensemble, part))
    assert abs(min_fidelity(code, part, recovery=recovery).value - dense.value) <= 1e-12

    p = (1.0 - math.exp(-GAMMA)) / 2.0
    tail = sum(math.comb(7, j) * p**j * (1.0 - p) ** (7 - j) for j in range(4, 8))
    assert abs(min_fidelity(code, noise, recovery=recovery).value - (1.0 - tail)) <= 1e-12


@pytest.mark.parametrize("code, noise, recovery", RANDOM_CASES)
def test_random_codes_match_compose(code, noise, recovery):
    report = min_fidelity(code, noise, recovery=recovery)
    dense = min_fidelity(code, compose(recovery.ensemble, noise))
    assert report.method == dense.method
    assert abs(report.value - dense.value) <= (1e-12 if code.k <= 2 else 1e-7)
    assert report.value == pure_fidelity(report.argmin_state, noise, recovery)


@pytest.mark.parametrize("code, noise, recovery", RANDOM_CASES)
def test_pure_fidelity_matches_compose_inside_and_outside_the_code(code, noise, recovery):
    composite = compose(recovery.ensemble, noise)
    rng = np.random.default_rng(code.n * 10 + code.k)
    states = [random_state(code.n, rng) for _ in range(3)]
    for _ in range(3):
        c = rng.normal(size=code.k) + 1j * rng.normal(size=code.k)
        states.append(PureState(code.matrix @ (c / np.linalg.norm(c))))
    for state in states:
        assert abs(pure_fidelity(state, noise, recovery) - pure_fidelity(state, composite)) <= 1e-12


def _entangled_cases():
    for m in (3, 5):
        yield pytest.param(*_phase_case(m), id=f"phase{m}")
    yield from (case for case in RANDOM_CASES if case.values[0].k <= 2)


@pytest.mark.parametrize("code, noise, recovery", list(_entangled_cases()))
def test_entangled_fidelity_matches_compose(code, noise, recovery):
    report = entangled_fidelity(code, noise, recovery=recovery)
    dense = entangled_fidelity(code, compose(recovery.ensemble, noise))
    assert abs(report.max_entangled_value - dense.max_entangled_value) <= 1e-12
    (f, bound, ok), (f_dense, bound_dense, ok_dense) = report.bound_check, dense.bound_check
    assert abs(f - f_dense) <= 1e-12
    assert abs(bound - bound_dense) <= 1e-12
    assert ok == ok_dense


def test_code_error_matches_deviation_tensor_on_phase5_composite():
    code, noise, recovery = _phase_case(5)
    composite = compose(recovery.ensemble, noise)
    report = code_error(code, composite)
    oracle, _ = grid_refine_minimum(deviation_tensor(code, composite))
    assert abs(report.value + oracle) <= 1e-12
    # the witness value is the per-element deviation sum_m ||(B_m - <B_m>) psi||^2
    psi = report.argmin_state.amplitudes
    images = [op @ psi for op in composite]
    direct = sum(np.linalg.norm(x - np.vdot(psi, x) * psi) ** 2 for x in images)
    assert abs(report.value - direct) <= 1e-12
    # trace preserving: the deviation is one minus the worst-case fidelity
    assert abs(report.value - (1.0 - min_fidelity(code, noise, recovery=recovery).value)) <= 1e-12


def test_phase7_min_fidelity_never_forms_the_composite():
    code, noise, recovery = _phase_case(7)
    tracemalloc.start()
    try:
        min_fidelity(code, noise, recovery=recovery)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_logical_channel_peaks_within_the_bytes_it_counts(monkeypatch):
    code = builtin_code("trivial(16)")
    channel = build_channel(ChannelSpec("pauli_unitary_basis", {"qubits": 4, "max_errors": 2}))
    recovery = _as_recovery(random_superoperator(16, 5, np.random.default_rng(16)))
    counted = []
    monkeypatch.setattr(fidelity, "_check_bytes", lambda need, what: counted.append(need))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stack, _ = fidelity._logical(code, channel, recovery)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert stack.shape == (67 * 5, 16, 16)
    assert counted and peak <= counted[0]


def test_logical_channel_refused_before_it_is_formed(monkeypatch):
    monkeypatch.setattr(linalg, "ENSEMBLE_BYTE_CAP", 2**20)
    code = builtin_code("trivial(16)")
    pauli = e_error_family(build_channel(ChannelSpec("pauli_unitary_basis", {})), 4, 2)
    assert len(pauli) == 67  # family 0.27 MB; with 5 recovery elements the (335, 16, 16) stack is 1.37 MB
    channel = OperatorEnsemble(tuple(a / math.sqrt(67) for a in pauli))  # trace preserving
    recovery = _as_recovery(random_superoperator(16, 5, np.random.default_rng(16)))

    def no_images(*args):
        raise AssertionError("the error images were formed before the refusal")

    def no_solve(*args):
        raise AssertionError("the logical channel was formed and solved before the refusal")

    monkeypatch.setattr(fidelity, "_error_images", no_images)
    monkeypatch.setattr(fidelity, "_minima", no_solve)
    with pytest.raises(CapacityError, match="logical channel"):
        min_fidelity(code, channel, recovery=recovery)
    with pytest.raises(CapacityError, match="logical channel"):
        entangled_fidelity(code, channel, recovery=recovery)
