import math
import time

import numpy as np
import pytest

from qeckit import (
    CHANNEL_KINDS,
    DEFAULT_TOL,
    CapacityError,
    ChannelSpec,
    DensityMatrix,
    OperatorEnsemble,
    PureState,
    ToleranceConfig,
    apply_channel,
    build_channel,
    compose,
    e_error_family,
    strength,
    tensor_power,
    tensor_product,
    validate_superoperator,
)
from qeckit import channels, linalg
from qeckit.channels import SIGMA_X, SIGMA_Z
from helpers import random_superoperator

I2 = np.eye(2, dtype=complex)


def test_decoherence_matrices():
    gamma = 0.3
    ch = build_channel(ChannelSpec("decoherence", {"gamma": gamma}))
    g = math.exp(-gamma)
    assert np.allclose(ch.operators[0], np.diag([1.0, g]), atol=1e-15)
    assert np.allclose(ch.operators[1], np.diag([0.0, math.sqrt(1 - g * g)]), atol=1e-15)
    assert validate_superoperator(ch) < DEFAULT_TOL.check


def test_decoherence_gamma_zero_second_operator_vanishes():
    ch = build_channel(ChannelSpec("decoherence", {"gamma": 0.0}))
    assert np.allclose(ch.operators[0], I2)
    assert np.allclose(ch.operators[1], np.zeros((2, 2)))


def test_pm_basis_coefficients():
    gamma = 0.2
    g = math.exp(-gamma)
    ch = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    assert np.allclose(ch.operators[0], math.sqrt((1 + g) / 2) * I2, atol=1e-15)
    assert np.allclose(ch.operators[1], math.sqrt((1 - g) / 2) * SIGMA_Z, atol=1e-15)
    assert validate_superoperator(ch) < 1e-15


def test_pm_and_plain_decoherence_agree_on_states():
    gamma = 0.4
    plain = build_channel(ChannelSpec("decoherence", {"gamma": gamma}))
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = PureState(v / np.linalg.norm(v)).density()
        out1 = apply_channel(plain, rho)
        out2 = apply_channel(pm, rho)
        assert np.max(np.abs(out1.matrix - out2.matrix)) < 1e-10


def test_decoherence_damps_offdiagonals():
    gamma = 0.7
    ch = build_channel(ChannelSpec("decoherence", {"gamma": gamma}))
    plus = PureState(np.array([1, 1]) / math.sqrt(2))
    out = apply_channel(ch, plus.density())
    assert abs(out.matrix[0, 1] - 0.5 * math.exp(-gamma)) < 1e-14
    assert abs(out.matrix[0, 0] - 0.5) < 1e-14


def test_spontaneous_emission_as_printed_and_damping_variant():
    p = 0.3
    se = build_channel(ChannelSpec("spontaneous_emission", {"p": p}))
    assert np.allclose(se.operators[1], np.diag([0.0, p]))
    assert validate_superoperator(se) < DEFAULT_TOL.check
    ad = build_channel(ChannelSpec("amplitude_damping", {"p": p}))
    assert abs(ad.operators[1][0, 1] - p) < 1e-15
    assert validate_superoperator(ad) < DEFAULT_TOL.check
    # the damping variant moves population to |0>, the printed one does not
    one = PureState([0.0, 1.0]).density()
    assert apply_channel(ad, one).matrix[0, 0] > 0.0
    assert apply_channel(se, one).matrix[0, 0] == 0.0


def test_pauli_unitary_basis_properties():
    ch = build_channel(ChannelSpec("pauli_unitary_basis", {}))
    assert len(ch) == 4
    for a in ch:
        assert np.max(np.abs(a.conj().T @ a - I2)) < 1e-14  # each unitary
    stacked = np.stack([a.reshape(-1) for a in ch])
    assert np.linalg.matrix_rank(stacked) == 4  # a linear basis of 2x2


def test_measurement_basis_sums_to_twice_identity():
    ch = build_channel(ChannelSpec("measurement_basis", {}))
    acc = sum(a.conj().T @ a for a in ch)
    assert np.max(np.abs(acc - 2 * I2)) < 1e-15
    assert validate_superoperator(ch) >= DEFAULT_TOL.check


def test_overlap_channel_is_superoperator():
    ch = build_channel(ChannelSpec("overlap_example", {"q": 0.25}))
    assert validate_superoperator(ch) < 1e-12
    assert len(ch) == 3 and ch.dim == 4


def test_depolarizing_preserves_state_validity():
    ch = build_channel(ChannelSpec("depolarizing_third", {}))
    rng = np.random.default_rng(9)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    out = apply_channel(ch, PureState(v / np.linalg.norm(v)).density())
    assert abs(out.trace - 1.0) < 1e-12


def test_uniform_phase_flip_channel():
    ch = build_channel(ChannelSpec("uniform_phase_flip", {"p": 0.3, "qubits": 3}))
    assert len(ch) == 4 and ch.dim == 8
    assert validate_superoperator(ch) < 1e-14


def test_explicit_channel_roundtrips_operators():
    ops = (I2.copy(), np.zeros((2, 2), dtype=complex))
    ch = build_channel(ChannelSpec("explicit", {}, explicit_operators=ops))
    assert np.array_equal(ch.operators[0], I2)


@pytest.mark.parametrize("kind, params, message", [
    ("decoherence", {"gamma": -0.1}, "parameter gamma=-0.1 violates gamma >= 0.0"),
    ("decoherence", {}, "channel kind 'decoherence' requires parameter 'gamma'"),
    ("spontaneous_emission", {"p": 1.5}, "parameter p=1.5 violates p <= 1.0"),
    ("amplitude_damping", {"p": -1}, "parameter p=-1.0 violates p >= 0.0"),
    ("uniform_phase_flip", {"qubits": 3}, "channel kind 'uniform_phase_flip' requires parameter 'p'"),
    ("overlap_example", {"q": 0.5}, "parameter q=0.5 violates q < 0.5"),
    ("overlap_example", {"q": 0.0}, "parameter q=0.0 violates q > 0.0"),
    ("depolarizing_third", {"p": 0.1},
     "channel kind 'depolarizing_third' does not read parameter(s) ['p']; it reads ['qubits', 'max_errors']"),
    ("nonsense", {}, f"unknown channel kind 'nonsense'; known: {CHANNEL_KINDS}"),
    ("explicit", {}, "explicit channel requires explicit_operators"),
    ("pauli_unitary_basis", {"qubits": 2.5}, "qubits must be a positive integer, got 2.5"),
    ("pauli_unitary_basis", {"qubits": 3, "max_errors": 4}, "max_errors must be an integer in 0..qubits, got 4.0"),
    ("pauli_unitary_basis", {"qubits": math.inf}, "qubits must be a positive integer, got inf"),
    ("pauli_unitary_basis", {"qubits": 3, "max_errors": math.inf}, "max_errors must be an integer in 0..qubits, got inf"),
    ("pauli_unitary_basis", {"qubits": math.nan}, "parameter qubits must be a number, got nan"),
    ("decoherence", {"gamma": math.nan}, "parameter gamma must be a number, got nan"),
    ("overlap_example", {"q": math.nan}, "parameter q must be a number, got nan"),
])
def test_invalid_parameters_raise(kind, params, message):
    with pytest.raises(ValueError) as info:
        ChannelSpec(kind, params)
    assert str(info.value) == message


def test_validate_superoperator_values():
    ident = OperatorEnsemble((I2.copy(),))
    assert validate_superoperator(ident) == 0.0
    gamma = 0.25
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    one_error = e_error_family(pm, 3, 1)
    assert validate_superoperator(one_error) > 1e-3  # truncation is incomplete


def test_validate_superoperator_is_the_completeness_residual():
    rng = np.random.default_rng(113)
    for _ in range(20):
        dim = int(rng.choice([2, 4, 8]))
        channel = random_superoperator(dim, int(rng.integers(1, 5)), rng)
        scaled = OperatorEnsemble(tuple(rng.uniform(0.5, 1.5) * a for a in channel))
        for ens in (channel, scaled):
            assert validate_superoperator(ens) == ens.completeness_residual
            dense = sum(a.conj().T @ a for a in ens)
            assert validate_superoperator(ens) == pytest.approx(np.max(np.abs(dense - np.eye(dim))), abs=1e-14)
            assert strength(ens) == pytest.approx(np.max(np.linalg.eigvalsh(dense)), abs=1e-14)


def test_apply_channel_identity_and_errors():
    rho = PureState([1.0, 0.0]).density()
    ident = OperatorEnsemble((I2.copy(),))
    assert np.allclose(apply_channel(ident, rho).matrix, rho.matrix)
    with pytest.raises(ValueError, match="mismatch"):
        apply_channel(ident, PureState([1, 0, 0, 0], shape=(2, 2)).density())
    basis = build_channel(ChannelSpec("measurement_basis", {}))
    with pytest.raises(ValueError, match="strength"):
        apply_channel(basis, rho)


def test_apply_incomplete_family_subnormalizes():
    gamma = 0.3
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    only_plus = OperatorEnsemble((pm.operators[0],))
    out = apply_channel(only_plus, PureState([1.0, 0.0]).density())
    assert out.subnormalized
    assert out.trace == pytest.approx((1 + math.exp(-gamma)) / 2)


def test_apply_channel_decides_trace_preservation_with_the_callers_tolerance():
    # residual (1 + 5e-9)**2 - 1 = 1e-8: trace preserving at check=1e-7, not at the default 1e-9
    nearly = OperatorEnsemble(((1 + 5e-9) * I2,))
    rho = PureState([1.0, 0.0]).density()
    loose = ToleranceConfig(check=1e-7)
    assert not apply_channel(nearly, rho, tol=loose).subnormalized
    with pytest.raises(ValueError, match="strength above 1"):
        apply_channel(nearly, rho)


def test_tensor_power_identity_and_completeness():
    ident = OperatorEnsemble((I2.copy(),))
    cubed = tensor_power(ident, 3)
    assert len(cubed) == 1 and np.allclose(cubed.operators[0], np.eye(8))
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.15}))
    cubed_pm = tensor_power(pm, 3)
    assert len(cubed_pm) == 8
    assert validate_superoperator(cubed_pm) < 1e-10


def test_tensor_power_capacity():
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.15}))
    with pytest.raises(CapacityError):
        tensor_power(pm, 9)


def test_e_error_family_counts():
    basis = build_channel(ChannelSpec("pauli_unitary_basis", {}))
    assert len(e_error_family(basis, 4, 1)) == 13
    assert len(e_error_family(basis, 5, 1)) == 16
    zero = e_error_family(basis, 3, 0)
    assert len(zero) == 1 and np.allclose(zero.operators[0], np.eye(8))


def test_e_error_family_requires_identity_slot():
    bad = OperatorEnsemble((SIGMA_X.copy(), I2.copy()))
    with pytest.raises(ValueError, match="identity"):
        e_error_family(bad, 2, 1)


def test_e_error_family_honours_tol():
    near_identity = OperatorEnsemble((I2 + 1e-8 * SIGMA_Z, SIGMA_X.copy()))
    family = e_error_family(near_identity, 2, 1, tol=ToleranceConfig(check=1e-6))
    assert len(family) == 3
    with pytest.raises(ValueError, match="identity"):
        e_error_family(near_identity, 2, 1)


def test_strength_values():
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.2}))
    assert strength(pm) == pytest.approx(1.0)
    p = 0.37
    scaled = OperatorEnsemble((math.sqrt(p) * SIGMA_Z,))
    assert strength(scaled) == pytest.approx(p)
    # splitting off the identity component of a superoperator leaves strength p
    remainder = OperatorEnsemble((math.sqrt(p) * SIGMA_X,))
    full = OperatorEnsemble((math.sqrt(1 - p) * I2, math.sqrt(p) * SIGMA_X))
    assert validate_superoperator(full) < DEFAULT_TOL.check
    assert strength(remainder) == pytest.approx(p)


def test_strength_multiplicative_under_tensor():
    rng = np.random.default_rng(31)
    for trial in range(20):
        d1, d2 = rng.choice([2, 3, 4]), rng.choice([2, 3])
        e1 = OperatorEnsemble(
            tuple(rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1)) for _ in range(rng.integers(1, 4)))
        )
        e2 = OperatorEnsemble(
            tuple(rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2)) for _ in range(rng.integers(1, 4)))
        )
        lhs = strength(tensor_product(e1, e2))
        rhs = strength(e1) * strength(e2)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)


def test_compose_superoperators():
    rng = np.random.default_rng(37)
    a = random_superoperator(4, 3, rng)
    b = random_superoperator(4, 2, rng)
    comp = compose(a, b)
    assert len(comp) == 6
    assert validate_superoperator(comp) < 1e-12


def test_ensemble_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="equal dimension"):
        OperatorEnsemble((I2.copy(), np.eye(4, dtype=complex)))


def test_completeness_residual_is_computed_on_first_read(monkeypatch):
    calls = []
    real = channels._sum_adag_a
    monkeypatch.setattr(channels, "_sum_adag_a", lambda ops: calls.append(len(ops)) or real(ops))
    pauli = build_channel(ChannelSpec("pauli_unitary_basis", {}))
    family = e_error_family(pauli, 6, 2)
    assert calls == []  # building the 154-operator family never sums A^dag A
    dense = sum(a.conj().T @ a for a in family)
    assert family.completeness_residual == np.max(np.abs(dense - np.eye(64)))
    assert validate_superoperator(family) >= DEFAULT_TOL.check
    assert calls == [len(family)]  # computed once, then kept


@pytest.mark.parametrize("kind, params", [
    ("decoherence", {"gamma": 0.1, "qbits": 3}),
    ("overlap_example", {"q": 0.25, "max_errors": 1}),
    ("uniform_phase_flip", {"p": 0.1, "qubits": 3, "max_errors": 1}),
    ("depolarizing_third", {"p": 0.1}),
])
def test_channel_spec_rejects_parameters_its_kind_does_not_read(kind, params):
    with pytest.raises(ValueError, match="does not read"):
        ChannelSpec(kind, params)


def test_explicit_lift_needs_one_qubit_operators():
    flips = (I2.copy(), SIGMA_X.copy())
    assert len(build_channel(ChannelSpec("explicit", {"max_errors": 1}, explicit_operators=flips))) == 2
    assert len(build_channel(ChannelSpec("explicit", {"qubits": 3, "max_errors": 1}, explicit_operators=flips))) == 4
    with pytest.raises(ValueError, match="one qubit"):
        build_channel(ChannelSpec("explicit", {"max_errors": 1}, explicit_operators=(np.eye(4),)))


def test_family_byte_budget_refuses_before_building(monkeypatch):
    monkeypatch.setattr(linalg, "ENSEMBLE_BYTE_CAP", 2**20)
    pauli = build_channel(ChannelSpec("pauli_unitary_basis", {}))
    assert len(e_error_family(pauli, 4, 2)) == 67  # 67 operators of 16 x 16: 0.27 MiB
    two, three = tensor_power(pauli, 2), tensor_power(pauli, 3)
    eyes = OperatorEnsemble((np.eye(16, dtype=complex),) * 30)

    def no_kron(*args):
        raise AssertionError("an operator was built before the refusal")

    monkeypatch.setattr(channels, "_kron_words", no_kron)
    monkeypatch.setattr(np, "kron", no_kron)
    with pytest.raises(CapacityError, match="19 operators of dimension 64"):
        e_error_family(pauli, 6, 1)  # 1.19 MiB
    with pytest.raises(CapacityError, match="1024 operators of dimension 32"):
        tensor_power(pauli, 5)  # 16 MiB, refused before its first pairwise product
    with pytest.raises(CapacityError, match="1024 operators of dimension 32"):
        tensor_product(two, three)
    with pytest.raises(CapacityError, match="900 operators of dimension 16"):
        compose(eyes, eyes)  # 3.5 MiB


def test_pauli_basis_at_eight_qubits_is_refused_before_allocating():
    # 4**8 = 65,536 operators of 256 x 256 would take 64 GiB
    pauli = build_channel(ChannelSpec("pauli_unitary_basis", {}))
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="64 GiB"):
        tensor_power(pauli, 8)
    assert time.perf_counter() - start < 1.0
