"""The register lifts: tensor_power and e_error_family build through one checked builder.

Their members must match the chained and word-by-word constructions they
replace bit for bit, in the same order and under the same labels, and a
family over the size caps must be refused from its count alone.
"""

import time

import numpy as np
import pytest

from qeckit import CHANNEL_KINDS, CapacityError, ChannelSpec, OperatorEnsemble, build_channel, e_error_family, tensor_power
from qeckit.channels import SIGMA_X
from helpers import chained_tensor_power, weight_ordered_family

# Every built-in one-qubit kind, with a zero-parameter case where that puts the identity in slot 0.
ONE_QUBIT = [
    ("decoherence", {"gamma": 0.3}),
    ("decoherence", {"gamma": 0.0}),
    ("decoherence_pm_basis", {"gamma": 0.2}),
    ("spontaneous_emission", {"p": 0.3}),
    ("spontaneous_emission", {"p": 0.0}),
    ("amplitude_damping", {"p": 0.3}),
    ("amplitude_damping", {"p": 0.0}),
    ("pauli_unitary_basis", {}),
    ("measurement_basis", {}),
    ("depolarizing_third", {}),
    ("uniform_phase_flip", {"p": 0.2}),
]


def _bits(ops):
    return [a.tobytes() for a in ops]


def test_the_cases_cover_every_one_qubit_kind():
    assert {kind for kind, _ in ONE_QUBIT} == set(CHANNEL_KINDS) - {"overlap_example", "explicit"}
    assert all(build_channel(ChannelSpec(kind, params)).dim == 2 for kind, params in ONE_QUBIT)


@pytest.mark.parametrize("kind, params", ONE_QUBIT)
def test_tensor_power_matches_chained_products_bit_for_bit(kind, params):
    base = build_channel(ChannelSpec(kind, params))
    for r in range(1, 5):
        power = tensor_power(base, r)
        assert power.label == f"{base.label}^(x){r}"
        assert _bits(power) == _bits(chained_tensor_power(base, r))


@pytest.mark.parametrize("kind, params", ONE_QUBIT)
def test_e_error_family_matches_weight_ordered_words_bit_for_bit(kind, params):
    base = build_channel(ChannelSpec(kind, params))
    slot0 = base.operators[0]
    identity_led = np.max(np.abs(slot0 - slot0[0, 0] * np.eye(2))) <= 1e-9 * max(1.0, abs(slot0[0, 0]))
    for r in range(1, 5):
        for e in range(r + 1):
            if not identity_led:
                with pytest.raises(ValueError, match="identity"):
                    e_error_family(base, r, e)
                continue
            family = e_error_family(base, r, e)
            assert family.label == f"{base.label}[r={r},e<={e}]"
            assert _bits(family) == _bits(weight_ordered_family(base, r, e))


def test_a_huge_family_is_refused_from_its_count_alone():
    # 300 one-qubit operators at r = 8: from e = 2 on, millions of words or more, so enumerating
    # them before the byte check would show (e = 1, 2,393 operators, fits the budget)
    basis = OperatorEnsemble((np.eye(2, dtype=complex),) + tuple((j / 300.0) * SIGMA_X for j in range(1, 300)))
    builds = [lambda: tensor_power(basis, 8)] + [lambda e=e: e_error_family(basis, 8, e) for e in range(2, 9)]
    for build in builds:
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="GiB cap"):
            build()
        assert time.perf_counter() - start < 0.1


def test_the_cap_is_checked_before_the_identity_slot():
    # measurement_basis leads with |0><0|: at 9 qubits the size refusal comes first, as a CapacityError
    with pytest.raises(CapacityError, match="dimension 512 exceeds the cap 256"):
        build_channel(ChannelSpec("measurement_basis", {"qubits": 9, "max_errors": 1}))
    with pytest.raises(ValueError, match="identity"):
        build_channel(ChannelSpec("measurement_basis", {"qubits": 8, "max_errors": 1}))
