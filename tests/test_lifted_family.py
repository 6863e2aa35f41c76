"""Register lifts kept as words: images and residuals against the dense members.

A lift whose one-qubit operators have at most one nonzero per row holds
its members as words until it is iterated. Its images ``A_a B`` must be
the dense products bit for bit where every value is real or imaginary
(the pm, Pauli and depolarizing bases), and equal as values for every
other catalogued kind, where a row an operator annihilates may hold -0.0
in the dense product. The dense oracle is ``kron_all`` over each word
or chained ``tensor_product`` calls (``tests/helpers.py``), never the
family's own members.
"""

import tracemalloc

import numpy as np
import pytest

from qeckit import ChannelSpec, OperatorEnsemble, build_channel, e_error_family, kl_check, random_code, tensor_power
from helpers import chained_tensor_power, weight_ordered_family
from test_register import ONE_QUBIT

BIT_EXACT = {"decoherence_pm_basis", "pauli_unitary_basis", "depolarizing_third"}
DENSE_BYTES = 2**25  # e-families whose dense oracle would exceed this are left out


def _frame(n, k, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))


def _identity_led(base):
    a0 = base.operators[0]
    return np.max(np.abs(a0 - a0[0, 0] * np.eye(2))) <= 1e-9 * max(1.0, abs(a0[0, 0]))


def _cases(base):
    """(family, dense members) for every tensor power with r <= 4 and every e-family with r <= 6."""
    for r in range(1, 5):
        yield tensor_power(base, r), chained_tensor_power(base, r)
    if _identity_led(base):
        for r in range(1, 7):
            for e in range(r + 1):
                family = e_error_family(base, r, e)
                if len(family) * 4**r * 16 <= DENSE_BYTES:
                    yield family, weight_ordered_family(base, r, e)


def _dense_residual(ops):
    return float(np.max(np.abs(sum(a.conj().T @ a for a in ops) - np.eye(len(ops[0])))))


@pytest.mark.parametrize("kind, params", ONE_QUBIT)
def test_lifted_images_and_residual_match_the_dense_members(kind, params):
    base = build_channel(ChannelSpec(kind, params))
    for seed, (family, dense) in enumerate(_cases(base)):
        frame = _frame(family.dim, 3, seed)
        images, residual = family.images(frame), family.completeness_residual
        assert "operators" not in vars(family)
        oracle = np.stack([a @ frame for a in dense], axis=1)
        if kind in BIT_EXACT:
            assert images.tobytes() == oracle.tobytes(), family.label
        else:
            assert np.array_equal(images, oracle), family.label
        assert residual == _dense_residual(dense), family.label


def test_a_random_monomial_basis_matches_the_dense_members_within_rounding():
    # complex values and two rows into one column: the dense product may round differently
    rng = np.random.default_rng(11)
    flip = np.array([[0, 1], [0, 1]]) * (rng.normal(size=2) + 1j * rng.normal(size=2))[:, None]
    phase = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
    basis = OperatorEnsemble((0.8 * np.eye(2, dtype=complex), 0.3 * flip, 0.5 * phase))
    for r, e in ((3, 1), (4, 2), (5, 5)):
        family = e_error_family(basis, r, e)
        frame = _frame(family.dim, 2, r)
        dense = weight_ordered_family(basis, r, e)
        oracle = np.stack([a @ frame for a in dense], axis=1)
        np.testing.assert_allclose(family.images(frame), oracle, rtol=0, atol=1e-14)
        assert abs(family.completeness_residual - _dense_residual(dense)) < 1e-14
        assert "operators" not in vars(family)


def test_a_basis_with_two_nonzeros_in_a_row_builds_dense_members():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    spec = ChannelSpec("explicit", {"qubits": 3, "max_errors": 1}, explicit_operators=(np.eye(2), hadamard))
    family = build_channel(spec)
    assert type(family) is OperatorEnsemble and "operators" in vars(family)
    base = build_channel(ChannelSpec("explicit", {}, explicit_operators=(np.eye(2), hadamard)))
    assert [a.tobytes() for a in family] == [a.tobytes() for a in weight_ordered_family(base, 3, 1)]
    frame = _frame(8, 2, 0)
    assert family.images(frame).tobytes() == np.stack([a @ frame for a in family], axis=1).tobytes()


def test_materialized_members_are_read_only_and_built_once():
    family = build_channel(ChannelSpec("pauli_unitary_basis", {"qubits": 4, "max_errors": 2}))
    assert "operators" not in vars(family)
    members = family.operators
    assert family.operators is members and all(a is b for a, b in zip(family, members))
    assert all(not a.flags.writeable for a in members)


def test_repr_names_the_family_without_building_its_members():
    family = e_error_family(build_channel(ChannelSpec("pauli_unitary_basis", {})), 8, 2)
    assert repr(family) == "_LiftedEnsemble(label='pauli_unitary_basis[r=8,e<=2]', len=277, dim=256)"
    assert "operators" not in vars(family)
    dense = OperatorEnsemble((np.eye(2),), label="id")
    assert repr(dense) == "OperatorEnsemble(label='id', len=1, dim=2)"


def test_check_of_the_eight_qubit_pauli_family_forms_no_member():
    code = random_code(256, 4, seed=5)
    pauli = build_channel(ChannelSpec("pauli_unitary_basis", {}))
    tracemalloc.start()
    try:
        family = e_error_family(pauli, 8, 2)
        assert (len(family), family.dim) == (277, 256)  # what the benchmark reads of a built family
        report = kl_check(code, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "operators" not in vars(family)
    assert not report.passed
    # built dense, the family alone took 277 MiB (peak 305 MiB); the images take 4.3 MiB and
    # their Gram 19 MiB, for a measured peak of 27 MiB (numpy 2.4.6)
    assert peak < 40 * 2**20
