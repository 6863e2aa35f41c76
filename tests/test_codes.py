import numpy as np
import pytest

from qeckit import (
    CapacityError,
    ChannelSpec,
    OperatorEnsemble,
    PureState,
    QuantumCode,
    build_channel,
    builtin_code,
    e_error_family,
    kl_check,
    naive_counting_bound,
    qubit_lower_bound,
    random_code,
    reduced_dm_check,
    repetition_phase_code,
)
from qeckit import linalg
from qeckit.catalog import bit_flip_family, phase_error_family
from qeckit.linalg import random_unitary


def kl_oracle(code, errors):
    """Independent double-loop evaluation of the two violation magnitudes."""
    max_off = 0.0
    max_diag = 0.0
    for a in errors:
        for b in errors:
            op = a.conj().T @ b
            diag = []
            for i, si in enumerate(code.basis):
                for j, sj in enumerate(code.basis):
                    val = np.vdot(si.amplitudes, op @ sj.amplitudes)
                    if i != j:
                        max_off = max(max_off, abs(val))
                    elif i == j:
                        pass
                diag.append(np.vdot(si.amplitudes, op @ si.amplitudes))
            for x in diag:
                for y in diag:
                    max_diag = max(max_diag, abs(x - y))
    return max_off, max_diag


def test_builtin_codes_orthonormal():
    phase3 = builtin_code("phase3")
    assert phase3.n == 8 and phase3.k == 2
    assert abs(np.vdot(phase3.basis[0].amplitudes, phase3.basis[1].amplitudes)) < 1e-14
    pair = builtin_code("pair")
    assert pair.n == 4 and pair.k == 2
    assert pair.basis[0].amplitudes[0] == 1.0 and pair.basis[1].amplitudes[3] == 1.0
    trivial = builtin_code("trivial(4)")
    assert trivial.n == trivial.k == 4
    with pytest.raises(ValueError, match="unknown code"):
        builtin_code("steane")


def test_repetition_code_members():
    one = repetition_phase_code(1)
    assert np.allclose(one.basis[0].amplitudes, np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(one.basis[1].amplitudes, np.array([1, -1]) / np.sqrt(2))
    three = repetition_phase_code(3)
    phase3 = builtin_code("phase3")
    for a, b in zip(three.basis, phase3.basis):
        assert np.allclose(a.amplitudes, b.amplitudes)
    with pytest.raises(ValueError, match="odd"):
        repetition_phase_code(4)


def test_kl_phase3_against_one_phase_error_family():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    report = kl_check(code, family)
    assert report.passed
    off, diag = kl_oracle(code, family)
    assert abs(report.max_offdiag_violation - off) < 1e-12
    assert abs(report.max_diag_violation - diag) < 1e-12


def test_kl_phase3_fails_on_bit_flips():
    code = repetition_phase_code(3)
    report = kl_check(code, bit_flip_family(3))
    assert not report.passed
    off, diag = kl_oracle(code, bit_flip_family(3))
    assert report.max_offdiag_violation == pytest.approx(off, abs=1e-12)
    assert max(off, diag) > 0.1
    assert report.witness is not None


def test_kl_pair_code_with_overlap_channel():
    pair = builtin_code("pair")
    ch = build_channel(ChannelSpec("overlap_example", {"q": 0.25}))
    assert kl_check(pair, ch).passed


def test_kl_basis_independence():
    rng = np.random.default_rng(41)
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    flips = bit_flip_family(3)
    for _ in range(5):
        u = random_unitary(2, rng)
        rotated_basis = tuple(
            PureState(code.matrix @ u[:, i], code.shape) for i in range(2)
        )
        rotated = QuantumCode(rotated_basis, label="rotated")
        assert kl_check(rotated, family).passed
        assert not kl_check(rotated, flips).passed


def test_kl_subensembles_of_passing_family_pass():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    for drop in range(len(family)):
        ops = tuple(op for i, op in enumerate(family) if i != drop)
        assert kl_check(code, OperatorEnsemble(ops)).passed


def test_kl_linear_closure():
    rng = np.random.default_rng(43)
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    for _ in range(5):
        t = rng.normal(size=(3, len(family))) + 1j * rng.normal(size=(3, len(family)))
        mixed = tuple(
            sum(t[c, a] * family.operators[a] for a in range(len(family))) for c in range(3)
        )
        assert kl_check(code, OperatorEnsemble(mixed)).passed


def test_kl_single_codeword_always_passes():
    rng = np.random.default_rng(47)
    flips = bit_flip_family(3)
    for seed in range(5):
        code = random_code(8, 1, seed=seed, shape=(2, 2, 2))
        assert kl_check(code, flips).passed


def test_reduced_dm_zero_errors_is_orthonormality():
    for name in ("phase3", "pair"):
        code = builtin_code(name)
        assert reduced_dm_check(code, 0).passed


def test_reduced_dm_single_codeword_passes():
    code = random_code(16, 1, seed=3, shape=(2, 2, 2, 2))
    for e in (0, 1, 2):
        assert reduced_dm_check(code, e).passed


def test_reduced_dm_phase3_cannot_correct_general_single_errors():
    report = reduced_dm_check(repetition_phase_code(3), 1)
    assert not report.passed
    assert report.witness_subset is not None and report.witness_pair is not None


def test_reduced_dm_cross_validates_kl_on_single_codeword_codes():
    basis = build_channel(ChannelSpec("pauli_unitary_basis", {}))
    family = e_error_family(basis, 3, 1)
    for seed in range(4):
        code = random_code(8, 1, seed=seed, shape=(2, 2, 2))
        assert reduced_dm_check(code, 1).passed
        assert kl_check(code, family).passed


def test_reduced_dm_requires_qubit_shape():
    code = builtin_code("trivial(4)")  # shaped (2, 2)
    plain = QuantumCode(
        tuple(PureState(s.amplitudes, None) for s in code.basis), label="bare"
    )
    with pytest.raises(ValueError, match="shape"):
        reduced_dm_check(plain, 1)


def test_qubit_lower_bound_values():
    assert qubit_lower_bound(1, 2) == 5
    assert qubit_lower_bound(0, 2) == 1
    assert qubit_lower_bound(2, 2) == 9
    assert qubit_lower_bound(1, 1) == 4
    assert qubit_lower_bound(1, 3) == 6


def test_naive_counting_bound_values():
    satisfied, lhs, rhs = naive_counting_bound(4, 1, 2)
    assert (satisfied, lhs, rhs) == (False, 26, 16)
    satisfied, lhs, rhs = naive_counting_bound(5, 1, 2)
    assert (satisfied, lhs, rhs) == (True, 32, 32)
    satisfied, lhs, rhs = naive_counting_bound(3, 0, 2)
    assert satisfied and lhs == 2 and rhs == 8


def test_random_code_reproducible():
    a = random_code(8, 2, seed=11)
    b = random_code(8, 2, seed=11)
    assert np.array_equal(a.matrix, b.matrix)
    assert "seed=11" in a.label


def test_code_orthonormality_enforced():
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    w = np.array([1.0, 1.0, 0, 0], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValueError, match="violation"):
        QuantumCode((PureState(v), PureState(w)))


def test_codes_above_the_cap_are_refused(monkeypatch):
    monkeypatch.setattr(linalg, "DIM_CAP", 4)
    with pytest.raises(CapacityError, match="dimension 8 exceeds the cap 4"):
        builtin_code("trivial(8)")  # before its basis is allocated
    with pytest.raises(CapacityError, match="dimension 8 exceeds the cap 4"):
        random_code(8, 1, seed=0)  # before its Gaussians are drawn
    assert builtin_code("trivial(4)").n == 4


def _refuse_to_draw(seed):
    raise AssertionError("random_code drew its Gaussians for a size it should refuse")


@pytest.mark.parametrize("n, k, error, message", [
    (2, 3, ValueError, "k <= n"),
    (0, 1, ValueError, "n >= 1"),
    (1, 0, ValueError, "k >= 1"),
    (-4, 2, ValueError, "n >= 1"),
    (2 * linalg.DIM_CAP, 1, CapacityError, "exceeds the cap"),
])
def test_random_code_refuses_impossible_sizes_before_drawing(n, k, error, message, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _refuse_to_draw)
    with pytest.raises(error, match=message):
        random_code(n, k, seed=0)


def test_four_qubit_sample_fails_quickly():
    basis = build_channel(ChannelSpec("pauli_unitary_basis", {}))
    family = e_error_family(basis, 4, 1)
    for seed in range(10):
        code = random_code(16, 2, seed=seed, shape=(2, 2, 2, 2))
        report = kl_check(code, family)
        assert not report.passed
        assert max(report.max_offdiag_violation, report.max_diag_violation) > 1e-3
