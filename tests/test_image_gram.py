"""The shared image Gram against the dense routes it replaced.

Every correctability route reads the error images A_a|i_L> once
(``codes._error_images``) and, where it needs inner products, one Gram
matrix of them (``codes._image_gram``). The dense n x n and n^2 x n^2
constructions survive in ``helpers`` as oracles; these seeded property
tests hold the fast routes to them.
"""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from helpers import (
    dense_entangled_residual,
    dense_entropies,
    dense_kl_violations,
    einsum_gram,
    pairwise_verification,
    random_superoperator,
    stacked_images,
)
from qeckit import (
    CapacityError,
    ChannelSpec,
    NotCorrectableError,
    OperatorEnsemble,
    build_channel,
    builtin_code,
    compose,
    e_error_family,
    entangled_state_test,
    entropy_test,
    kl_check,
    random_code,
    repetition_phase_code,
    synthesize_recovery,
    tensor_power,
    verify_recovery,
)
from qeckit import codes, linalg
from qeckit.catalog import catalogue
from qeckit.recovery import RecoveryOperator, _entangled_residual

SIZES = [(n, k) for n in (4, 8, 16) for k in (1, 2, 3)]


def _duplicated(family):
    """Rank-deficient superoperator: the first operator split into two equal halves."""
    ops = list(family)
    half = ops[0] / math.sqrt(2.0)
    return OperatorEnsemble((half, half, *ops[1:]), label=f"dup[{family.label}]")


def _pauli_family(n, e):
    return build_channel(ChannelSpec("pauli_unitary_basis", {"qubits": int(math.log2(n)), "max_errors": e}))


def _random_cases():
    """(code, errors, is_superoperator) over random codes and seeded families."""
    for n, k in SIZES:
        rng = np.random.default_rng(1000 * n + k)
        code = random_code(n, k, seed=100 * n + k)
        channel = random_superoperator(n, 3, rng)
        yield code, channel, True
        yield code, _duplicated(channel), True
        yield code, _pauli_family(n, 1), False
        yield code, _pauli_family(n, 2), False


def _catalogue_cases():
    for case in catalogue():
        yield case.code, case.errors, case.channel_is_superoperator


ALL_CASES = list(_random_cases()) + list(_catalogue_cases())


def _ids(cases):
    return [f"{c.label}|{e.label}" for c, e, _ in cases]


@pytest.mark.parametrize("code,errors,superop", ALL_CASES, ids=_ids(ALL_CASES))
def test_gram_matches_einsum_oracle(code, errors, superop):
    images = codes._error_images(code, errors)
    assert images.shape == (code.n, len(errors), code.k)
    gram = codes._image_gram(images)
    oracle = einsum_gram(stacked_images(code, errors))
    assert gram.shape == oracle.shape
    assert np.max(np.abs(gram - oracle)) < 1e-12


@pytest.mark.parametrize("code,errors,superop", ALL_CASES, ids=_ids(ALL_CASES))
def test_gram_is_exactly_hermitian(code, errors, superop):
    gram = codes._image_gram(codes._error_images(code, errors))
    for i, j in product(range(code.k), repeat=2):
        assert np.array_equal(gram[:, :, j, i], gram[:, :, i, j].conj().T)


def test_kl_check_of_one_logical_state_has_no_violation():
    # k = 1 has no logical pair i < j to reduce over
    code = random_code(16, 1, seed=7)
    report = kl_check(code, _pauli_family(16, 2))
    assert report.max_offdiag_violation == 0.0 and report.max_diag_violation == 0.0
    assert report.passed and report.witness is None
    images = codes._error_images(code, _pauli_family(16, 2))
    assert np.array_equal(report.lambda_matrix, codes._image_gram(images)[:, :, 0, 0])


@pytest.mark.parametrize("code,errors,superop", ALL_CASES, ids=_ids(ALL_CASES))
def test_kl_check_verdict_and_witness_match_einsum_gram(code, errors, superop, monkeypatch):
    fast = kl_check(code, errors)
    monkeypatch.setattr(codes, "_image_gram", lambda x: einsum_gram(x.transpose(1, 0, 2)))
    dense = kl_check(code, errors)
    assert fast.passed == dense.passed
    assert fast.witness == dense.witness
    assert abs(fast.max_offdiag_violation - dense.max_offdiag_violation) < 1e-12
    assert abs(fast.max_diag_violation - dense.max_diag_violation) < 1e-12
    assert np.max(np.abs(fast.lambda_matrix - dense.lambda_matrix)) < 1e-12


@pytest.mark.parametrize("code,errors,superop", ALL_CASES, ids=_ids(ALL_CASES))
def test_kl_check_slices_match_the_whole_array_reduction(code, errors, superop):
    # exact ties (mirrored entries, Pauli products) must give the same C-order witness
    report = kl_check(code, errors)
    max_off, max_diag, witness = dense_kl_violations(codes._image_gram(codes._error_images(code, errors)))
    assert report.max_offdiag_violation == max_off
    assert report.max_diag_violation == max_diag
    assert report.witness == (None if report.passed else witness)


def test_kl_check_witness_can_lie_in_a_mirrored_slice():
    # |G[1, 0, 0, 1]| = |<1|1>| = 1 is the largest entry of the reduced slice (0, 1), but its
    # mirror G[0, 1, 1, 0] comes first in C order; the diagonal spread also reaches 1 at (1, 1, 0, 1)
    lowering = OperatorEnsemble((np.eye(2), np.array([[0.0, 0.0], [1.0, 0.0]])))
    code = builtin_code("trivial(2)")
    report = kl_check(code, lowering)
    assert report.max_offdiag_violation == report.max_diag_violation == 1.0
    assert report.witness == (0, 1, 1, 0)
    assert dense_kl_violations(codes._image_gram(codes._error_images(code, lowering))) == (1.0, 1.0, (0, 1, 1, 0))


def test_kl_check_peak_stays_near_the_gram():
    # helpers.dense_kl_violations, reducing whole (m, m, k, k) arrays, peaks at about 2.6 times this
    code = random_code(256, 4, seed=5)
    errors = _pauli_family(256, 2)
    m, k = len(errors), code.k
    tracemalloc.start()
    try:
        report = kl_check(code, errors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * (m * m * k * k + code.n * m * k)
    assert report.witness == (2, 167, 1, 3)


SUPEROPERATOR_CASES = [c for c in ALL_CASES if c[2]]


@pytest.mark.parametrize("code,errors,superop", SUPEROPERATOR_CASES, ids=_ids(SUPEROPERATOR_CASES))
def test_entropy_route_matches_dense_oracle(code, errors, superop):
    report = entropy_test(code, errors)
    mixed, entangled = dense_entropies(code, errors)
    assert abs(report.mixed_codeword_entropy - mixed) < 1e-12
    assert abs(report.entangled_image_entropy - entangled) < 1e-12
    assert report.passed == (abs(mixed - entangled - math.log2(code.k)) < report.tol)


def _recovery_cases():
    """(code, errors, recovery): synthesized where correctable, random ensembles otherwise."""
    for code, errors, _ in ALL_CASES:
        try:
            yield code, errors, synthesize_recovery(code, errors)
        except NotCorrectableError:
            rng = np.random.default_rng(code.n * len(errors) + code.k)
            ensemble = random_superoperator(code.n, 2, rng)
            yield code, errors, RecoveryOperator(ensemble, 0, code.n, np.zeros((0, len(errors))))


RECOVERY_CASES = list(_recovery_cases())


@pytest.mark.parametrize("code,errors,recovery", RECOVERY_CASES, ids=_ids(RECOVERY_CASES))
def test_verify_recovery_matches_pairwise_oracle(code, errors, recovery):
    report = verify_recovery(code, errors, recovery)
    lam, residual = pairwise_verification(code, errors, recovery)
    assert np.max(np.abs(report.lambda_values - lam)) < 1e-12
    assert abs(report.max_identity_residual - residual) < 1e-12
    assert report.passed == (residual < report.tol)


@pytest.mark.parametrize("code,errors,recovery", RECOVERY_CASES, ids=_ids(RECOVERY_CASES))
def test_entangled_residual_matches_dense_oracle(code, errors, recovery):
    for composite in (errors, compose(recovery.ensemble, errors)):
        residual = _entangled_residual(code, composite)
        oracle = dense_entangled_residual(code, composite)
        assert abs(residual - oracle) < 1e-12
        assert entangled_state_test(code, composite) == (oracle < 1e-9)


def test_correctable_catalogue_cases_pass_every_route():
    # guards the property tests above against comparing only failures
    correctable = [case for case in catalogue() if case.correctable]
    assert correctable
    for case in correctable:
        rec = synthesize_recovery(case.code, case.errors)
        assert verify_recovery(case.code, case.errors, rec).passed
        assert _entangled_residual(case.code, compose(rec.ensemble, case.errors)) < 1e-9


def test_entropy_route_at_seven_qubits():
    code = repetition_phase_code(7)
    flip = build_channel(ChannelSpec("uniform_phase_flip", {"p": 0.3, "qubits": 7}))
    report = entropy_test(code, flip)
    assert report.passed
    assert report.difference_bits == pytest.approx(1.0, abs=1e-9)


def test_entropy_route_memory_under_full_dephasing_at_seven_qubits():
    # the n^2 x n^2 entangled image would be a 4.3 GB matrix here (n = 128)
    code = repetition_phase_code(7)
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1}))
    dephasing = tensor_power(pm, 7)
    assert len(dephasing) == 128
    tracemalloc.start()
    try:
        report = entropy_test(code, dephasing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert not report.passed
    assert 0.0 < report.difference_bits < 1.0


def test_image_gram_refused_before_it_is_formed(monkeypatch):
    monkeypatch.setattr(linalg, "ENSEMBLE_BYTE_CAP", 2**20)
    code = random_code(16, 4, seed=3)
    pauli = e_error_family(build_channel(ChannelSpec("pauli_unitary_basis", {})), 4, 2)
    assert len(pauli) == 67  # family 0.27 MB; its (67*4)^2 Gram is 1.15 MB
    channel = OperatorEnsemble(tuple(a / math.sqrt(67) for a in pauli))  # trace preserving

    def no_product(*args):
        raise AssertionError("the Gram was formed before the refusal")

    def no_images(*args):
        raise AssertionError("the error images were formed before the refusal")

    monkeypatch.setattr(codes, "dagger", no_product)
    monkeypatch.setattr(codes, "_error_images", no_images)
    with pytest.raises(CapacityError, match="image Gram"):
        kl_check(code, pauli)
    with pytest.raises(CapacityError, match="image Gram"):
        entropy_test(code, channel)


def test_image_gram_budget_counts_the_images_and_their_copy(monkeypatch):
    # 16 (mk)^2 bytes of Gram plus 16 nmk bytes each for the images and their (k, n, m) copy
    code = random_code(16, 4, seed=3)
    pauli = e_error_family(build_channel(ChannelSpec("pauli_unitary_basis", {})), 4, 2)
    need = 16 * (67 * 4) ** 2 + 2 * 16 * 16 * 67 * 4
    monkeypatch.setattr(linalg, "ENSEMBLE_BYTE_CAP", need - 1)
    with pytest.raises(CapacityError, match="image Gram"):
        kl_check(code, pauli)
    monkeypatch.setattr(linalg, "ENSEMBLE_BYTE_CAP", need)
    assert kl_check(code, pauli).max_offdiag_violation >= 0.0
