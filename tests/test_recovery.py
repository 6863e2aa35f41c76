import math

import numpy as np
import pytest

from qeckit import (
    ChannelSpec,
    NotCorrectableError,
    NotSuperoperatorError,
    OperatorEnsemble,
    PureState,
    QuantumCode,
    ToleranceConfig,
    build_channel,
    builtin_code,
    compose,
    entangled_state_test,
    entropy_test,
    kl_check,
    kron_all,
    random_code,
    repetition_phase_code,
    syndrome_decomposition,
    synthesize_recovery,
    tensor_power,
    validate_superoperator,
    verify_recovery,
)
from qeckit.catalog import bit_flip_family, catalogue, phase_error_family
from qeckit.channels import SIGMA_X, SIGMA_Z

I2 = np.eye(2, dtype=complex)


def sigma_z_on(r, j):
    factors = [I2] * r
    factors[j] = SIGMA_Z
    return kron_all(factors)


def hand_built_phase3_recovery():
    """Projection onto the code composed with the majority-rule sign fixes."""
    code = repetition_phase_code(3)
    proj = code.matrix @ code.matrix.conj().T
    return OperatorEnsemble(
        (proj, proj @ sigma_z_on(3, 0), proj @ sigma_z_on(3, 1), proj @ sigma_z_on(3, 2)),
        label="hand-built",
    )


def test_trivial_code_identity_channel_recovery():
    code = builtin_code("trivial(2)")
    ident = OperatorEnsemble((I2.copy(),))
    rec = synthesize_recovery(code, ident)
    assert rec.syndrome_dim == 1 and rec.complement_dim == 0
    assert np.allclose(rec.ensemble.operators[0], np.zeros((2, 2)))  # nothing unreached
    assert np.allclose(rec.ensemble.operators[1], I2)
    report = verify_recovery(code, ident, rec)
    assert report.passed
    assert report.lambda_values[1, 0] == pytest.approx(1.0)


def test_phase3_synthesis_dimensions_and_verification():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    rec = synthesize_recovery(code, family)
    assert rec.syndrome_dim == 4 and rec.complement_dim == 0
    report = verify_recovery(code, family, rec)
    assert report.passed and report.max_identity_residual < 1e-9


def test_phase3_synthesized_matches_hand_built_up_to_phase():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    rec = synthesize_recovery(code, family)
    hand = hand_built_phase3_recovery()
    for rr in rec.ensemble.operators[1:]:
        support = rr.conj().T @ rr  # projection onto this syndrome sector
        matched = False
        for hh in hand:
            overlap = hh @ support
            scale = np.trace(overlap.conj().T @ rr)
            norm = np.trace(overlap.conj().T @ overlap)
            if abs(norm) < 1e-12:
                continue
            c = scale / norm
            if abs(abs(c) - 1.0) < 1e-9 and np.max(np.abs(rr @ support - c * overlap)) < 1e-9:
                matched = True
                break
        assert matched, "synthesized element does not match any hand-built one"


def test_hand_built_recovery_verifies_against_one_error_family():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    hand = hand_built_phase3_recovery()
    assert validate_superoperator(hand) < 1e-12
    from qeckit import RecoveryOperator

    rec = RecoveryOperator(
        ensemble=hand, syndrome_dim=4, complement_dim=0,
        syndrome_coefficients=np.zeros((4, 4), dtype=complex),
    )
    report = verify_recovery(code, family, rec)
    assert report.passed


def test_pair_overlap_synthesis_two_elements_matching_supports():
    pair = builtin_code("pair")
    ch = build_channel(ChannelSpec("overlap_example", {"q": 0.25}))
    rec = synthesize_recovery(pair, ch)
    assert rec.syndrome_dim == 2 and rec.complement_dim == 0
    r0 = np.zeros((4, 4), dtype=complex)
    r0[0, 0] = r0[3, 3] = 1.0
    r1 = np.zeros((4, 4), dtype=complex)
    r1[0, 2] = r1[3, 1] = 1.0
    assert np.max(np.abs(rec.ensemble.operators[1] - r0)) < 1e-10
    assert np.max(np.abs(rec.ensemble.operators[2] - r1)) < 1e-10
    assert verify_recovery(pair, ch, rec).max_identity_residual < 1e-9


def test_not_correctable_carries_kl_report():
    code = repetition_phase_code(3)
    with pytest.raises(NotCorrectableError) as err:
        synthesize_recovery(code, bit_flip_family(3))
    assert err.value.report is not None and not err.value.report.passed


def test_scalar_action_on_random_code_states():
    rng = np.random.default_rng(53)
    code = repetition_phase_code(3)
    family = phase_error_family(0.15, 3, 1)
    rec = synthesize_recovery(code, family)
    coeff = rec.syndrome_coefficients
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        psi = code.matrix @ c
        for r in range(rec.syndrome_dim):
            rr = rec.ensemble.operators[r + 1]
            for a, aa in enumerate(family):
                residual = np.linalg.norm(rr @ (aa @ psi) - coeff[r, a] * psi)
                assert residual < 1e-8


def test_recovery_completeness():
    code = repetition_phase_code(3)
    rec = synthesize_recovery(code, phase_error_family(0.1, 3, 1))
    acc = sum(op.conj().T @ op for op in rec.ensemble)
    assert np.max(np.abs(acc - np.eye(8))) < 1e-9


def test_recovery_elements_factor_through_projections():
    # every element is a partial isometry: R^dag R is an orthogonal
    # projection, and element 0 is itself the unreached-complement projection
    pair = builtin_code("pair")
    ch = build_channel(ChannelSpec("overlap_example", {"q": 0.3}))
    rec = synthesize_recovery(pair, ch)
    comp = rec.ensemble.operators[0]
    assert np.max(np.abs(comp @ comp - comp)) < 1e-10
    assert np.max(np.abs(comp - comp.conj().T)) < 1e-10
    for rr in rec.ensemble.operators[1:]:
        support = rr.conj().T @ rr
        assert np.max(np.abs(support @ support - support)) < 1e-9


def test_synthesis_seed_changes_frames_not_verdict():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    rec1 = synthesize_recovery(code, family, seed=1)
    rec2 = synthesize_recovery(code, family, seed=2)
    res1 = verify_recovery(code, family, rec1).max_identity_residual
    res2 = verify_recovery(code, family, rec2).max_identity_residual
    assert res1 < 1e-9 and res2 < 1e-9
    assert not np.allclose(rec1.syndrome_coefficients, rec2.syndrome_coefficients)


def test_entangled_state_test_cases():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    rec = synthesize_recovery(code, family)
    assert entangled_state_test(code, compose(rec.ensemble, family))

    pair = builtin_code("pair")
    assert entangled_state_test(pair, OperatorEnsemble((np.eye(4, dtype=complex),)))
    flip_first = OperatorEnsemble((np.kron(SIGMA_X, I2),))
    assert not entangled_state_test(pair, flip_first)


def test_syndrome_decomposition_phase3():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    dec = syndrome_decomposition(code, family)
    assert dec.syndrome_dim == 4 and dec.complement_dim == 0 and dec.perfect
    assert np.max(np.abs(dec.iso_map.conj().T @ dec.iso_map - np.eye(8))) < 1e-10
    # factorization invariant on a random code state
    rng = np.random.default_rng(59)
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    c /= np.linalg.norm(c)
    psi = code.matrix @ c
    for a, aa in enumerate(family):
        coords = np.kron(c, dec.syndrome_vectors[:, a])  # (i, r) ordering
        padded = np.concatenate([coords, np.zeros(dec.complement_dim, dtype=complex)])
        assert np.linalg.norm(aa @ psi - dec.iso_map @ padded) < 1e-9


def test_syndrome_decomposition_pair_and_trivial():
    pair = builtin_code("pair")
    ch = build_channel(ChannelSpec("overlap_example", {"q": 0.25}))
    dec = syndrome_decomposition(pair, ch)
    assert dec.syndrome_dim == 2 and dec.complement_dim == 0

    trivial = builtin_code("trivial(2)")
    ident = OperatorEnsemble((I2.copy(),))
    dec2 = syndrome_decomposition(trivial, ident)
    assert dec2.syndrome_dim == 1
    assert dec2.syndrome_vectors.shape == (1, 1)
    assert abs(dec2.syndrome_vectors[0, 0] - 1.0) < 1e-12


def test_syndrome_decomposition_rejects_uncorrectable():
    code = repetition_phase_code(3)
    with pytest.raises(NotCorrectableError):
        syndrome_decomposition(code, bit_flip_family(3))


def _perturbed_phase3(eps: float) -> QuantumCode:
    """phase3 with its second codeword tilted by ``eps`` out of the code, still orthonormal."""
    b = repetition_phase_code(3).matrix
    v = np.random.default_rng(1).normal(size=8) + 0j
    v -= b @ (b.conj().T @ v)
    second = b[:, 1] + eps * v / np.linalg.norm(v)
    return QuantumCode((PureState(b[:, 0], (2, 2, 2)), PureState(second / np.linalg.norm(second), (2, 2, 2))))


@pytest.mark.parametrize("eps", [1e-7, 1e-6])
def test_synthesis_and_decomposition_refuse_at_the_same_tolerance(eps):
    code, family = _perturbed_phase3(eps), phase_error_family(0.1, 3, 1)
    loose = ToleranceConfig(check=1e-5)
    assert kl_check(code, family, loose).passed
    residual = syndrome_decomposition(code, family, loose).max_residual
    assert 1e-7 < residual < loose.check  # above the construction floor, within the check tolerance
    recovery = synthesize_recovery(code, family, loose)
    assert verify_recovery(code, family, recovery, loose).passed

    tight = ToleranceConfig(check=residual / 2)
    assert kl_check(code, family, tight).passed
    for construct in (synthesize_recovery, syndrome_decomposition):
        with pytest.raises(NotCorrectableError, match="construction is inconsistent"):
            construct(code, family, tight)


def test_entropy_route_values():
    code = repetition_phase_code(3)
    flip = build_channel(ChannelSpec("uniform_phase_flip", {"p": 0.3, "qubits": 3}))
    report = entropy_test(code, flip)
    assert report.passed
    assert report.difference_bits == pytest.approx(1.0, abs=1e-9)

    trivial = builtin_code("trivial(2)")
    ident = OperatorEnsemble((I2.copy(),))
    report2 = entropy_test(trivial, ident)
    assert report2.passed
    assert report2.mixed_codeword_entropy == pytest.approx(1.0, abs=1e-9)
    assert report2.entangled_image_entropy == pytest.approx(0.0, abs=1e-9)

    pair = builtin_code("pair")
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1}))
    report3 = entropy_test(pair, tensor_power(pm, 2))
    assert not report3.passed
    assert report3.difference_bits < 1.0


def test_entropy_route_refuses_incomplete_families():
    code = repetition_phase_code(3)
    with pytest.raises(NotSuperoperatorError):
        entropy_test(code, phase_error_family(0.1, 3, 1))


def test_left_inverse_normalization():
    # for a trace-preserving correctable family the recovered composite has
    # unit total weight: sum |lambda_{ra}|^2 == 1
    cases = []
    pair = builtin_code("pair")
    cases.append((pair, build_channel(ChannelSpec("overlap_example", {"q": 0.25}))))
    code = repetition_phase_code(3)
    cases.append((code, build_channel(ChannelSpec("uniform_phase_flip", {"p": 0.3, "qubits": 3}))))
    cases.append((builtin_code("trivial(2)"), OperatorEnsemble((I2.copy(),))))
    for c, ch in cases:
        rec = synthesize_recovery(c, ch)
        report = verify_recovery(c, ch, rec)
        total = float(np.sum(np.abs(report.lambda_values) ** 2))
        assert abs(total - 1.0) < 1e-9


def test_equivalence_of_routes_on_catalogue():
    for case in catalogue():
        kl_verdict = kl_check(case.code, case.errors).passed
        assert kl_verdict == case.correctable, case.name

        try:
            rec = synthesize_recovery(case.code, case.errors)
            proportional = verify_recovery(case.code, case.errors, rec).passed
            entangled = entangled_state_test(case.code, compose(rec.ensemble, case.errors))
        except NotCorrectableError:
            proportional = False
            entangled = False
        try:
            syndrome_decomposition(case.code, case.errors)
            decomposable = True
        except NotCorrectableError:
            decomposable = False

        assert proportional == kl_verdict, case.name
        assert entangled == kl_verdict, case.name
        assert decomposable == kl_verdict, case.name
        if case.channel_is_superoperator:
            assert entropy_test(case.code, case.errors).passed == kl_verdict, case.name


def test_a_family_that_reaches_nothing_decomposes_into_the_complement():
    # the one-member zero family: every syndrome frame is empty, so the recovery is the bare projection
    trivial, zero = builtin_code("trivial(2)"), OperatorEnsemble((np.zeros((2, 2), dtype=complex),))
    rec = synthesize_recovery(trivial, zero)
    assert rec.syndrome_dim == 0 and rec.complement_dim == 2
    assert len(rec.ensemble) == 1 and np.array_equal(rec.ensemble.stack[0], I2)
    assert verify_recovery(trivial, zero, rec).passed
    dec = syndrome_decomposition(trivial, zero)
    assert np.array_equal(dec.iso_map, I2)
    assert not dec.perfect and dec.max_residual == 0.0
    assert dec.syndrome_dim == 0 and dec.complement_dim == 2 and len(dec.complement_basis) == 2


def test_decomposition_completes_a_large_complement_to_a_unitary():
    code = random_code(256, 2, seed=1)
    dec = syndrome_decomposition(code, OperatorEnsemble((np.eye(256, dtype=complex),)))
    assert dec.syndrome_dim == 1 and dec.complement_dim == 254 and not dec.perfect
    assert np.max(np.abs(dec.iso_map.conj().T @ dec.iso_map - np.eye(256))) < 1e-12
    frame = np.column_stack(dec.syndrome_basis + dec.complement_basis)
    assert np.array_equal(frame[:, 0], dec.iso_map[:, 0]) and np.array_equal(frame[:, 1:], dec.iso_map[:, 2:])
    assert np.allclose(dec.iso_map[:, :2], code.matrix, atol=1e-12)  # |nu_0^i> = |i_L> under the identity
