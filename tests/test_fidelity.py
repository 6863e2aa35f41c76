import math
from fractions import Fraction

import numpy as np
import pytest

from qeckit import (
    ChannelSpec,
    NotSuperoperatorError,
    OperatorEnsemble,
    PureState,
    apply_channel,
    binomial_fidelity_bound,
    build_channel,
    builtin_code,
    code_error,
    compose,
    e_error_family,
    entangled_bound_check,
    entangled_fidelity,
    min_fidelity,
    pure_fidelity,
    random_code,
    repetition_phase_code,
    synthesize_recovery,
    tensor_power,
)
from qeckit.catalog import phase_error_family
from qeckit.serialize import entangled_report_to_json
from helpers import density, random_state, random_superoperator

I2 = np.eye(2, dtype=complex)
QUBIT = builtin_code("trivial(2)")


def test_pure_fidelity_identity_channel():
    rng = np.random.default_rng(2)
    ident = OperatorEnsemble((I2.copy(),))
    assert pure_fidelity(random_state(2, rng), ident) == pytest.approx(1.0)


def test_pure_fidelity_two_route_agreement_plus_state():
    gamma = 0.3
    ch = build_channel(ChannelSpec("decoherence", {"gamma": gamma}))
    plus = PureState(np.array([1, 1]) / math.sqrt(2))
    direct = pure_fidelity(plus, ch)
    rho_out = apply_channel(ch, density(plus))
    via_density = float(np.vdot(plus.amplitudes, rho_out.matrix @ plus.amplitudes).real)
    assert direct == pytest.approx(via_density, abs=1e-12)
    assert direct == pytest.approx((1 + math.exp(-gamma)) / 2, abs=1e-12)


def test_pure_fidelity_decoherence_free_state():
    ch = build_channel(ChannelSpec("decoherence", {"gamma": 0.8}))
    assert pure_fidelity(PureState([1.0, 0.0]), ch) == pytest.approx(1.0)


def test_pure_fidelity_two_route_agreement_random():
    rng = np.random.default_rng(61)
    for _ in range(10):
        dim = int(rng.choice([2, 4]))
        ch = random_superoperator(dim, 3, rng)
        shape = (2,) * int(math.log2(dim))
        psi = random_state(dim, rng, shape)
        direct = pure_fidelity(psi, ch)
        rho_out = apply_channel(ch, density(psi))
        via_density = float(np.vdot(psi.amplitudes, rho_out.matrix @ psi.amplitudes).real)
        assert abs(direct - via_density) < 1e-12


def test_pure_fidelity_rejects_unnormalized():
    ident = OperatorEnsemble((I2.copy(),))
    with pytest.raises(ValueError, match="normalized"):
        pure_fidelity(np.array([1.0, 1.0]), ident)
    with pytest.raises(ValueError, match="normalized"):
        PureState([1.0, 1.0])


def test_min_fidelity_decoherence_matches_closed_form():
    for gamma in (0.01, 0.1, 1.0):
        ch = build_channel(ChannelSpec("decoherence", {"gamma": gamma}))
        report = min_fidelity(QUBIT, ch)
        assert report.method == "bloch_exact"
        assert report.value == pytest.approx((1 + math.exp(-gamma)) / 2, abs=1e-6)


def test_min_fidelity_depolarizing_is_one_third():
    dep = build_channel(ChannelSpec("depolarizing_third", {}))
    report = min_fidelity(QUBIT, dep)
    assert report.value == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_min_fidelity_identity_channel():
    ident = OperatorEnsemble((I2.copy(),))
    assert min_fidelity(QUBIT, ident).value == pytest.approx(1.0, abs=1e-12)


def test_min_fidelity_witness_consistency_and_minimality():
    rng = np.random.default_rng(67)
    ch = random_superoperator(2, 3, rng)
    report = min_fidelity(QUBIT, ch)
    assert report.value == pytest.approx(pure_fidelity(report.argmin_state, ch), abs=1e-9)
    for _ in range(50):
        sample = random_state(2, rng)
        assert report.value <= pure_fidelity(sample, ch) + 1e-9


def test_min_fidelity_closed_form_for_one_dim_code():
    code = random_code(4, 1, seed=5, shape=(2, 2))
    rng = np.random.default_rng(71)
    ch = random_superoperator(4, 2, rng)
    report = min_fidelity(code, ch)
    assert report.method == "closed_form"
    assert report.value == pytest.approx(pure_fidelity(code.basis[0], ch), abs=1e-12)


def test_min_fidelity_random_restart_for_larger_codes():
    rng = np.random.default_rng(73)
    code = random_code(8, 3, seed=9, shape=(2, 2, 2))
    ch = random_superoperator(8, 2, rng)
    report = min_fidelity(code, ch)
    assert report.method == "random_restart"
    again = min_fidelity(code, ch)
    assert report.value == pytest.approx(again.value, abs=1e-12)  # deterministic given seed
    for _ in range(100):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c /= np.linalg.norm(c)
        sample = PureState(code.matrix @ c, code.shape)
        assert report.value <= pure_fidelity(sample, ch) + 1e-7


def test_depolarizing_fidelity_is_state_independent():
    dep = build_channel(ChannelSpec("depolarizing_third", {}))
    rng = np.random.default_rng(79)
    for _ in range(100):
        psi = random_state(2, rng)
        assert pure_fidelity(psi, dep) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_code_error_zero_for_perfect_recovery():
    code = repetition_phase_code(3)
    family = phase_error_family(0.1, 3, 1)
    rec = synthesize_recovery(code, family)
    composite = compose(rec.ensemble, tensor_power(build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1})), 3))
    # composite of recovery with the *correctable subfamily* has zero deviation
    perfect = compose(rec.ensemble, family)
    report = code_error(code, perfect)
    assert report.value < 1e-8
    # the full channel composite is trace preserving: E = 1 - F
    report_full = code_error(code, composite)
    assert report_full.value == pytest.approx(1.0 - min_fidelity(code, composite).value, abs=1e-6)


def test_code_error_identity_composite():
    ident = OperatorEnsemble((np.eye(8, dtype=complex),))
    assert code_error(repetition_phase_code(3), ident).value < 1e-12


def test_code_error_positive_without_recovery():
    code = repetition_phase_code(3)
    family = phase_error_family(0.3, 3, 1)
    report = code_error(code, family)
    assert report.value > 1e-3
    assert "min_fidelity" not in report.optimizer_trace  # family is not a channel


@pytest.mark.parametrize("n, k, seed", [(8, 3, 0), (8, 3, 1), (12, 3, 2), (8, 4, 3), (12, 4, 4)])
def test_code_error_upper_bound_for_codes_above_two_dimensions(n, k, seed):
    rng = np.random.default_rng(4100 + seed)
    code = random_code(n, k, seed=seed)
    composite = random_superoperator(n, 4, rng)
    report = code_error(code, composite)
    assert report.value <= report.optimizer_trace["upper_bound"]
    # trace preserving: the bracket's top is 1 minus the certified fidelity floor
    lower = min_fidelity(code, composite).optimizer_trace["lower_bound"]
    assert report.optimizer_trace["upper_bound"] == pytest.approx(1.0 - lower, abs=1e-12)
    # a lossy composite (sum B^dag B = 0.6 I + 0.3 P) keeps the deviation under the bound
    proj = np.diag(rng.integers(0, 2, size=n)).astype(complex)
    lossy = OperatorEnsemble(tuple(np.sqrt(0.6) * b for b in composite) + (np.sqrt(0.3) * proj,))
    lossy_report = code_error(code, lossy)
    assert lossy_report.value <= lossy_report.optimizer_trace["upper_bound"]
    # the convex relaxation of the deviation is no looser than lambda_max(L) - (F_min - gap)
    leak = code.matrix.conj().T @ sum(b.conj().T @ b for b in lossy) @ code.matrix
    separate = np.linalg.eigvalsh(leak)[-1] - min_fidelity(code, lossy).optimizer_trace["lower_bound"]
    assert lossy_report.optimizer_trace["upper_bound"] <= separate + 1e-12


def test_entangled_fidelity_depolarizing():
    dep = build_channel(ChannelSpec("depolarizing_third", {}))
    report = entangled_fidelity(QUBIT, dep)
    assert report.max_entangled_value == pytest.approx(0.0, abs=1e-9)
    assert report.min_value == pytest.approx(0.0, abs=1e-9)
    f_pure, bound, satisfied = report.bound_check
    assert f_pure == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert bound == pytest.approx(0.0, abs=1e-6)
    assert satisfied and report.tight


def test_entangled_fidelity_identity():
    ident = OperatorEnsemble((I2.copy(),))
    report = entangled_fidelity(QUBIT, ident)
    assert report.max_entangled_value == pytest.approx(1.0, abs=1e-12)
    assert report.min_value == pytest.approx(1.0, abs=1e-9)


def test_entangled_fidelity_decoherence_equals_pure():
    gamma = 0.2
    ch = build_channel(ChannelSpec("decoherence", {"gamma": gamma}))
    report = entangled_fidelity(QUBIT, ch)
    f_pure = (1 + math.exp(-gamma)) / 2
    assert report.min_value == pytest.approx(f_pure, abs=1e-6)
    assert report.min_value <= report.max_entangled_value + 1e-12


def test_entangled_objective_degenerate_weight_recovers_pure_fidelity():
    # with all Schmidt weight on one state the objective is the pure fidelity
    rng = np.random.default_rng(83)
    ch = random_superoperator(2, 3, rng)
    psi = random_state(2, rng)
    value = sum(abs(np.vdot(psi.amplitudes, a @ psi.amplitudes)) ** 2 for a in ch)
    assert value == pytest.approx(pure_fidelity(psi, ch), abs=1e-9)


def test_entangled_schmidt_objective_matches_composite_space():
    # the Schmidt-form objective equals the direct doubled-space fidelity
    rng = np.random.default_rng(89)
    ch = random_superoperator(2, 3, rng)
    for _ in range(5):
        p1 = rng.uniform(0.0, 1.0)
        weights = np.array([p1, 1 - p1])
        frame = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        schmidt = 0.0
        for a in ch.operators:
            amp = sum(weights[i] * np.vdot(frame[:, i], a @ frame[:, i]) for i in range(2))
            schmidt += abs(amp) ** 2
        # direct evaluation on the doubled space
        ent = sum(
            math.sqrt(weights[i]) * np.kron(np.eye(2)[:, i], frame[:, i]) for i in range(2)
        )
        direct = sum(abs(np.vdot(ent, np.kron(np.eye(2), a) @ ent)) ** 2 for a in ch.operators)
        assert schmidt == pytest.approx(direct, abs=1e-12)


def test_min_fidelity_carries_the_entangled_report_of_the_same_pass():
    code = random_code(8, 3, seed=5, shape=(2, 2, 2))
    ch = build_channel(ChannelSpec("amplitude_damping", {"p": 0.2, "qubits": 3}))
    report = min_fidelity(code, ch)
    assert report.entangled.bound_check[0] == report.entangled.optimizer_trace["pure_fidelity"] == report.value
    assert entangled_report_to_json(report.entangled) == entangled_report_to_json(entangled_fidelity(code, ch))
    assert code_error(code, ch).entangled is None


def test_entangled_bound_check_reports():
    dep = build_channel(ChannelSpec("depolarizing_third", {}))
    report = entangled_bound_check(QUBIT, dep)
    assert report.satisfied and report.tight
    ident = OperatorEnsemble((I2.copy(),))
    report2 = entangled_bound_check(QUBIT, ident)
    assert report2.satisfied
    assert report2.bound == pytest.approx(1.0, abs=1e-9)
    ch = build_channel(ChannelSpec("decoherence", {"gamma": 0.1}))
    report3 = entangled_bound_check(QUBIT, ch)
    assert report3.satisfied and not report3.tight  # strict slack here
    with pytest.raises(NotSuperoperatorError):
        entangled_bound_check(repetition_phase_code(3), phase_error_family(0.1, 3, 1))


def test_binomial_bound_values():
    assert binomial_fidelity_bound(3, 3, 0.4) == pytest.approx(1.0)
    assert binomial_fidelity_bound(3, 1, 0.1) == pytest.approx(0.972, abs=1e-12)
    assert binomial_fidelity_bound(5, 2, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        binomial_fidelity_bound(3, 4, 0.1)
    with pytest.raises(ValueError):
        binomial_fidelity_bound(3, 1, 1.5)


def test_binomial_bound_keeps_its_precision_on_long_registers():
    def exact_head(r, e, p):
        q = Fraction(1.0 - p)
        return sum(math.comb(r, j) * Fraction(p) ** j * q ** (r - j) for j in range(e + 1))

    for r, e, p in ((1000, 1, 0.1), (200, 1, 0.3), (1029, 1, 0.1), (40, 5, 0.5)):
        value = binomial_fidelity_bound(r, e, p)
        exact = exact_head(r, e, p)
        assert value > 0.0 and abs(Fraction(value) - exact) <= 1e-14 * exact  # 1 - tail read -2.8e-14 at r = 1000
    for r, e, p in ((3, 1, 0.1), (7, 3, 0.05), (40, 20, 0.5)):  # tails up to 1/2 keep 1 - tail, bit for bit
        tail = sum(math.comb(r, j) * p**j * (1.0 - p) ** (r - j) for j in range(e + 1, r + 1))
        assert tail <= 0.5 and binomial_fidelity_bound(r, e, p) == 1.0 - tail
    # past the float range of a head term C(1100, 550) the bound stays 1 - tail, not a refusal
    tail = sum(math.comb(1100, j) * 0.95**j * (1.0 - 0.95) ** (1100 - j) for j in range(1001, 1101))
    assert tail > 0.5 and binomial_fidelity_bound(1100, 1000, 0.95) == 1.0 - tail


def test_corrected_phase_code_meets_binomial_bound():
    code = repetition_phase_code(3)
    for p in (0.01, 0.05, 0.1):
        base = build_channel(ChannelSpec("uniform_phase_flip", {"p": p}))
        noise = tensor_power(base, 3)
        rec = synthesize_recovery(code, e_error_family(base, 3, 1))
        composite = compose(rec.ensemble, noise)
        value = min_fidelity(code, composite).value
        assert value >= binomial_fidelity_bound(3, 1, p) - 1e-6


def test_small_gamma_fidelity_identity():
    code = repetition_phase_code(3)
    for gamma in (0.02, 0.1):
        pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
        rec = synthesize_recovery(code, e_error_family(pm, 3, 1))
        composite = compose(rec.ensemble, tensor_power(pm, 3))
        p_minus = (1 - math.exp(-gamma)) / 2
        p_plus = (1 + math.exp(-gamma)) / 2
        expected = 1 - (3 * p_minus**2 * p_plus + p_minus**3)
        assert min_fidelity(code, composite).value == pytest.approx(expected, abs=1e-9)
