"""Families held as one array, against the per-member loops they replaced.

A dense family's members are the rows of one read-only (m, n, n)
``stack``; a lifted family (a register lift of one-qubit operators with at
most one nonzero per row) is one (m, n) table of columns and one of
values. Every site that reads those arrays whole must give the bytes the
loop over members gave (``tests/helpers.py`` keeps those loops): the
images, the completeness sum and what reads it, ``compose`` and
``apply_channel``, the verification, the code-frame compression, the pure
fidelity and the memory frame arrays. The families are seeded random
ones, dense and lifted, among them a lifted basis that maps two rows into
one column, where a sum taken in another order rounds differently.
"""

import numpy as np
import pytest

from helpers import (
    member_apply,
    member_compose,
    member_frame,
    member_frame_arrays,
    member_images,
    member_logical,
    member_pure_fidelity,
    member_sum_adag_a,
    member_verification,
    random_state,
    random_superoperator,
)
from qeckit import (
    ChannelSpec,
    DensityMatrix,
    OperatorEnsemble,
    RecoveryOperator,
    apply_channel,
    build_channel,
    builtin_code,
    compose,
    e_error_family,
    random_code,
    strength,
    synthesize_recovery,
    tensor_power,
    verify_recovery,
)
from qeckit import fidelity, memory
from qeckit.channels import _LiftedEnsemble, _sum_adag_a
from qeckit.serialize import dumps_canonical, loads, recovery_document, recovery_from_json, recovery_to_json


def _random_family(n, m, rng):
    """m complex n x n matrices, not trace preserving, with some exact and negative zeros."""
    ops = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    ops[rng.random(size=ops.shape) < 0.2] = complex(-0.0, 0.0)
    return OperatorEnsemble(tuple(ops), label=f"non-tp({n},{m})")


def _two_into_one_basis(rng):
    """Identity, a flip that maps both rows into column 1, and a phase: complex values throughout."""
    flip = np.array([[0, 1], [0, 1]]) * (rng.normal(size=2) + 1j * rng.normal(size=2))[:, None]
    phase = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
    return OperatorEnsemble((0.8 * np.eye(2, dtype=complex), 0.3 * flip, 0.5 * phase))


def _dense_families():
    rng = np.random.default_rng(2100)
    for n, m in ((2, 1), (4, 3), (8, 5), (16, 7)):
        yield random_superoperator(n, m, rng)
        yield _random_family(n, m, rng)


def _lifted_families():
    rng = np.random.default_rng(2101)
    for r, e in ((3, 1), (4, 2), (5, 5)):
        yield e_error_family(_two_into_one_basis(rng), r, e)
    for kind, params, identity_led in (
        ("decoherence", {"gamma": 0.3}, False),
        ("decoherence_pm_basis", {"gamma": 0.1}, True),
        ("amplitude_damping", {"p": 0.2}, False),
        ("pauli_unitary_basis", {}, True),
        ("measurement_basis", {}, False),
    ):
        base = build_channel(ChannelSpec(kind, params))
        yield tensor_power(base, 3)
        if identity_led:  # e_error_family needs slot 0 to be a multiple of the identity
            yield e_error_family(base, 4, 2)


FAMILIES = [(f, False) for f in _dense_families()] + [(f, True) for f in _lifted_families()]
IDS = [f"{f.label}-{len(f)}x{f.dim}" for f, _ in FAMILIES]


def _frame(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))


def test_the_lifted_cases_are_held_as_tables():
    assert all(isinstance(f, _LiftedEnsemble) == lifted for f, lifted in FAMILIES)


@pytest.mark.parametrize("family, lifted", FAMILIES, ids=IDS)
def test_images_match_the_member_loop(family, lifted):
    for d in (1, 3):
        frame = _frame(family.dim, d, d)
        assert family.images(frame).tobytes() == member_images(family, frame, lifted).tobytes()
    if lifted:
        assert "stack" not in vars(family) and "operators" not in vars(family)


@pytest.mark.parametrize("family, lifted", FAMILIES, ids=IDS)
def test_completeness_sum_residual_and_strength_match_the_member_loop(family, lifted):
    oracle = member_sum_adag_a(family, lifted)
    assert _sum_adag_a(family).tobytes() == oracle.tobytes()
    assert family.completeness_residual == float(np.max(np.abs(oracle - np.eye(family.dim))))
    assert strength(family) == float(np.max(np.linalg.eigvalsh(oracle)))
    if lifted:
        assert "stack" not in vars(family) and "operators" not in vars(family)


@pytest.mark.parametrize("family, lifted", FAMILIES, ids=IDS)
def test_compose_and_apply_channel_match_the_member_loop(family, lifted):
    rng = np.random.default_rng(len(family))
    outer = random_superoperator(family.dim, 3, rng)
    for a, b in ((outer, family), (family, outer)):
        composite = compose(a, b)
        assert composite.stack.tobytes() == member_compose(a, b).tobytes()
        assert not composite.stack.flags.writeable
    if strength(family) <= 1.0 + 1e-9:  # a state stays a state
        g = rng.normal(size=(family.dim, family.dim)) + 1j * rng.normal(size=(family.dim, family.dim))
        rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        assert apply_channel(family, rho).matrix.tobytes() == member_apply(family, rho.matrix).tobytes()


def _recoveries(n, rng):
    """A random trace-preserving recovery and a random family posing as one."""
    for ensemble in (random_superoperator(n, 4, rng), _random_family(n, 3, rng)):
        coefficients = np.zeros((len(ensemble) - 1, 0), dtype=np.complex128)
        yield RecoveryOperator(ensemble, len(ensemble) - 1, 0, coefficients)


def _code_cases():
    """(code, errors, recovery): random codes and families, then synthesized recoveries of lifted families."""
    rng = np.random.default_rng(2102)
    for (family, _), seed in zip(FAMILIES, range(100)):
        n = family.dim
        code = random_code(n, min(2 + seed % 2, n), seed=seed)
        for recovery in _recoveries(n, rng):
            yield code, family, recovery
    for name, qubits, e in (("phase3", 3, 1), ("phase5", 5, 2)):
        pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1}))
        code = builtin_code(name)
        yield code, e_error_family(pm, qubits, e), synthesize_recovery(code, e_error_family(pm, qubits, e), seed=3)
        yield code, tensor_power(pm, qubits), synthesize_recovery(code, e_error_family(pm, qubits, e))


CODE_CASES = list(_code_cases())
CODE_IDS = [f"{c.n}x{c.k}-{f.label}-{len(r.ensemble)}" for c, f, r in CODE_CASES]


@pytest.mark.parametrize("code, errors, recovery", CODE_CASES, ids=CODE_IDS)
def test_verification_lambda_and_residual_match_the_member_loop(code, errors, recovery):
    report = verify_recovery(code, errors, recovery)
    lam, worst = member_verification(code, errors, recovery)
    assert report.lambda_values.tobytes() == lam.tobytes()
    assert report.max_identity_residual == worst


@pytest.mark.parametrize("code, errors, recovery", CODE_CASES, ids=CODE_IDS)
def test_compression_and_pure_fidelity_match_the_member_loop(code, errors, recovery):
    psi = random_state(code.n, np.random.default_rng(code.n)).amplitudes
    for rec in (None, recovery):
        m_ops, gram = fidelity._logical(code, errors, rec)
        oracle_ops, oracle_gram = member_logical(code, errors, rec)
        assert m_ops.tobytes() == oracle_ops.tobytes() and gram.tobytes() == oracle_gram.tobytes()
        assert fidelity.pure_fidelity(psi, errors, rec) == member_pure_fidelity(psi, errors, rec)


TRACE_PRESERVING = [
    case for case in CODE_CASES if case[1].completeness_residual < 1e-9 and case[2].ensemble.completeness_residual < 1e-9
]


@pytest.mark.parametrize(
    "code, channel, recovery", TRACE_PRESERVING, ids=[f"{c.n}x{c.k}-{f.label}" for c, f, _ in TRACE_PRESERVING]
)
def test_memory_frame_arrays_match_the_member_loop(code, channel, recovery, monkeypatch):
    stacks = []
    real_cycle = memory._cycle
    monkeypatch.setattr(memory, "_cycle", lambda x, xh, y, yh, batch: stacks.append(y) or real_cycle(x, xh, y, yh, batch))
    w = memory._frame(code, recovery)
    assert w.tobytes() == member_frame(code, recovery).tobytes()
    run = memory.run_memory(code, channel, recovery, code.basis[0], 1)
    y, residual = member_frame_arrays(w, recovery)
    assert stacks[0].tobytes() == y.tobytes() and stacks[0].flags.c_contiguous
    assert run.frame_residual == residual


def test_the_callers_arrays_stay_writeable_and_their_later_writes_change_nothing():
    rng = np.random.default_rng(2103)
    a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    block = rng.normal(size=(2, 3, 3)).astype(np.complex128)
    spec_op = np.eye(2, dtype=np.complex128)
    families = [
        (OperatorEnsemble((a, b)), (a, b)),
        (OperatorEnsemble(block), (block,)),
        (build_channel(ChannelSpec("explicit", {}, explicit_operators=(spec_op,))), (spec_op,)),
    ]
    for family, inputs in families:
        before = family.stack.copy()
        assert all(x.flags.writeable for x in inputs)
        for x in inputs:
            x[...] = 7.0
        assert family.stack.tobytes() == before.tobytes()
        assert not family.stack.flags.writeable and all(not op.flags.writeable for op in family)
        assert all(op.base is family.stack for op in family.operators)


def test_a_read_only_stack_is_adopted_and_the_decoded_block_is_not_copied():
    block = np.stack([np.eye(4, dtype=np.complex128)] * 3)
    block.setflags(write=False)
    assert OperatorEnsemble(block).stack is block

    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": 0.1}))
    rec = synthesize_recovery(builtin_code("phase3"), e_error_family(pm, 3, 1))
    assert recovery_document(rec)["operators"] is rec.ensemble.stack
    data = loads(dumps_canonical(recovery_to_json(rec)))
    assert isinstance(data["operators"], np.ndarray) and data["operators"].shape == (len(rec.ensemble), 8, 8, 2)
    decoded = recovery_from_json(data)
    assert np.shares_memory(decoded.ensemble.stack, data["operators"])
    assert decoded.ensemble.stack.tobytes() == rec.ensemble.stack.tobytes()
