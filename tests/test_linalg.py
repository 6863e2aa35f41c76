import math

import numpy as np
import pytest

from qeckit import (
    DensityMatrix,
    NotAStateError,
    PureState,
    QubitSubset,
    ToleranceConfig,
    kron_all,
    orthonormalize,
    von_neumann_entropy,
)
from qeckit.linalg import random_unitary

from helpers import density, partial_trace

I2 = np.eye(2, dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_state(dim, rng, shape=None):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v), shape)


def test_partial_trace_computational_state():
    rho = density(PureState([1, 0, 0, 0], shape=(2, 2)))
    reduced = partial_trace(rho, (1,))
    assert np.allclose(reduced.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_partial_trace_bell_is_maximally_mixed():
    bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), shape=(2, 2))
    reduced = partial_trace(density(bell), (1,))
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_index_sum_oracle():
    # keep the first two of four qubits; oracle sums amplitudes over the
    # traced indices directly
    rng = np.random.default_rng(7)
    psi = random_state(16, rng, shape=(2, 2, 2, 2))
    reduced = partial_trace(density(psi), (1, 2))
    amps = psi.amplitudes.reshape(4, 4)  # (kept pair, traced pair)
    oracle = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            oracle[a, b] = sum(amps[a, t] * np.conj(amps[b, t]) for t in range(4))
    assert np.max(np.abs(reduced.matrix - oracle)) < 1e-13


def test_partial_trace_keep_all_and_none():
    rng = np.random.default_rng(11)
    psi = random_state(8, rng, shape=(2, 2, 2))
    rho = density(psi)
    assert np.allclose(partial_trace(rho, (1, 2, 3)).matrix, rho.matrix, atol=1e-13)
    scalar = partial_trace(rho, ())
    assert scalar.dim == 1
    assert abs(scalar.matrix[0, 0] - 1.0) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    for keep in [(1,), (2,), (1, 3)]:
        psi = random_state(8, rng, shape=(2, 2, 2))
        reduced = partial_trace(density(psi), keep)
        assert abs(reduced.trace - 1.0) < 1e-12


def test_partial_trace_errors():
    rho = density(PureState([1, 0, 0, 0], shape=(2, 2)))
    with pytest.raises(IndexError):
        partial_trace(rho, (3,))
    bare = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex))
    with pytest.raises(ValueError, match="shape"):
        partial_trace(bare, (1,))


def test_qubit_subset_validation():
    with pytest.raises(IndexError):
        QubitSubset((1, 1))
    with pytest.raises(IndexError):
        QubitSubset((0,))
    assert QubitSubset((3, 1)).indices == (1, 3)


def test_orthonormalize_already_orthonormal():
    basis, coeffs, rank = orthonormalize([np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)])
    assert rank == 2
    assert np.allclose(coeffs, np.eye(2), atol=1e-14)


def test_orthonormalize_dependent_pair():
    v = np.array([1.0, 2.0, 0.0], dtype=complex)
    basis, coeffs, rank = orthonormalize([v, 2 * v])
    assert rank == 1
    assert coeffs.shape == (1, 2)
    assert abs(coeffs[0, 1] - 2 * coeffs[0, 0]) < 1e-12


def test_orthonormalize_overlap_images_rank_two():
    # the three images of |00> under the overlapping interaction family:
    # one is linearly dependent on the other two
    q = 0.25
    t = math.sqrt(q / 2)
    v1 = math.sqrt(1 - 2 * q) * np.array([1, 0, 0, 0], dtype=complex)
    v2 = t * np.array([1, 0, 1, 0], dtype=complex)
    v3 = t * np.array([1, 0, -1, 0], dtype=complex)
    basis, coeffs, rank = orthonormalize([v1, v2, v3])
    assert rank == 2
    recon = np.column_stack(basis) @ coeffs
    assert np.max(np.abs(recon - np.column_stack([v1, v2, v3]))) < 1e-12


def test_orthonormalize_roundtrip_and_staircase():
    rng = np.random.default_rng(19)
    vecs = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(4)]
    vecs.append(vecs[0] + vecs[1])  # force a dependent member
    basis, coeffs, rank = orthonormalize(vecs)
    assert rank == 4
    recon = np.column_stack(basis) @ coeffs
    assert np.max(np.abs(recon - np.column_stack(vecs))) < 1e-9
    for j in range(len(vecs)):
        assert np.allclose(coeffs[j + 1:, j], 0.0)


def test_orthonormalize_zero_input():
    basis, coeffs, rank = orthonormalize([np.zeros(3, dtype=complex)])
    assert rank == 0 and basis == [] and coeffs.shape == (0, 1)


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert abs(von_neumann_entropy(np.eye(2, dtype=complex) / 2) - 1.0) < 1e-12
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert abs(von_neumann_entropy(np.diag([0.9, 0.1]).astype(complex)) - expected) < 1e-12


def test_entropy_bounds_and_unitary_invariance():
    rng = np.random.default_rng(29)
    probs = rng.dirichlet(np.ones(4))
    rho = np.diag(probs).astype(complex)
    s = von_neumann_entropy(rho)
    assert 0.0 <= s <= 2.0 + 1e-12
    u = random_unitary(4, rng)
    assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - s) < 1e-9


def test_entropy_rejects_negative_eigenvalue():
    with pytest.raises(NotAStateError):
        von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))


def test_pure_state_validation():
    with pytest.raises(ValueError, match="normalized"):
        PureState([1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        PureState([np.nan, 0.0])
    with pytest.raises(ValueError, match="factor"):
        PureState([1.0, 0.0, 0.0], shape=(2, 2))


def test_density_matrix_validation():
    with pytest.raises(NotAStateError, match="hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(NotAStateError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))
    with pytest.raises(NotAStateError, match="negative"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    sub = DensityMatrix(np.diag([0.5, 0.0]).astype(complex), subnormalized=True)
    assert sub.trace == pytest.approx(0.5)


def test_kron_all_builds_register_operators():
    op = kron_all([SZ, I2, I2])
    assert op.shape == (8, 8)
    assert np.array_equal(np.diag(op), np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=complex))


@pytest.mark.parametrize("field", ["check"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ValueError, match="finite"):
        ToleranceConfig(**{field: value})
