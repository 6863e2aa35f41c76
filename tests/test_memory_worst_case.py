"""Per-cycle worst cases of a memory run for every code dimension.

``run_memory(worst_case=True)`` turns each cycle's logical channel into at
most k^2 Kraus matrices (``fidelity._choi_kraus``) and minimizes it with the
solve ``min_fidelity`` runs. For k > 2 its pure minimum is an upper bound, so
every cycle is held between the certified mixed-state lower bound of the same
logical channel and the smallest fidelity of sampled code states pushed
densely through the cycles. A mixed-state solve's value less its Frank-Wolfe
gap is that certified lower bound. The trivial code's restarts stop on a
closed bracket; the random codes' run to the end.
"""

import numpy as np
import pytest

from helpers import dense_memory_run
from qeckit import ChannelSpec, PureState, build_channel, builtin_code, min_fidelity, random_code, run_memory
from qeckit.fidelity import _choi_kraus, _minima
from qeckit.memory import identity_recovery

CYCLES = 2
SAMPLES = 64


def _choi_tensor(kraus):
    """q[i, j, kk, ll] = <kk|T(|i><j|)|ll> of T(X) = sum_a M_a X M_a^dag."""
    return np.einsum("aki,alj->ijkl", kraus, kraus.conj())


def _apply(kraus, x):
    return np.einsum("aij,jk,alk->il", kraus, x, kraus.conj())


def _random_kraus(k, m, rng):
    return rng.normal(size=(m, k, k)) + 1j * rng.normal(size=(m, k, k))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_choi_kraus_reproduces_the_map(k):
    rng = np.random.default_rng(40 + k)
    full = _random_kraus(k, k * k + 2, rng)  # more operators than the k^2 a Choi matrix can have
    one = _random_kraus(k, 1, rng)  # rank 1: every other Choi eigenvalue is round-off
    repeated = np.concatenate([one, 2.0 * one, _random_kraus(k, 1, rng)])  # rank 2 from three operators
    for kraus in (full, one, repeated):
        found = _choi_kraus(_choi_tensor(kraus))
        assert found.shape[1:] == (k, k) and len(found) <= k * k
        for _ in range(3):
            x = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            assert np.max(np.abs(_apply(found, x) - _apply(kraus, x))) <= 1e-12


def _compressed_cycles(code, channel, recovery, cycles):
    """Kraus matrices B^dag C_t ... C_1 B of t cycles, C = R_r A_a, for t = 0..cycles; zero products dropped."""
    b = code.matrix
    one_cycle = [r @ a for r in recovery.ensemble for a in channel if np.any(r @ a)]
    products = [np.eye(code.n)]
    found = [np.stack([b.conj().T @ p @ b for p in products])]
    for _ in range(cycles):
        products = [c @ p for c in one_cycle for p in products]
        found.append(np.stack([b.conj().T @ p @ b for p in products]))
    return found


# code, channel qubits, sampling seed
CASES = {
    "random_code(8,3,5)": (lambda: random_code(8, 3, seed=5), 3, 5),
    "random_code(16,4,1604)": (lambda: random_code(16, 4, seed=1604), 4, 1604),
    "trivial(8)": (lambda: builtin_code("trivial(8)"), 3, 8),
}


@pytest.fixture(scope="module", params=CASES, ids=list(CASES))
def bracket(request):
    make_code, qubits, seed = CASES[request.param]
    code = make_code()
    n, k = code.n, code.k
    channel = build_channel(ChannelSpec("decoherence", {"gamma": 0.3, "qubits": qubits}))
    recovery = identity_recovery(n)
    run = run_memory(code, channel, recovery, code.basis[0], CYCLES, worst_case=True)
    first = min_fidelity(code, channel, recovery)
    lower = []
    for kraus in _compressed_cycles(code, channel, recovery, CYCLES):
        _, (_, value, solve) = _minima(kraus, np.zeros((k, k)))
        lower.append(value - solve["gap"])
    rng = np.random.default_rng(seed)
    sampled = np.full(CYCLES + 1, np.inf)
    for _ in range(SAMPLES):
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        psi = code.matrix @ (c / np.linalg.norm(c))
        fidelities, _, _, _ = dense_memory_run(code, channel, recovery, PureState(psi, shape=code.shape), CYCLES)
        sampled = np.minimum(sampled, fidelities)
    return run.worst_case_fidelity, first.value, lower, sampled


def test_first_cycle_is_min_fidelity(bracket):
    worst, first, _, _ = bracket
    assert abs(worst[1] - first) <= 1e-12


def test_every_cycle_is_above_the_certified_lower_bound(bracket):
    worst, _, lower, _ = bracket
    assert all(w >= low - 1e-12 for w, low in zip(worst, lower))


def test_every_cycle_is_below_every_sampled_code_state(bracket):
    worst, _, _, sampled = bracket
    assert all(w <= s + 1e-12 for w, s in zip(worst, sampled))
