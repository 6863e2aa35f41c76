"""Shared test utilities."""

import math

import numpy as np

from qeckit import OperatorEnsemble, PureState


def random_superoperator(dim, num_ops, rng):
    """Random trace-preserving family from an isometry into dim x num_ops."""
    g = rng.normal(size=(dim * num_ops, dim)) + 1j * rng.normal(size=(dim * num_ops, dim))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[a * dim:(a + 1) * dim, :] for a in range(num_ops))
    return OperatorEnsemble(ops, label=f"random({dim},{num_ops})")


def random_state(dim, rng, shape=None):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v), shape)


def quartic_value(q, c):
    """sum q[i, j, k, l] rho_ij rho_lk at rho = |c><c|, the form every k = 2 worst case takes."""
    return float(np.einsum("ijkl,i,j,k,l->", q, c, c.conj(), c.conj(), c).real)


def _bloch_point(theta, phi):
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])


def grid_refine_minimum(q, grid_theta=64, grid_phi=128, refine_tol=1e-8):
    """Dense oracle for the two-dimensional worst case: (value, coordinates).

    Evaluates the (2, 2, 2, 2) objective ``q`` on a grid_theta x grid_phi
    Bloch-angle grid, then refines the best point by coordinate descent with
    halving steps down to ``refine_tol``.
    """
    thetas = np.linspace(0.0, math.pi, grid_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, grid_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    states = np.stack([
        np.cos(tt / 2.0).reshape(-1).astype(np.complex128),
        (np.sin(tt / 2.0) * np.exp(1j * pp)).reshape(-1),
    ])
    values = np.einsum("ijkl,ip,jp,kp,lp->p", q, states, states.conj(), states.conj(), states).real
    flat = int(np.argmin(values))
    theta, phi = thetas[flat // grid_phi], phis[flat % grid_phi]
    step_theta, step_phi = math.pi / max(grid_theta - 1, 1), 2.0 * math.pi / grid_phi
    best = quartic_value(q, _bloch_point(theta, phi))
    while max(step_theta, step_phi) > refine_tol:
        moved = False
        for dt, dp in ((step_theta, 0.0), (-step_theta, 0.0), (0.0, step_phi), (0.0, -step_phi)):
            t2 = min(max(theta + dt, 0.0), math.pi)
            p2 = (phi + dp) % (2.0 * math.pi)
            v = quartic_value(q, _bloch_point(t2, p2))
            if v < best - 1e-18:
                theta, phi, best = t2, p2, v
                moved = True
        if not moved:
            step_theta /= 2.0
            step_phi /= 2.0
    return best, _bloch_point(theta, phi)


def stacked_images(code, errors):
    """(m, n, k) stack of the error images A_a B, one n x k block per operator."""
    return np.stack([a @ code.matrix for a in errors])


def einsum_gram(stack):
    """Dense oracle for G[a, b, i, j] = <A_a i_L|A_b j_L>: an unoptimized einsum over the stack."""
    return np.einsum("ani,bnj->abij", stack.conj(), stack)


def _entangled_codeword(code):
    """n x n matrix of sum_i |i_L>|i_L>; axis 0 is the bystander copy."""
    b = code.matrix
    ent = np.zeros((code.n, code.n), dtype=np.complex128)
    for i in range(code.k):
        ent += np.outer(b[:, i], b[:, i])
    return ent


def dense_entropies(code, errors):
    """Dense oracle for the entropy route: (mixed, entangled) entropies in bits.

    Builds the n x n mixed corrupted codeword state and the n^2 x n^2 image
    of the normalized fully entangled codeword state.
    """
    from qeckit import von_neumann_entropy

    b, n, k = code.matrix, code.n, code.k
    mixed = np.zeros((n, n), dtype=np.complex128)
    for a in errors:
        img = a @ b
        mixed += img @ img.conj().T
    ent = _entangled_codeword(code) / np.sqrt(k)
    big = np.zeros((n * n, n * n), dtype=np.complex128)
    for a in errors:
        y = (ent @ a.T).reshape(-1)  # (I (x) A_a) applied to the entangled state
        big += np.outer(y, y.conj())
    return von_neumann_entropy(mixed / k), von_neumann_entropy(big)


def dense_entangled_residual(code, composite):
    """Dense oracle: worst ||(I (x) A)|ent> - lam |ent>|| / ||ent|| on the n x n entangled matrix."""
    ent = _entangled_codeword(code)
    scale = float(np.linalg.norm(ent))
    worst = 0.0
    for op in composite:
        image = ent @ op.T  # (I (x) op) acting on the second factor
        lam = np.vdot(ent, image) / (scale * scale)
        worst = max(worst, float(np.linalg.norm(image - lam * ent)) / scale)
    return worst


def pairwise_verification(code, errors, recovery):
    """Dense oracle for verify_recovery: (lambda, residual) from R_r (A_a B) for every pair."""
    b = code.matrix
    lam = np.zeros((len(recovery.ensemble), len(errors)), dtype=np.complex128)
    worst = 0.0
    for r, rr in enumerate(recovery.ensemble):
        for a, aa in enumerate(errors):
            image = rr @ (aa @ b)
            lam[r, a] = np.vdot(b[:, 0], image[:, 0])
            worst = max(worst, float(np.max(np.linalg.norm(image - lam[r, a] * b, axis=0))))
    return lam, worst
