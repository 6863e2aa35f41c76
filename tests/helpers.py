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
