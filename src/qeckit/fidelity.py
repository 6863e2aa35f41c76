"""Pure-state and entangled-state fidelity, worst cases and bounds.

The pure-state fidelity of |psi> under a family {A_a}, optionally followed
by a recovery {R_r}, is sum |<psi|R_r A_a|psi>|^2; the fidelity of a code is
its minimum over the code subspace. Every quantity here reads the k x k
code-frame compression M = (R_r^dag B)^dag (A_a B) of the error images, so
no composite R_r A_a is formed. In those coordinates every worst case is a
minimum of one objective, F(rho) - tr(L rho) with the convex quartic
F(rho) = sum_a |tr(M_a rho)|^2 and a k x k hermitian L: L = 0 for the
pure-state and entangled-state fidelities, and the code-frame Gram
sum_a (A_a B)^dag (A_a B) for the deviation ``code_error``. Two solvers
minimize it. ``_min_pure`` works over pure code states: closed form for
k = 1, exact on the Bloch sphere for k = 2 (with a multiplier certifying
optimality), and fixed-seed random-restart projected gradient descent for
larger codes, an upper bound on the minimum. ``_min_over_states`` works
over mixed code states, where the objective is convex: its minimum is the
entangled-state fidelity and, for k > 2, less its Frank-Wolfe gap, a
certified bound on the pure one. Optimizer outputs always carry the witness
state at which the reported value was re-evaluated. ``min_fidelity`` runs
each solver once and its report carries the entangled-state report, which
``entangled_fidelity`` and ``entangled_bound_check`` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import SIGMA_X, SIGMA_Y, SIGMA_Z, OperatorEnsemble, _require_superoperator
from .codes import QuantumCode, _error_images
from .linalg import PureState, dagger
from .recovery import RecoveryOperator

#: Numerical slack granted to optimizer-derived quantities in bound checks.
BOUND_SLACK = 1e-6

#: Random starts of the pure-state descent for codes with k > 2, and the seed they are drawn with.
_RESTARTS = 32
_SEED = 0

#: Smallest line-search step of the random-restart descent.
_STEP_FLOOR = 1e-10

#: Frank-Wolfe gap at which the state solve for codes with k > 2 stops.
_GAP_TOL = 1e-12

#: Most projected-gradient steps that state solve takes before reporting its gap.
_MAX_STEPS = 10_000

#: Relative size below which an eigenvalue gap or a linear coefficient counts
#: as zero when the sphere minimizer decides between its two cases.
_HARD_CASE_TOL = 1e-14

_PAULIS = np.stack([np.eye(2, dtype=np.complex128), SIGMA_X, SIGMA_Y, SIGMA_Z])


@dataclass(frozen=True, eq=False)
class EntangledFidelityReport:
    """Entangled-state fidelity summary.

    ``max_entangled_value`` is the closed-form fidelity of the completely
    entangled codeword state; ``min_value`` is the minimum over Schmidt
    weights and frames, exact for k <= 2 and within the Frank-Wolfe gap
    ``optimizer_trace["gap"]`` above the true minimum for k > 2.
    ``bound_check`` is the tuple (pure fidelity, 1 - 3*eps/2, satisfied).
    """

    max_entangled_value: float
    min_value: float
    bound_check: tuple[float, float, bool]
    tight: bool
    optimizer_trace: dict


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Extremal fidelity (or deviation) value with its witness state.

    ``entangled`` is the entangled-state report of the same solves:
    ``min_fidelity`` sets it, ``code_error`` leaves it None.
    """

    value: float
    argmin_state: PureState
    optimizer_trace: dict
    method: str
    entangled: EntangledFidelityReport | None = None


@dataclass(frozen=True, eq=False)
class BoundCheckReport:
    """Pure-vs-entangled fidelity bound verdict for a trace-preserving family."""

    pure_fidelity: float
    entangled_fidelity: float
    bound: float
    satisfied: bool
    tight: bool


def pure_fidelity(state, ensemble: OperatorEnsemble, recovery: RecoveryOperator | None = None) -> float:
    """sum_{r,a} |<psi|R_r A_a|psi>|^2, the survival probability under the family.

    Computed as ||V^dag U||_F^2 with U = [A_a psi] and V = [R_r^dag psi]
    (V = psi without a recovery), so no composite R_r A_a is formed.
    Accepts a ``PureState`` or a raw amplitude vector, which is validated
    as a ``PureState``.
    """
    psi = (state if isinstance(state, PureState) else PureState(state)).amplitudes
    if ensemble.dim != psi.size or (recovery is not None and recovery.dim != psi.size):
        raise ValueError(f"dimension mismatch: ensemble {ensemble.dim}, state {psi.size}")
    rows = psi.conj()[None] if recovery is None else psi.conj() @ recovery.ensemble.stack
    return float(np.linalg.norm(rows @ ensemble.images(psi[:, None])[:, :, 0]) ** 2)


def _logical(code: QuantumCode, ensemble: OperatorEnsemble, recovery: RecoveryOperator | None = None):
    """Code-frame compression of recovery after channel, read off the error images.

    Returns the (m_R m_A, k, k) stack M[r, a] = (R_r^dag B)^dag (A_a B),
    r-major like ``compose``, and the k x k Gram sum_a (A_a B)^dag (A_a B)
    of the channel's images. Without a recovery the left factor is B
    itself. Every fidelity quantity depends on the code and the composite
    only through these, so no n x n composite is ever formed.
    """
    if recovery is not None and recovery.dim != code.n:
        raise ValueError(f"dimension mismatch: recovery {recovery.dim}, code {code.n}")
    images = _error_images(code, ensemble)  # (n, m_A, k)
    n, m, k = images.shape
    bh = dagger(code.matrix)
    rows = bh if recovery is None else (bh @ recovery.ensemble.stack).reshape(-1, n)
    stack = (rows @ images.reshape(n, m * k)).reshape(-1, k, m, k).transpose(0, 2, 1, 3)
    return stack.reshape(-1, k, k), np.tensordot(images.conj(), images, axes=([0, 1], [0, 1]))


def _bloch_point(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])


def _bloch_form(q: np.ndarray) -> np.ndarray:
    """Real symmetric T with f = x^T T x for x = (1, r), r the Bloch vector.

    ``q`` is the (2, 2, 2, 2) tensor of an objective
    f = sum q[i, j, k, l] rho_ij rho_lk; rho = sum_m x_m P_m / 2 over the
    basis P = (I, X, Y, Z).
    """
    t = np.einsum("ijkl,mij,nlk->mn", q, _PAULIS, _PAULIS).real / 4.0
    return (t + t.T) / 2.0


def _min_on_sphere(t: np.ndarray) -> tuple[np.ndarray, dict]:
    """Exact minimizer of x^T T x over x = (1, r) with |r| = 1.

    With Q = T[1:, 1:] and b = T[1:, 0], the global minimizer solves
    (Q - mu I) r = -b for a multiplier mu <= lambda_min(Q), which certifies
    it (More and Sorensen's trust-region conditions). Writing
    mu = lambda_min - delta, |r(delta)| = 1 is a secular equation
    monotone in delta > 0 and is bisected; when b has no component along
    the bottom eigenspace and the rest of r is short, mu = lambda_min and
    the bottom eigenvector fills r to unit length (the hard case).
    Returns the code coordinates and the trace
    {"multiplier": mu, "min_curvature": lambda_min}.
    """
    lam, vecs = np.linalg.eigh(t[1:, 1:])
    beta = vecs.T @ t[1:, 0]
    gaps = lam - lam[0]
    tol = _HARD_CASE_TOL * max(1.0, float(np.max(np.abs(t))))
    bottom = gaps <= tol
    y = np.where(bottom, 0.0, -beta) / np.where(bottom, 1.0, gaps)
    if np.linalg.norm(beta[bottom]) <= tol and (rest := y @ y) <= 1.0:
        delta = 0.0
        y[0] = -math.copysign(math.sqrt(1.0 - rest), beta[0])
    else:
        lo, hi = 0.0, float(np.linalg.norm(beta))  # |r(lo)| > 1 >= |r(hi)|
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if np.sum((beta / (gaps + mid)) ** 2) > 1.0:
                lo = mid
            else:
                hi = mid
        delta = hi
        y = -beta / (gaps + delta)
    r = vecs @ y
    r /= np.linalg.norm(r)
    c = _bloch_point(math.atan2(math.hypot(r[0], r[1]), r[2]), math.atan2(r[1], r[0]))
    return c, {"multiplier": float(lam[0] - delta), "min_curvature": float(lam[0])}


def _objective(m_ops: np.ndarray, leak: np.ndarray, rho: np.ndarray) -> tuple[float, np.ndarray, float]:
    """F(rho) - tr(L rho) with F(rho) = sum_a |tr(M_a rho)|^2, its gradient G - L, and tr(L rho).

    The gradient is the hermitian matrix with d value = tr((G - L) d rho);
    F is quadratic in rho, so tr(G rho) = 2 F(rho).
    """
    w = np.einsum("aij,ji->a", m_ops, rho)
    p = np.tensordot(w.conj(), m_ops, axes=1)
    lin = float(np.einsum("ij,ji->", leak, rho).real)
    return float(np.sum(np.abs(w) ** 2)) - lin, p + dagger(p) - leak, lin


def _quartic(m_ops: np.ndarray) -> np.ndarray:
    """q[i, j, k, l] with sum_a |tr(M_a rho)|^2 = sum q[i, j, k, l] rho_ij rho_lk (see ``_bloch_form``)."""
    return np.einsum("aji,alk->ijkl", m_ops, m_ops.conj())


def _sphere_form(m_ops: np.ndarray, leak: np.ndarray) -> np.ndarray:
    """``_bloch_form`` of F(rho) - tr(L rho) for k = 2, writing tr(L rho) as tr(L rho) tr(rho)."""
    return _bloch_form(_quartic(m_ops) - np.einsum("ji,lk->ijkl", leak, np.eye(2)))


def _min_pure(m_ops: np.ndarray, leak: np.ndarray) -> tuple[np.ndarray, str, dict]:
    """Minimize F(rho) - tr(L rho) over pure code states rho = |c><c|: (c, method, trace).

    k = 1 is closed form and k = 2 exact on the Bloch sphere
    (``_min_on_sphere``). Larger codes run ``_RESTARTS`` projected-gradient
    descents on the unit sphere from random starts drawn with ``_SEED``;
    their best value is only an upper bound on the minimum.
    """
    k = leak.shape[0]
    if k == 1:
        return np.array([1.0 + 0.0j]), "closed_form", {}
    if k == 2:
        c, trace = _min_on_sphere(_sphere_form(m_ops, leak))
        return c, "bloch_exact", trace

    def at(c):
        return _objective(m_ops, leak, np.outer(c, c.conj()))

    rng = np.random.default_rng(_SEED)
    best_c, best_v = None, math.inf
    for _ in range(_RESTARTS):
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        c /= np.linalg.norm(c)
        fc, grad, _ = at(c)
        step = 0.5
        for _ in range(500):
            g = grad @ c
            g = g - c * np.vdot(c, g)  # tangent projection
            if np.linalg.norm(g) < 1e-13:
                break
            improved = False
            while step > _STEP_FLOOR:
                cand = c - step * g
                cand /= np.linalg.norm(cand)
                fcand, gcand, _ = at(cand)
                if fcand < fc - 1e-15:
                    c, fc, grad = cand, fcand, gcand
                    step *= 1.5
                    improved = True
                    break
                step /= 2.0
            if not improved:
                break
        if fc < best_v:
            best_c, best_v = c, fc
    return best_c, "random_restart", {"restarts": _RESTARTS, "seed": _SEED, "best_restart_value": best_v}


def _witness(code: QuantumCode, c: np.ndarray) -> PureState:
    psi = code.matrix @ c
    return PureState(psi / np.linalg.norm(psi), code.shape)


def min_fidelity(
    code: QuantumCode, ensemble: OperatorEnsemble, recovery: RecoveryOperator | None = None
) -> FidelityReport:
    """Worst-case pure-state fidelity over the code, carrying the entangled report of the same pass.

    Compresses once and minimizes F with L = 0 once over pure code states
    and once over mixed ones, whatever k; ``report.entangled`` is the
    ``entangled_fidelity`` report of those solves. ``recovery``, when
    given, is applied after the channel. k = 1 is closed form; k = 2 is
    the exact Bloch-sphere minimum; larger codes use fixed-seed random
    restarts, an upper bound, and add the certified lower bound
    ``optimizer_trace["lower_bound"]``, the minimum over mixed code states
    less its Frank-Wolfe gap. The returned value is re-evaluated at the
    witness state, so
    report.value == pure_fidelity(report.argmin_state, ensemble, recovery).
    """
    m_ops, _ = _logical(code, ensemble, recovery)
    zero = np.zeros((code.k, code.k))
    c_best, method, trace = _min_pure(m_ops, zero)
    witness = _witness(code, c_best)
    f_pure = pure_fidelity(witness, ensemble, recovery)
    rho, value, solve = _min_over_states(m_ops, zero)
    if code.k > 2:  # the minimum over mixed states is at most the pure one
        trace["lower_bound"] = value - solve["gap"]
    max_entangled = float(np.sum(np.abs(np.trace(m_ops, axis1=1, axis2=2) / code.k) ** 2))
    # I/k and the pure witness are states too, so rounding never lifts the minimum above them
    min_value = max(0.0, min(value, max_entangled, f_pure))
    bound = 1.0 - 1.5 * (1.0 - f_pure)
    weights = [float(x) for x in np.linalg.eigvalsh(rho)[::-1]]
    entangled = EntangledFidelityReport(
        max_entangled_value=max_entangled,
        min_value=min_value,
        bound_check=(f_pure, bound, min_value >= bound - BOUND_SLACK),
        tight=abs(min_value - bound) <= BOUND_SLACK,
        optimizer_trace={**solve, "weights": weights, "pure_fidelity": f_pure},
    )
    return FidelityReport(
        value=f_pure,
        argmin_state=witness,
        optimizer_trace={"method": method, **trace},
        method=method,
        entangled=entangled,
    )


def code_error(code: QuantumCode, composite: OperatorEnsemble) -> FidelityReport:
    """Worst-case deviation sum_m ||(B_m - <B_m>) |psi>||^2 over code states.

    The deviation is <psi|L|psi> - F(|psi><psi|), with L the code-frame
    Gram sum_m (B_m B)^dag (B_m B), so it is minus the shared objective and
    its maximum is the pure solver's minimum of F - tr(L rho), negated. For
    trace-preserving composites L = I and the deviation is 1 minus the
    pure fidelity. The witness maximizes the deviation (the report field
    name follows the fidelity report; here it is an arg-max). For k > 2 the
    random restarts give only a lower bound on the maximum, and
    ``optimizer_trace["upper_bound"]`` certifies it from above: minus the
    minimum of F - tr(L rho) over mixed code states, less its Frank-Wolfe
    gap. For trace-preserving composites that is 1 minus ``min_fidelity``'s
    ``lower_bound``.
    """
    m_ops, leak = _logical(code, composite)
    c_best, method, trace = _min_pure(m_ops, leak)
    witness = _witness(code, c_best)
    if code.k > 2:
        _, value, solve = _min_over_states(m_ops, leak)
        trace["upper_bound"] = -(value - solve["gap"])
    return FidelityReport(
        value=float(np.vdot(c_best, leak @ c_best).real) - pure_fidelity(witness, composite),
        argmin_state=witness,
        optimizer_trace={"method": method, **trace},
        method=method,
    )


def _project_simplex(p: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(p)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, p.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(p - theta, 0.0)


def _min_over_states(m_ops: np.ndarray, leak: np.ndarray) -> tuple[np.ndarray, float, dict]:
    """Minimum of the convex F(rho) - tr(L rho) over k x k density matrices.

    Returns (rho, F(rho) - tr(L rho), trace). k = 1 is closed form. k = 2
    is exact on the Bloch ball: the sphere minimizer is the ball's when its
    multiplier is <= 0 (More and Sorensen; within rounding of 0, as
    ``_min_on_sphere`` decides its hard case); otherwise the minimum is
    interior, at the stationary point r = -Q^-1 b of the convex quadratic.
    Larger codes run projected gradient from I/k with step 1/C, C the
    largest curvature of F, projecting through the eigenvalues onto the
    simplex. They stop when the Frank-Wolfe gap
    tr((G - L) rho) - lambda_min(G - L) = 2 value + tr(L rho) - lambda_min(G - L),
    which bounds value - min by convexity, reaches ``_GAP_TOL`` (or after
    ``_MAX_STEPS`` steps), and report that gap.
    """
    k = m_ops.shape[1]
    if k == 1:
        rho, trace = np.ones((1, 1), dtype=np.complex128), {"method": "closed_form"}
    elif k == 2:
        t = _sphere_form(m_ops, leak)
        c, trace = _min_on_sphere(t)
        rho, radius = np.outer(c, c.conj()), 1.0
        if trace["multiplier"] > _HARD_CASE_TOL * max(1.0, float(np.max(np.abs(t)))):
            r = np.linalg.solve(t[1:, 1:], -t[1:, 0])  # positive definite: Q >= multiplier > 0
            rho, radius = np.tensordot(np.concatenate([[1.0], r]), _PAULIS, axes=1) / 2.0, float(np.linalg.norm(r))
        trace = {"method": "bloch_ball", **trace, "radius": radius}
    else:
        mh = m_ops.conj().transpose(0, 2, 1)
        herm = np.concatenate([m_ops + mh, 1j * (mh - m_ops)]).reshape(2 * len(m_ops), k * k) / 2.0
        curvature = 2.0 * np.linalg.norm(herm, 2) ** 2  # F's Hessian is 2 herm^dag herm on hermitian rho
        rho = np.eye(k, dtype=np.complex128) / k
        for steps in range(_MAX_STEPS + 1):
            value, grad, lin = _objective(m_ops, leak, rho)
            gap = max(0.0, 2.0 * value + lin - float(np.linalg.eigvalsh(grad)[0]))
            if gap <= _GAP_TOL or steps == _MAX_STEPS:
                break
            lam, vecs = np.linalg.eigh(rho - grad / curvature)
            rho = (vecs * _project_simplex(lam)) @ dagger(vecs)
        trace = {"method": "projected_gradient", "gap": gap, "steps": steps}
    return rho, _objective(m_ops, leak, rho)[0], trace


def entangled_fidelity(
    code: QuantumCode, ensemble: OperatorEnsemble, recovery: RecoveryOperator | None = None
) -> EntangledFidelityReport:
    """Fidelity when the coded system is entangled with an untouched bystander.

    In the Schmidt form the objective is sum_a |sum_i p_i <psi_i|A_a|psi_i>|^2
    over weights p on the simplex and orthonormal frames {psi_i} in the code,
    i.e. the convex F(rho) = sum_a |tr(M_a rho)|^2 over code density matrices
    rho = sum_i p_i |psi_i><psi_i| (Schumacher's entanglement fidelity). The
    completely entangled state rho = I/k is evaluated in closed form; the
    minimum is exact for k <= 2 and, for larger codes, within the Frank-Wolfe
    gap reported in ``optimizer_trace["gap"]``. ``recovery``, when given, is
    applied after the channel. This is ``min_fidelity(...).entangled``: the
    pure fidelity in the bound check comes from the same pass.
    """
    return min_fidelity(code, ensemble, recovery).entangled


def entangled_bound_check(code: QuantumCode, ensemble: OperatorEnsemble) -> BoundCheckReport:
    """Verify the linear bound F_entangled >= 1 - 3(1 - F_pure)/2.

    Only meaningful for trace-preserving families (the bound's derivation
    uses the completeness relation), so others are refused.
    """
    _require_superoperator(ensemble, "bound check")
    report = min_fidelity(code, ensemble).entangled
    f_pure, bound, satisfied = report.bound_check
    return BoundCheckReport(
        pure_fidelity=f_pure,
        entangled_fidelity=report.min_value,
        bound=bound,
        satisfied=satisfied,
        tight=report.tight,
    )


def binomial_fidelity_bound(r: int, e: int, p: float) -> float:
    """Classical tail bound on the corrected fidelity of an e-error code.

    For per-qubit noise {sqrt(1-p) I, ...} on r qubits, the recovered
    fidelity is at least 1 - sum_{j>e} C(r, j) p^j (1-p)^(r-j); only the
    uncorrectable error-weight patterns can contribute loss. Raises
    ``ValueError`` when a term overflows a float (from r = 1030 at e = 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if e < 0 or e > r:
        raise ValueError(f"need 0 <= e <= r, got e={e}, r={r}")
    try:
        tail = sum(math.comb(r, j) * p**j * (1.0 - p) ** (r - j) for j in range(e + 1, r + 1))
    except OverflowError:  # C(r, j) beyond the float range
        raise ValueError(f"binomial tail bound overflows a float at r={r}") from None
    return 1.0 - tail
