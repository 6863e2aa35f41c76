"""Pure-state and entangled-state fidelity, worst cases and bounds.

The pure-state fidelity of |psi> under a family {A_a}, optionally followed
by a recovery {R_r}, is sum |<psi|R_r A_a|psi>|^2; the fidelity of a code is
its minimum over the code subspace. Every quantity here reads the k x k
code-frame compression M = (R_r^dag B)^dag (A_a B) of the error images, so
no composite R_r A_a is formed. In those coordinates every worst case is a
minimum of one objective, F(rho) - tr(L rho) with the convex quartic
F(rho) = sum_a |tr(M_a rho)|^2 and a k x k hermitian L: L = 0 for the
pure-state and entangled-state fidelities, and the code-frame Gram
sum_a (A_a B)^dag (A_a B) for the deviation ``code_error``. One solve,
``_minima``, returns both of its minima. Over pure code states it is closed
form for k = 1, exact on the Bloch sphere for k = 2 (with a multiplier
certifying optimality), and for larger codes fixed-seed random restarts of
Barzilai-Borwein descent, an upper bound on the minimum. Over mixed code
states the objective is convex: that minimum is the entangled-state
fidelity and, less its Frank-Wolfe gap, a certified floor under the pure
one, so the k > 2 restarts stop once one converges within ``_GAP_TOL`` of
it (the bracket is closed). For k > 2 both run ``_descent``, on unit
vectors c (rho = c c^dag) and on a purification Y (rho = Y Y^dag).
Optimizer outputs always carry the witness state at which the reported
value was re-evaluated. ``min_fidelity`` solves once and its report
carries the entangled-state report, which ``entangled_fidelity`` and
``entangled_bound_check`` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import SIGMA_X, SIGMA_Y, SIGMA_Z, OperatorEnsemble, _require_superoperator
from .codes import QuantumCode, _error_images
from .linalg import PureState, _check_bytes, dagger
from .recovery import RecoveryOperator

#: Numerical slack granted to optimizer-derived quantities in bound checks.
BOUND_SLACK = 1e-6

#: Random starts of the pure-state descent for codes with k > 2, and the seed they are drawn with;
#: the relative gradient norm at which each descent stops, and the step guard of every descent.
_RESTARTS = 32
_SEED = 0
_GRAD_TOL = 1e-10
_DESCENT_STEPS = 10_000

#: Frank-Wolfe gap at which the mixed-state descent for codes with k > 2 stops.
_GAP_TOL = 1e-12

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
    n, m, k, m_r = code.n, len(ensemble), code.k, 1 if recovery is None else len(recovery.ensemble)
    # before any image is formed: the stack twice (product, copy), the images with the Gram's two copies, B^dag, rows
    _check_bytes(16 * (2 * m * m_r * k * k + n * k * (3 * m + m_r + 1)), f"logical channel ({m * m_r} x {k} x {k})")
    images = _error_images(code, ensemble)  # (n, m_A, k)
    bh = dagger(code.matrix)
    rows = bh if recovery is None else (bh @ recovery.ensemble.stack).reshape(-1, n)
    # one expression, so the product is freed before the Gram's copies are made
    stack = (rows @ images.reshape(n, m * k)).reshape(-1, k, m, k).transpose(0, 2, 1, 3).reshape(-1, k, k)
    return stack, np.tensordot(images.conj(), images, axes=([0, 1], [0, 1]))


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


def _choi_kraus(q: np.ndarray) -> np.ndarray:
    """At most k^2 Kraus matrices M_a, T(X) = sum_a M_a X M_a^dag, of the CP map with q[i, j, kk, ll] = <kk|T(|i><j|)|ll>.

    The eigenvectors of the hermitian Choi matrix J[(kk, i), (ll, j)] = q[i, j, kk, ll]
    (Choi, Linear Algebra Appl. 10, 285, 1975), scaled by the square roots of their
    eigenvalues with negative round-off clipped to 0, are the vec(M_a).
    """
    k = q.shape[0]
    vals, vecs = np.linalg.eigh(q.transpose(2, 0, 3, 1).reshape(k * k, k * k))
    return (vecs * np.sqrt(np.maximum(vals, 0.0))).T.reshape(-1, k, k)


def _sphere_form(m_ops: np.ndarray, leak: np.ndarray) -> np.ndarray:
    """``_bloch_form`` of F(rho) - tr(L rho) for k = 2, writing tr(L rho) as tr(L rho) tr(rho)."""
    return _bloch_form(_quartic(m_ops) - np.einsum("ji,lk->ijkl", leak, np.eye(2)))


def _descent(m_ops: np.ndarray, leak: np.ndarray, c: np.ndarray):
    """Yield (c, rho, value, G - L, tr(L rho), |g|) at each of at most ``_DESCENT_STEPS`` + 1 iterates.

    Descends F(rho) - tr(L rho) over unit-norm c, rho = c c^dag: c is a
    k-vector or a k x k purification (Burer and Monteiro, Math. Program. 95,
    329, 2003). Each step moves c against its tangent gradient g by
    alternating Barzilai-Borwein lengths (Wen and Yin, Math. Program. 142,
    397, 2013) of the last move s and gradient change y, capped so that c
    turns by at most 45 degrees. The caller decides when to stop.
    """
    prev = None
    for steps in range(_DESCENT_STEPS + 1):
        c = c / np.linalg.norm(c)
        rho = np.outer(c, c.conj()) if c.ndim == 1 else c @ dagger(c)
        value, grad, lin = _objective(m_ops, leak, rho)
        g = grad @ c
        g = g - c * np.vdot(c, g)  # tangent projection
        norm = np.linalg.norm(g)
        yield c, rho, value, grad, lin, norm
        step = 1.0 / norm  # turns c by 45 degrees, the most any step may
        if prev is not None:  # <s, s> / |Re<s, y>| and |Re<s, y>| / <y, y> in turn, at most 1 / |g|
            s, y = c - prev[0], g - prev[1]
            ss, sy, yy = np.vdot(s, s).real, abs(np.vdot(s, y).real), np.vdot(y, y).real
            step = ss / max(sy, ss * norm) if steps % 2 or not sy else sy / max(yy, sy * norm)
        prev = c, g
        c = c - step * g


def _minima(m_ops: np.ndarray, leak: np.ndarray):
    """Both minima of F(rho) - tr(L rho): ((c, method, trace), (rho, value, trace)).

    The first is the pure code state rho = |c><c|, the second the minimizer
    over k x k density matrices with its value. k = 1 is closed form. k = 2
    is exact: the Bloch-sphere minimizer (``_min_on_sphere``) is also the
    ball's when its multiplier is <= 0 (More and Sorensen; within rounding
    of 0, as ``_min_on_sphere`` decides its hard case); otherwise the mixed
    minimum is interior, at the stationary point r = -Q^-1 b of the convex
    quadratic. Larger codes first run ``_descent`` on rho = Y Y^dag from
    Y = I / sqrt(k); a full k x k factor leaves the convex objective no
    spurious local minima (Journee, Bach, Absil and Sepulchre, SIAM J.
    Optim. 20, 2327, 2010). It stops when the Frank-Wolfe gap
    tr((G - L) rho) - lambda_min(G - L) = 2 value + tr(L rho) - lambda_min(G - L),
    which bounds value - min by convexity, reaches ``_GAP_TOL`` (``converged``),
    when its tangent gradient vanishes or at the guard, and reports that gap;
    value - gap is the certified ``lower_bound``. Then ``_descent`` runs on
    unit k-vectors from at most ``_RESTARTS`` starts drawn with ``_SEED``,
    each until |g| <= ``_GRAD_TOL`` max(1, |G - L|_F) or the guard. The best
    evaluated state's value is an upper bound on the pure minimum; once a
    restart that stopped on its gradient leaves it within ``_GAP_TOL`` of
    the lower bound, the rest are skipped (``certificate`` "closed").
    """
    k = leak.shape[0]
    if k == 1:
        c, rho = np.array([1.0 + 0.0j]), np.ones((1, 1), dtype=np.complex128)
        method, trace, solve = "closed_form", {}, {"method": "closed_form"}
    elif k == 2:
        t = _sphere_form(m_ops, leak)
        c, trace = _min_on_sphere(t)
        rho, radius, method = np.outer(c, c.conj()), 1.0, "bloch_exact"
        if trace["multiplier"] > _HARD_CASE_TOL * max(1.0, float(np.max(np.abs(t)))):
            r = np.linalg.solve(t[1:, 1:], -t[1:, 0])  # positive definite: Q >= multiplier > 0
            rho, radius = np.tensordot(np.concatenate([[1.0], r]), _PAULIS, axes=1) / 2.0, float(np.linalg.norm(r))
        solve = {"method": "bloch_ball", **trace, "radius": radius}
    else:
        start = np.eye(k, dtype=np.complex128) / math.sqrt(k)  # rho = I/k
        for steps, (_, rho, value, grad, lin, norm) in enumerate(_descent(m_ops, leak, start)):
            gap = max(0.0, 2.0 * value + lin - float(np.linalg.eigvalsh(grad)[0]))
            if gap <= _GAP_TOL or not norm:  # a vanishing gradient leaves no step to take
                break
        solve = {"method": "purified_descent", "gap": gap, "steps": steps, "converged": gap <= _GAP_TOL}
        floor, method = value - gap, "random_restart"

        rng = np.random.default_rng(_SEED)
        best_c, best_v, counts = None, math.inf, []
        for _ in range(_RESTARTS):
            start = rng.normal(size=k) + 1j * rng.normal(size=k)
            for steps, (c, _, value, grad, _, norm) in enumerate(_descent(m_ops, leak, start)):
                if value < best_v:
                    best_c, best_v = c, value
                if norm <= _GRAD_TOL * max(1.0, np.linalg.norm(grad)):
                    break
            counts.append(steps)
            if closed := steps < _DESCENT_STEPS and best_v - floor <= _GAP_TOL:  # more restarts gain at most _GAP_TOL
                break
        c, trace = best_c, {"restarts": len(counts), "seed": _SEED, "best_restart_value": best_v, "steps": sum(counts)}
        trace.update(converged=max(counts) < _DESCENT_STEPS, lower_bound=floor, certificate="closed" if closed else "open")
    return (c, method, trace), (rho, _objective(m_ops, leak, rho)[0], solve)


def _witness(code: QuantumCode, c: np.ndarray) -> PureState:
    psi = code.matrix @ c
    return PureState(psi / np.linalg.norm(psi), code.shape)


def min_fidelity(
    code: QuantumCode, ensemble: OperatorEnsemble, recovery: RecoveryOperator | None = None
) -> FidelityReport:
    """Worst-case pure-state fidelity over the code, carrying the entangled report of the same pass.

    Compresses once and solves for both minima of F with L = 0 once
    (``_minima``), whatever k; ``report.entangled`` is the
    ``entangled_fidelity`` report of that solve. ``recovery``, when given,
    is applied after the channel. k = 1 is closed form; k = 2 is the exact
    Bloch-sphere minimum; larger codes use fixed-seed random restarts, an
    upper bound, and add the certified lower bound
    ``optimizer_trace["lower_bound"]``, the minimum over mixed code states
    less its Frank-Wolfe gap, with ``certificate`` "closed" when the
    restarts stopped within ``_GAP_TOL`` of it. The returned value is
    re-evaluated at the witness state, so
    report.value == pure_fidelity(report.argmin_state, ensemble, recovery).
    """
    m_ops, _ = _logical(code, ensemble, recovery)
    (c_best, method, trace), (rho, value, solve) = _minima(m_ops, np.zeros((code.k, code.k)))
    witness = _witness(code, c_best)
    f_pure = pure_fidelity(witness, ensemble, recovery)
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
    its maximum is the solve's pure minimum of F - tr(L rho), negated. For
    trace-preserving composites L = I and the deviation is 1 minus the
    pure fidelity. The witness maximizes the deviation (the report field
    name follows the fidelity report; here it is an arg-max). For k > 2 the
    random restarts give only a lower bound on the maximum, and
    ``optimizer_trace["upper_bound"]`` certifies it from above: minus the
    solve's ``lower_bound`` on F - tr(L rho), the minimum over mixed code
    states less its Frank-Wolfe gap. For trace-preserving composites that
    is 1 minus ``min_fidelity``'s ``lower_bound``.
    """
    m_ops, leak = _logical(code, composite)
    (c_best, method, trace), _ = _minima(m_ops, leak)
    witness = _witness(code, c_best)
    if "lower_bound" in trace:  # the objective's floor is minus the deviation's ceiling
        trace["upper_bound"] = -trace.pop("lower_bound")
    return FidelityReport(
        value=float(np.vdot(c_best, leak @ c_best).real) - pure_fidelity(witness, composite),
        argmin_state=witness,
        optimizer_trace={"method": method, **trace},
        method=method,
    )


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
