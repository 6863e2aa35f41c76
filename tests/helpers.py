"""Shared test utilities."""

import math
from itertools import combinations, product

import numpy as np

from qeckit import DensityMatrix, OperatorEnsemble, PureState, tensor_product
from qeckit.codes import ReducedDMReport
from qeckit.config import DEFAULT_TOL
from qeckit.fidelity import _bloch_form, _min_on_sphere, _objective
from qeckit.linalg import QubitSubset, kron_all, orthonormalize, random_unitary


def density(state):
    """The density matrix of a ``PureState``, with its register shape."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), shape=state.shape)


def partial_trace(rho, keep):
    """Trace out every qubit of ``rho`` not in ``keep`` (1-based positions).

    Requires an all-qubit register shape on ``rho``. Keeping the empty
    subset returns the 1x1 matrix holding the trace.
    """
    if rho.shape is None:
        raise ValueError("partial trace requires the register shape of the density matrix")
    if any(f != 2 for f in rho.shape):
        raise ValueError(f"partial trace requires an all-qubit register, got shape {rho.shape}")
    r = len(rho.shape)
    subset = QubitSubset(tuple(keep))
    for i in subset.indices:
        if i > r:
            raise IndexError(f"qubit position {i} out of range 1..{r}")
    keep0 = [i - 1 for i in subset.indices]
    traced = sorted((q for q in range(r) if q not in keep0), reverse=True)

    work = rho.matrix.reshape((2,) * (2 * r))
    remaining = r
    for q in traced:
        work = np.trace(work, axis1=q, axis2=q + remaining)
        remaining -= 1
    dim = 2 ** len(keep0)
    shape = (2,) * len(keep0) if keep0 else None
    return DensityMatrix(work.reshape(dim, dim), shape=shape, subnormalized=rho.subnormalized)


def random_superoperator(dim, num_ops, rng):
    """Random trace-preserving family from an isometry into dim x num_ops."""
    g = rng.normal(size=(dim * num_ops, dim)) + 1j * rng.normal(size=(dim * num_ops, dim))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[a * dim:(a + 1) * dim, :] for a in range(num_ops))
    return OperatorEnsemble(ops, label=f"random({dim},{num_ops})")


def chained_tensor_power(ensemble, r):
    """Oracle for tensor_power's members: r - 1 chained ``tensor_product`` calls."""
    out = ensemble
    for _ in range(r - 1):
        out = tensor_product(out, ensemble)
    return out.operators


def weight_ordered_family(basis, r, e):
    """Oracle for e_error_family's members: ``kron_all`` over every word with at most e non-slot-0 factors.

    Words run by weight, then by the positions of the non-slot-0 factors,
    then by which operators sit there.
    """
    ops = basis.operators
    members = []
    for m in range(e + 1):
        for positions in combinations(range(r), m):
            for choices in product(range(1, len(ops)), repeat=m):
                factors = [ops[0]] * r
                for pos, which in zip(positions, choices):
                    factors[pos] = ops[which]
                members.append(kron_all(factors))
    return members


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


def _first_max(values):
    """First index (C order) within rounding of the maximum."""
    first = int(np.flatnonzero(values >= values.max() * (1.0 - 1e-12))[0])
    return tuple(int(x) for x in np.unravel_index(first, values.shape))


def dense_kl_violations(gram):
    """Oracle for kl_check's reduction over whole (m, m, k, k) arrays: (max_off, max_diag, witness).

    Forms |G| with its i == j entries zeroed and the spread
    |G[a, b, i, i] - G[a, b, j, j]|, each as one array the size of G.
    """
    idx = np.arange(gram.shape[2])
    off = np.abs(gram)
    off[:, :, idx, idx] = 0.0
    diags = gram[:, :, idx, idx]
    spread = np.abs(diags[:, :, :, None] - diags[:, :, None, :])
    max_off, max_diag = float(off.max()), float(spread.max())
    return max_off, max_diag, _first_max(off) if max_off >= max_diag else _first_max(spread)


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


def dense_reduced_dm_check(code, e, tol=DEFAULT_TOL):
    """Dense oracle for reduced_dm_check: (report, rows), every marginal a ``partial_trace`` of an n x n density matrix.

    ``rows`` holds (subset, pair, mismatch, overlap) for every location in
    the check's scan order, so a caller can tell where maxima tie.
    """
    r = len(code.shape)
    densities = [density(s) for s in code.basis]
    max_mismatch = 0.0
    max_overlap = 0.0
    witness_subset = None
    witness_pair = None
    rows = []
    for u in combinations(range(1, r + 1), 2 * e):
        complement = tuple(q for q in range(1, r + 1) if q not in u)
        on_u = [partial_trace(d, u).matrix for d in densities]
        on_comp = [partial_trace(d, complement).matrix for d in densities]
        for i, j in combinations(range(code.k), 2):
            mismatch = float(np.max(np.abs(on_u[i] - on_u[j])))
            overlap = float(np.max(np.abs(on_comp[i] @ on_comp[j])))
            rows.append((u, (i, j), mismatch, overlap))
            if mismatch > max_mismatch:
                max_mismatch, witness_subset, witness_pair = mismatch, QubitSubset(u), (i, j)
            if overlap > max_overlap:
                max_overlap, witness_subset, witness_pair = overlap, QubitSubset(u), (i, j)

    passed = max_mismatch < tol.check and max_overlap < tol.check
    report = ReducedDMReport(
        passed=passed,
        max_marginal_mismatch=max_mismatch,
        max_support_overlap=max_overlap,
        witness_subset=None if passed else witness_subset,
        witness_pair=None if passed else witness_pair,
        tol=tol.check,
    )
    return report, rows


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


def _project_simplex(p):
    """Euclidean projection onto the probability simplex."""
    u = np.sort(p)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, p.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(p - theta, 0.0)


def _best_weights(diag_elems):
    """Minimize sum_a |sum_i p_i d_{a,i}|^2 over the probability simplex: (p, value)."""
    k = diag_elems.shape[1]
    gram = np.real(diag_elems.conj().T @ diag_elems)  # (k, k), PSD
    if k == 1:
        return np.array([1.0]), float(gram[0, 0])
    if k == 2:
        # p = (t, 1-t): quadratic in t with nonnegative leading coefficient
        a = gram[0, 0] - 2.0 * gram[0, 1] + gram[1, 1]
        bcoef = 2.0 * (gram[0, 1] - gram[1, 1])
        t = 0.5 if a <= 0 else min(max(-bcoef / (2.0 * a), 0.0), 1.0)
        cands = [t, 0.0, 1.0]
        vals = [a * t * t + bcoef * t + gram[1, 1] for t in cands]
        i = int(np.argmin(vals))
        return np.array([cands[i], 1.0 - cands[i]]), float(vals[i])
    p = np.full(k, 1.0 / k)
    lam = float(np.max(np.linalg.eigvalsh(gram))) + 1e-12
    for _ in range(300):
        p = _project_simplex(p - (gram @ p) / lam)
    return p, float(p @ gram @ p)


def _cayley(h):
    """Unitary (I - iH/2)(I + iH/2)^-1 from a hermitian generator."""
    eye = np.eye(h.shape[0])
    return np.linalg.solve(eye + 0.5j * h, eye - 0.5j * h)


def frame_search_minimum(m_ops, witness, seed=0, restarts=32, perturbations=60):
    """Upper-bound oracle for the entangled minimum: (value, weights, frame).

    Searches sum_a |sum_i p_i <u_i|M_a|u_i>|^2 over code frames u, with the
    exact best weights p per frame and ``perturbations`` random Cayley
    perturbations per start. The starts are the identity frame (it holds
    the completely entangled state), the frame led by ``witness`` (code
    coordinates of the pure-state worst case) and max(restarts // 4, 2)
    random unitaries drawn with ``seed``. Non-convex, so it may stop above
    the minimum.
    """
    k = m_ops.shape[1]
    rng = np.random.default_rng(seed)

    def frame_diagonals(u):
        return np.einsum("ji,ajl,li->ai", u.conj(), m_ops, u)

    def optimize_frame(u):
        best_p, best_v = _best_weights(frame_diagonals(u))
        delta = 0.3
        for _ in range(perturbations):
            h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            h = (h + h.conj().T) * (delta / 2.0)
            cand = u @ _cayley(h)
            p2, v2 = _best_weights(frame_diagonals(cand))
            if v2 < best_v - 1e-15:
                u, best_p, best_v = cand, p2, v2
                delta = min(delta * 1.2, 0.5)
            else:
                delta *= 0.8
        return best_v, best_p, u

    witness = witness / np.linalg.norm(witness)
    frame_basis, _, _ = orthonormalize([witness] + [np.eye(k, dtype=np.complex128)[:, j] for j in range(k)])
    starts = [np.eye(k, dtype=np.complex128), np.column_stack(frame_basis)]
    starts += [random_unitary(k, rng) for _ in range(max(restarts // 4, 2))]
    return min((optimize_frame(u) for u in starts), key=lambda found: found[0])


def line_search_pure_minimum(m_ops, leak):
    """Upper-bound oracle for the pure minimum of F(rho) - tr(L rho) for k > 2: (c, value).

    32 descents on the unit sphere from starts drawn with seed 0, each at
    most 500 steepest-descent steps with a backtracking line search that
    stops when the step falls to 1e-10. Every value it reports is that of
    an evaluated pure state, so it can only land on or above the minimum.
    """
    k = leak.shape[0]

    def at(c):
        return _objective(m_ops, leak, np.outer(c, c.conj()))

    rng = np.random.default_rng(0)
    best_c, best_v = None, math.inf
    for _ in range(32):
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
            while step > 1e-10:
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
    return best_c, best_v


def _apply_raw(ops, mat):
    out = np.zeros_like(mat)
    for a in ops:
        out = out + a @ mat @ a.conj().T
    return out


def dense_memory_run(code, channel, recovery, initial, cycles, worst_case=False):
    """Dense oracle for run_memory: (fidelities, worst_values, max_trace_dev, min_eig).

    Pushes the n x n density matrix, and with ``worst_case`` the k^2 n x n
    sector images |i_L><j_L|, through every channel and recovery operator
    on every cycle.
    """
    psi = initial.amplitudes
    b, k = code.matrix, code.k

    def worst(images):
        q = np.array([[b.conj().T @ images[i * k + j] @ b for j in range(k)] for i in range(k)])
        if k == 1:
            return float(q[0, 0, 0, 0].real)
        return quartic_value(q, _min_on_sphere(_bloch_form(q))[0])

    rho = np.outer(psi, psi.conj())
    fidelities, max_trace_dev, min_eig = [1.0], 0.0, 1.0
    images = [np.outer(b[:, i], b[:, j].conj()) for i in range(k) for j in range(k)]
    worst_values = [worst(images)] if worst_case else None
    for _ in range(cycles):
        rho = _apply_raw(recovery.ensemble, _apply_raw(channel, rho))
        rho = (rho + rho.conj().T) / 2.0
        fidelities.append(float(np.vdot(psi, rho @ psi).real))
        max_trace_dev = max(max_trace_dev, abs(float(np.trace(rho).real) - 1.0))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(rho))))
        if worst_case:
            images = [_apply_raw(recovery.ensemble, _apply_raw(channel, m)) for m in images]
            worst_values.append(worst(images))
    return fidelities, worst_values, max_trace_dev, min_eig


# The per-member loops that families held as one array replaced, kept as oracles: each must be
# matched byte for byte by the array form.


def monomial_members(family):
    """A lifted family's members as ``(cols, vals)``, each folded from its word one ``np.kron``-ordered product at a time."""
    factors = []
    for a in family._basis.operators:  # row i holds vals[i] in column cols[i]
        cols = np.argmax(a != 0, axis=1)
        factors.append((cols, a[np.arange(len(a)), cols]))
    for word in family._words.tolist():
        cols, vals = np.zeros(1, dtype=np.intp), np.ones(1, dtype=np.complex128)
        for i in word:
            fcols, fvals = factors[i]
            cols, vals = (cols[:, None] * len(fcols) + fcols).ravel(), (vals[:, None] * fvals).ravel()
        yield cols, vals


def member_images(family, frame, lifted=False):
    """(n, m, d) images of ``frame``, one member at a time: ``A_a frame``, or ``vals * frame[cols]`` for a lifted family."""
    members = monomial_members(family) if lifted else family.operators
    images = np.empty((frame.shape[0], len(family), frame.shape[1]), dtype=np.complex128)
    for a, member in enumerate(members):
        if lifted:
            cols, vals = member
            images[:, a, :] = vals[:, None] * frame[cols] + 0.0
        else:
            images[:, a, :] = member @ frame
    return images


def member_sum_adag_a(family, lifted=False):
    """sum_a A_a^dag A_a, one member at a time; a lifted member adds |vals|^2 to the diagonal at cols."""
    if lifted:
        diag = np.zeros(family.dim)
        for cols, vals in monomial_members(family):
            diag += np.bincount(cols, weights=vals.real**2 + vals.imag**2, minlength=family.dim)
        return np.diag(diag).astype(np.complex128)
    acc = np.zeros_like(family.operators[0])
    for a in family.operators:
        acc += a.conj().T @ a
    return acc


def member_compose(outer, inner):
    """(m_R m_A, n, n) products R_r A_a, r-major, one pair at a time."""
    return np.stack([r @ a for r in outer.operators for a in inner.operators])


def member_apply(family, rho):
    """sum_a A_a rho A_a^dag added one member at a time, then symmetrized as ``apply_channel`` does."""
    out = np.zeros_like(rho)
    for a in family.operators:
        out = out + a @ rho @ a.conj().T
    return (out + out.conj().T) / 2.0


def member_verification(code, errors, recovery):
    """``verify_recovery``'s (lambda, residual), one recovery element at a time over the images."""
    b = code.matrix
    images = errors.images(b)
    n, m, k = images.shape
    lam = np.zeros((len(recovery.ensemble), m), dtype=np.complex128)
    worst = 0.0
    for r, rr in enumerate(recovery.ensemble.operators):
        image = (rr @ images.reshape(n, m * k)).reshape(n, m, k)
        lam[r] = b[:, 0].conj() @ image[:, :, 0]
        worst = max(worst, float(np.max(np.linalg.norm(image - lam[r][:, None] * b[:, None, :], axis=0))))
    return lam, worst


def member_logical(code, ensemble, recovery=None):
    """``fidelity._logical``'s compression stack and Gram, with the left factors B^dag R_r formed one at a time."""
    images = ensemble.images(code.matrix)
    n, m, k = images.shape
    bh = code.matrix.conj().T
    rows = bh if recovery is None else np.concatenate([bh @ r for r in recovery.ensemble.operators])
    stack = (rows @ images.reshape(n, m * k)).reshape(-1, k, m, k).transpose(0, 2, 1, 3)
    return stack.reshape(-1, k, k), np.tensordot(images.conj(), images, axes=([0, 1], [0, 1]))


def member_pure_fidelity(psi, ensemble, recovery=None):
    """``pure_fidelity`` with the rows psi^dag R_r formed one at a time."""
    rows = psi.conj()[None] if recovery is None else np.stack([psi.conj() @ r for r in recovery.ensemble.operators])
    return float(np.linalg.norm(rows @ ensemble.images(psi[:, None])[:, :, 0]) ** 2)


def member_frame(code, recovery):
    """``memory._frame``: the span B B^dag + sum_r R_r R_r^dag added one element at a time, cut at numerical rank."""
    b = code.matrix
    span = b @ b.conj().T
    for r in recovery.ensemble.operators:
        span += r @ r.conj().T
    vals, vecs = np.linalg.eigh(span)
    return vecs[:, vals > vals[-1] * code.n * np.finfo(float).eps]


def member_frame_arrays(w, recovery):
    """``run_memory``'s (d, m_R, n) stack y of W^dag R_r and its ``frame_residual``, one element at a time."""
    ops = recovery.ensemble.operators
    y = np.stack([w.conj().T @ r for r in ops], axis=1)
    return y, max(float(np.linalg.norm(r - w @ y[:, i, :])) for i, r in enumerate(ops))
