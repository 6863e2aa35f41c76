"""Expected outputs computed on the benchmark's side, and the checkers.

Nothing in this module calls qeckit: the operator images, Gram matrices,
entropies and closed-form fidelities below are the benchmark's own
reference for what the program must print. Every checker returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations, product

import numpy as np

TOL = 1e-9

I2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI_BASIS = (I2, SIGMA_Z, SIGMA_X, np.array([[0, -1], [1, 0]], dtype=np.complex128))


def pm_basis(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """One-qubit dephasing in the plus/minus environment basis."""
    g = math.exp(-gamma)
    return math.sqrt((1.0 + g) / 2.0) * I2, math.sqrt((1.0 - g) / 2.0) * SIGMA_Z


def flip_probability(gamma: float) -> float:
    return (1.0 - math.exp(-gamma)) / 2.0


def flip_tail(r: int, e: int, p: float) -> float:
    """Probability that more than e of r qubits flip: the per-cycle logical error."""
    return sum(math.comb(r, j) * p**j * (1.0 - p) ** (r - j) for j in range(e + 1, r + 1))


def phase_code_basis(m: int) -> np.ndarray:
    """n x k matrix of the phase repetition code (|+>^m, |->^m)."""
    plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0)
    zero, one = plus, minus
    for _ in range(m - 1):
        zero, one = np.kron(zero, plus), np.kron(one, minus)
    return np.column_stack([zero, one])


def family_images(ops, r: int, e: int, basis: np.ndarray) -> np.ndarray:
    """Images A_a B, stacked (m, n, k), of every product touching at most e qubits.

    ``ops[0]`` must be proportional to the identity. The order matches the
    error-family order of the program: error count, then positions, then
    factor choices. Factors are applied locally on the reshaped basis, so no
    n x n operator is formed.
    """
    n, k = basis.shape
    c0 = complex(ops[0][0, 0])
    tensor = basis.reshape((2,) * r + (k,))
    images = []
    for w in range(e + 1):
        for positions in combinations(range(r), w):
            for choices in product(range(1, len(ops)), repeat=w):
                y = tensor * c0 ** (r - w)
                for pos, which in zip(positions, choices):
                    y = np.moveaxis(np.tensordot(ops[which], y, axes=([1], [pos])), 0, pos)
                images.append(y.reshape(n, k))
    return np.stack(images)


def gram(images: np.ndarray) -> np.ndarray:
    """G[a, i, b, j] = <A_a b_i | A_b b_j>, from X = [A_a B] as one product X^H X."""
    m, n, k = images.shape
    x = images.transpose(1, 0, 2).reshape(n, m * k)
    return (x.conj().T @ x).reshape(m, k, m, k)


def kl_violations(g: np.ndarray) -> tuple[float, float]:
    """(max off-diagonal |G[a,i,b,j]|, max spread of G[a,i,b,i] over i)."""
    k = g.shape[1]
    if k == 1:
        return 0.0, 0.0
    off = np.abs(g).copy()
    idx = np.arange(k)
    off[:, idx, :, idx] = 0.0
    diag = np.einsum("aibi->abi", g)
    spread = np.abs(diag[:, :, :, None] - diag[:, :, None, :])
    return float(off.max()), float(spread.max())


def entropy_bits(h: np.ndarray, floor: float = 1e-14) -> float:
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    w = w[w > floor]
    return float(-np.sum(w * np.log2(w)))


def entropy_route(images: np.ndarray) -> tuple[float, float]:
    """(mixed-codeword entropy, entangled-image entropy) from the Gram matrix.

    The mixed state (1/k) sum_a A_a B B^H A_a^H has the nonzero spectrum of
    G/k; the corrupted entangled codeword has that of the m x m matrix
    (1/k) sum_i G[a, i, b, i].
    """
    m, _, k = images.shape
    g = gram(images)
    mixed = g.reshape(m * k, m * k) / k
    entangled = np.einsum("aibi->ab", g) / k
    return entropy_bits(mixed), entropy_bits(entangled)


def memory_curve(q: float, cycles: int) -> list[float]:
    """Fidelity after t cycles of a logical flip with probability q: (1 + (1-2q)^t)/2."""
    return [(1.0 + (1.0 - 2.0 * q) ** t) / 2.0 for t in range(cycles + 1)]


def encode_matrix(m: np.ndarray) -> list:
    """Row-major [re, im] pairs, the program's documented matrix format."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(m.shape[0], m.shape[1], 2).tolist()


def canonical_json(data) -> str:
    """Sorted keys, no spaces, trailing newline: the program's documented JSON form."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------- checkers


def _close(problems: list, name: str, got, want: float, tol: float = TOL) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not abs(got - want) <= tol:
        problems.append(f"{name}: got {got!r}, expected {want!r} within {tol:g}")


def _equal(problems: list, name: str, got, want) -> None:
    if got != want:
        problems.append(f"{name}: got {got!r}, expected {want!r}")


def parse_report(result, rc: int, command: str, seed: int) -> tuple[dict | None, list]:
    """Exit code, canonical form and envelope of a CLI JSON report."""
    problems: list = []
    _equal(problems, "exit code", result.rc, rc)
    try:
        report = json.loads(result.out)
    except ValueError as exc:
        return None, problems + [f"stdout is not JSON: {exc}"]
    if canonical_json(report) != result.out:
        problems.append("report is not in canonical sorted-key form")
    _equal(problems, "command", report.get("command"), command)
    _equal(problems, "seed", report.get("seed"), seed)
    _equal(problems, "tolerance", report.get("tolerance"), TOL)
    return report, problems


def check_kl(result, seed: int, rc: int, violations: tuple[float, float], command: str = "check") -> list:
    report, problems = parse_report(result, rc, command, seed)
    if report is None:
        return problems
    res = report.get("result", {})
    _equal(problems, "passed", res.get("passed"), rc == 0)
    _close(problems, "max_offdiag_violation", res.get("max_offdiag_violation"), violations[0])
    _close(problems, "max_diag_violation", res.get("max_diag_violation"), violations[1])
    _equal(problems, "witness present", res.get("witness") is not None, rc != 0)
    if command == "synthesize":
        _equal(problems, "error present", "error" in report, True)
    return problems


def check_synthesized(result, seed: int, syndrome_dim: int, image_norms, out_path: str, expected_file) -> list:
    """A passing synthesis: verdict, sizes, sum_r |lambda[r, a]|^2 = ||A_a|0_L>||^2, recovery file."""
    report, problems = parse_report(result, 0, "synthesize", seed)
    if report is None:
        return problems
    res = report.get("result", {})
    ver = res.get("verification", {})
    _equal(problems, "verification passed", ver.get("passed"), True)
    residual = ver.get("max_identity_residual")
    if not isinstance(residual, float) or not residual < TOL:
        problems.append(f"max_identity_residual {residual!r} is not below {TOL:g}")
    _equal(problems, "syndrome_dim", res.get("syndrome_dim"), syndrome_dim)
    _equal(problems, "complement_dim", res.get("complement_dim"), 0)
    _equal(problems, "recovery_file", res.get("recovery_file"), out_path)
    lam = np.array([[complex(*z) for z in row] for row in ver.get("lambda_values", [[]])])
    if lam.shape != (syndrome_dim + 1, len(image_norms)):
        problems.append(f"lambda_values has shape {lam.shape}")
    else:
        worst = float(np.max(np.abs(np.sum(np.abs(lam) ** 2, axis=0) - image_norms)))
        _close(problems, "sum_r |lambda[r, a]|^2 - ||A_a|0>||^2", worst, 0.0)
    data = result.files.get(out_path)
    if data is None:
        problems.append("recovery file was not written")
    elif expected_file is not None and data != expected_file:
        problems.append("recovery file differs from the benchmark's own encoding of the same recovery")
    return problems


def check_refused(result, seed: int, violations: tuple[float, float], out_path: str) -> list:
    problems = check_kl(result, seed, 1, violations, command="synthesize")
    if result.files.get(out_path) is not None:
        problems.append("a recovery file was written for a failed synthesis")
    return problems


def check_fidelity(result, seed: int, min_fidelity: float, entangled: float | None) -> list:
    """Phase codes: the worst case is the binomial tail; the entangled values are 1 - q."""
    report, problems = parse_report(result, 0, "fidelity", seed)
    if report is None:
        return problems
    res = report.get("result", {})
    _close(problems, "min_fidelity", res.get("min_fidelity", {}).get("value"), min_fidelity)
    if entangled is None:
        _equal(problems, "entangled report present", "entangled" in res, False)
        return problems
    ent = res.get("entangled", {})
    _close(problems, "max_entangled_value", ent.get("max_entangled_value"), entangled)
    _close(problems, "entangled min_value", ent.get("min_value"), entangled)
    bound = ent.get("bound_check", {})
    _close(problems, "bound", bound.get("bound"), 1.0 - 1.5 * (1.0 - min_fidelity))
    _equal(problems, "bound satisfied", bound.get("satisfied"), True)
    return problems


def _csv_rows(result, header: str, cycles: int, problems: list) -> list[list[str]]:
    _equal(problems, "exit code", result.rc, 0)
    lines = result.out.split("\n")
    if lines[0] != header or lines[-1] != "" or len(lines) != cycles + 3:
        problems.append(f"CSV layout: header {lines[0]!r}, {len(lines)} lines")
        return []
    rows = [line.split(",") for line in lines[1:-1]]
    for t, row in enumerate(rows):
        if row[0] != str(t):
            problems.append(f"row {t} is labelled {row[0]!r}")
    return rows


def _close_column(problems: list, name: str, values, expected) -> None:
    try:
        got = [float(v) for v in values]
    except ValueError:
        problems.append(f"{name}: non-numeric entry")
        return
    worst = max(abs(g - w) for g, w in zip(got, expected))
    _close(problems, f"{name} worst deviation", worst, 0.0)


def check_trajectory(result, cycles: int, curve: list[float]) -> list:
    problems: list = []
    rows = _csv_rows(result, "cycle,fidelity,bound", cycles, problems)
    if rows:
        _close_column(problems, "fidelity", [r[1] for r in rows], curve)
        _equal(problems, "bound column", {r[2] for r in rows}, {""})
    return problems


def check_comparison(result, cycles: int, coded, uncoded, bound) -> list:
    problems: list = []
    rows = _csv_rows(result, "cycle,coded_fidelity,uncoded_fidelity,bound", cycles, problems)
    if rows:
        _close_column(problems, "coded_fidelity", [r[1] for r in rows], coded)
        _close_column(problems, "uncoded_fidelity", [r[2] for r in rows], uncoded)
        _close_column(problems, "bound", [r[3] for r in rows], bound)
    return problems


def check_entropy(report, expected: tuple[float, float], k: int) -> list:
    problems: list = []
    _close(problems, "mixed_codeword_entropy", report.mixed_codeword_entropy, expected[0])
    _close(problems, "entangled_image_entropy", report.entangled_image_entropy, expected[1])
    _close(problems, "difference_bits", report.difference_bits, expected[0] - expected[1])
    _equal(problems, "passed", report.passed, abs(expected[0] - expected[1] - math.log2(k)) < 1e-6)
    return problems


def check_verdict(value, expected: bool) -> list:
    problems: list = []
    _equal(problems, "verdict", value, expected)
    return problems


def check_decomposition(dec, syndrome_dim: int) -> list:
    problems: list = []
    _equal(problems, "perfect", dec.perfect, True)
    _equal(problems, "syndrome_dim", dec.syndrome_dim, syndrome_dim)
    _equal(problems, "complement_dim", dec.complement_dim, 0)
    if not dec.max_residual < TOL:
        problems.append(f"max_residual {dec.max_residual!r} is not below {TOL:g}")
    return problems


def check_reduced_dm(report, mismatch: float, overlap: float) -> list:
    problems: list = []
    _equal(problems, "passed", report.passed, mismatch < TOL and overlap < TOL)
    _close(problems, "max_marginal_mismatch", report.max_marginal_mismatch, mismatch)
    _close(problems, "max_support_overlap", report.max_support_overlap, overlap)
    return problems
