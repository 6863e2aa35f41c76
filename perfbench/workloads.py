"""The two workloads: set-up (inputs and expected outputs) and one pass.

Every input comes from the workload seed: it picks the random code and the
frame rotation of every synthesized recovery, and it is passed to the CLI
as ``--seed``. The program only sees the generated files and arguments.

- ``verify``: error-family construction at the 8-qubit cap, the
  correctability Gram, synthesis and verification, and the encoding of
  large reports and recovery files. No compose, optimizer or memory cycle.
- ``fidelity_memory``: decoding recovery files, ``compose`` (8,320
  composite operators for phase7) and the worst-case optimizers, then
  repeated Kraus application in 20-cycle memory runs from the same files.
  No correctability check or synthesis. The memory commands share this
  pass because, as a workload of their own, their 6 s pass spread by up to
  28% between runs on a shared two-core host.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

GAMMA = 0.1
COMPARE_GAMMA = 0.05
CYCLES = 20


@dataclass
class CliResult:
    rc: int
    out: str
    err: str
    files: dict = field(default_factory=dict)  # output path -> bytes, or None when absent


@dataclass
class Op:
    name: str
    group: str  # check, synthesize, routes, fidelity or memory
    call: Callable[[], object]
    check: Callable[[object], list]
    outputs: tuple[str, ...] = ()  # files the op may write: removed before it runs, read after
    fingerprint: Callable[[object], str] = lambda r: orc.digest(r.rc, r.out, *sorted(r.files.items()))


def cli_op(qk, name: str, group: str, argv: list[str], check, outputs=()) -> Op:
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qk.cli.main(argv)  # looked up per call, so the traced run sees its wrapper
        return CliResult(rc, out.getvalue(), err.getvalue())

    return Op(name, group, call, check, tuple(outputs))


def phase_channel(m: int, max_errors: int | None = None) -> str:
    spec = f"decoherence_pm_basis:gamma={GAMMA},qubits={m}"
    return spec if max_errors is None else f"{spec},max_errors={max_errors}"


def _phase_spec(qk, m: int, max_errors: int | None = None):
    params = {"gamma": GAMMA, "qubits": m}
    if max_errors is not None:
        params["max_errors"] = max_errors
    return qk.ChannelSpec("decoherence_pm_basis", params)


def recovery_text(rec) -> str:
    """The benchmark's own encoding of a recovery in the documented file format."""
    ensemble = rec.ensemble
    return orc.canonical_json({
        "dim": ensemble.dim,
        "label": ensemble.label,
        "operators": [orc.encode_matrix(a) for a in ensemble],
        "syndrome_dim": rec.syndrome_dim,
        "complement_dim": rec.complement_dim,
        "syndrome_coefficients": orc.encode_matrix(rec.syndrome_coefficients),
    })


def _phase_recovery(qk, m: int, seed: int):
    code = qk.builtin_code(f"phase{m}")
    return qk.synthesize_recovery(code, qk.build_channel(_phase_spec(qk, m, (m - 1) // 2)), seed=seed)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _route_fingerprint(fields: tuple[str, ...]):
    return lambda report: orc.digest(*(getattr(report, f) for f in fields))


def setup_verify(qk, work: Path, seed: int) -> list[Op]:
    ops = []
    s = str(seed)
    recoveries = {m: _phase_recovery(qk, m, seed) for m in (3, 5)}
    for m in (3, 5, 7):
        e = (m - 1) // 2
        images = orc.family_images(orc.pm_basis(GAMMA), m, e, orc.phase_code_basis(m))
        g = orc.gram(images)
        violations = orc.kl_violations(g)
        norms = np.einsum("aa->a", g[:, 0, :, 0]).real
        # phase7's 45 MB file is checked for identity across passes only, to keep set-up short
        expected = recovery_text(recoveries[m]).encode() if m in recoveries else None
        out = str(work / f"synthesized{m}.json")
        ch = phase_channel(m, e)
        ops.append(cli_op(qk, f"check phase{m}", "check", ["check", f"phase{m}", ch, "--seed", s],
                          lambda r, v=violations: orc.check_kl(r, seed, 0, v)))
        ops.append(cli_op(
            qk, f"synthesize phase{m}", "synthesize",
            ["synthesize", f"phase{m}", ch, "--seed", s, "--out", out],
            lambda r, m=m, n=norms, o=out, x=expected: orc.check_synthesized(r, seed, 2 ** (m - 1), n, o, x),
            outputs=[out],
        ))

    code = qk.random_code(256, 4, seed)
    code_path = _write(work / "random_code.json", orc.canonical_json({
        "n": code.n,
        "k": code.k,
        "shape": None,
        "basis": [np.ascontiguousarray(state.amplitudes).view(np.float64).reshape(-1, 2).tolist() for state in code.basis],
        "label": code.label,
    }))
    violations = orc.kl_violations(orc.gram(orc.family_images(orc.PAULI_BASIS, 8, 2, code.matrix)))
    pauli = "pauli_unitary_basis:qubits=8,max_errors=2"
    refused = str(work / "synthesized_random.json")
    ops.append(cli_op(qk, "check random", "check", ["check", code_path, pauli, "--seed", s],
                      lambda r: orc.check_kl(r, seed, 1, violations)))
    ops.append(cli_op(qk, "synthesize random", "synthesize",
                      ["synthesize", code_path, pauli, "--seed", s, "--out", refused],
                      lambda r: orc.check_refused(r, seed, violations, refused), outputs=[refused]))

    phase3, phase5 = qk.builtin_code("phase3"), qk.builtin_code("phase5")
    full5 = qk.build_channel(_phase_spec(qk, 5))
    family5 = qk.build_channel(_phase_spec(qk, 5, 2))
    composite5 = qk.compose(recoveries[5].ensemble, full5)
    entropies = orc.entropy_route(orc.family_images(orc.pm_basis(GAMMA), 5, 5, orc.phase_code_basis(5)))
    ops += [
        Op("entropy_test phase5", "routes", lambda: qk.entropy_test(phase5, full5),
           lambda r: orc.check_entropy(r, entropies, 2),
           fingerprint=_route_fingerprint(("difference_bits", "passed", "mixed_codeword_entropy", "entangled_image_entropy"))),
        # the composite includes uncorrectable (three or more flip) terms, so the route must say no
        Op("entangled_state_test phase5", "routes", lambda: qk.entangled_state_test(phase5, composite5),
           lambda r: orc.check_verdict(r, False), fingerprint=orc.digest),
        Op("syndrome_decomposition phase5", "routes", lambda: qk.syndrome_decomposition(phase5, family5),
           lambda r: orc.check_decomposition(r, 16),
           fingerprint=_route_fingerprint(("perfect", "syndrome_dim", "complement_dim", "max_residual"))),
        # phase3 corrects phase flips only: its two-qubit marginals |++><++| and |--><--|
        # differ by 1/2, while the one-qubit complements are orthogonal
        Op("reduced_dm_check phase3", "routes", lambda: qk.reduced_dm_check(phase3, 1),
           lambda r: orc.check_reduced_dm(r, 0.5, 0.0),
           fingerprint=_route_fingerprint(("passed", "max_marginal_mismatch", "max_support_overlap"))),
    ]
    return ops


def _recovery_files(qk, work: Path, seed: int) -> dict:
    return {m: _write(work / f"recovery{m}.json", recovery_text(_phase_recovery(qk, m, seed))) for m in (5, 7)}


def setup_fidelity_memory(qk, work: Path, seed: int) -> list[Op]:
    files = _recovery_files(qk, work, seed)
    p = orc.flip_probability(GAMMA)
    s = str(seed)
    ops = []
    for m, extra in ((5, ["--entangled"]), (7, [])):
        worst = 1.0 - orc.flip_tail(m, (m - 1) // 2, p)
        ops.append(cli_op(
            qk, f"fidelity phase{m}", "fidelity",
            ["fidelity", f"phase{m}", phase_channel(m), "--recovery", files[m], *extra, "--seed", s],
            lambda r, w=worst, ent=bool(extra): orc.check_fidelity(r, seed, w, w if ent else None),
        ))
    for m in (5, 7):
        curve = orc.memory_curve(orc.flip_tail(m, (m - 1) // 2, p), CYCLES)
        ops.append(cli_op(
            qk, f"memory phase{m}", "memory",
            ["memory", f"phase{m}", phase_channel(m), "--recovery", files[m], "--cycles", str(CYCLES), "--seed", s],
            lambda r, c=curve: orc.check_trajectory(r, CYCLES, c),
        ))
    q3 = orc.flip_tail(3, 1, orc.flip_probability(COMPARE_GAMMA))
    coded = orc.memory_curve(q3, CYCLES)
    uncoded = [(1.0 + math.exp(-COMPARE_GAMMA * t)) / 2.0 for t in range(CYCLES + 1)]
    bound = [(1.0 - q3) ** t for t in range(CYCLES + 1)]
    ops.append(cli_op(
        qk, "memory phase3 --compare", "memory",
        ["memory", "phase3", "--compare", "--gamma", str(COMPARE_GAMMA), "--cycles", str(CYCLES), "--seed", s],
        lambda r: orc.check_comparison(r, CYCLES, coded, uncoded, bound),
    ))
    return ops


WORKLOADS = {"verify": setup_verify, "fidelity_memory": setup_fidelity_memory}
