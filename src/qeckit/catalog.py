"""Catalogue of (code, channel) pairs exercised across the test routes.

These are the worked examples the library ships: each pair records whether
its channel is trace preserving and whether the code corrects it, so the
equivalence suite can demand identical verdicts from every verification
route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelSpec,
    OperatorEnsemble,
    SIGMA_X,
    build_channel,
    e_error_family,
    tensor_power,
)
from .codes import QuantumCode, builtin_code, repetition_phase_code


@dataclass(frozen=True, eq=False)
class CataloguedPair:
    name: str
    code: QuantumCode
    errors: OperatorEnsemble
    channel_is_superoperator: bool
    correctable: bool


def bit_flip_family(r: int) -> OperatorEnsemble:
    """Identity plus single bit flips on an r-qubit register."""
    base = OperatorEnsemble((np.eye(2, dtype=np.complex128), SIGMA_X.copy()), label="bitflip")
    return e_error_family(base, r, 1)


def phase_error_family(gamma: float, r: int, e: int) -> OperatorEnsemble:
    """Dephasing interactions (plus/minus environment basis) with at most e flips."""
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    return e_error_family(pm, r, e)


def catalogue(gamma: float = 0.1, q: float = 0.25, flip_p: float = 0.3) -> tuple[CataloguedPair, ...]:
    """The shipped examples, spanning pass/fail and channel/non-channel cases."""
    phase3 = repetition_phase_code(3)
    phase5 = repetition_phase_code(5)
    pair = builtin_code("pair")
    trivial2 = builtin_code("trivial(2)")
    pm = build_channel(ChannelSpec("decoherence_pm_basis", {"gamma": gamma}))
    return (
        CataloguedPair(
            "phase3-single-phase-errors", phase3, e_error_family(pm, 3, 1), False, True
        ),
        CataloguedPair(
            "phase3-uniform-phase-flip",
            phase3,
            build_channel(ChannelSpec("uniform_phase_flip", {"p": flip_p, "qubits": 3})),
            True,
            True,
        ),
        CataloguedPair(
            "pair-overlap", pair, build_channel(ChannelSpec("overlap_example", {"q": q})), True, True
        ),
        CataloguedPair("phase3-bit-flips", phase3, bit_flip_family(3), False, False),
        CataloguedPair("pair-two-qubit-dephasing", pair, tensor_power(pm, 2), True, False),
        CataloguedPair(
            "trivial2-identity",
            trivial2,
            OperatorEnsemble((np.eye(2, dtype=np.complex128),), label="identity"),
            True,
            True,
        ),
        CataloguedPair(
            "phase5-double-phase-errors", phase5, e_error_family(pm, 5, 2), False, True
        ),
        CataloguedPair("phase3-full-dephasing", phase3, tensor_power(pm, 3), True, False),
    )
