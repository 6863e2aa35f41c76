"""Tolerance and optimizer configuration objects."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances threaded explicitly through the library.

    rank: relative cutoff deciding when a vector adds a new direction
        during orthonormalization (relative to the largest norm in a batch).
    check: residual threshold for hermiticity, unitarity and completeness
        checks.
    norm: threshold for state normalization and code orthonormality.
    entropy_floor: eigenvalues below this contribute zero entropy
        (the 0*log(0) = 0 convention).
    """

    rank: float = 1e-10
    check: float = 1e-9
    norm: float = 1e-9
    entropy_floor: float = 1e-14


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class FidelityConfig:
    """Settings for the worst-case fidelity optimizers.

    Worst cases over codes of dimension 1 and 2 and the entangled-state
    minimum are exact (or certified by a reported gap) and read neither
    field. Larger codes' pure-state worst cases use ``restarts``
    projected-gradient descents from random starts drawn with ``seed``.
    """

    restarts: int = 32
    seed: int = 0


DEFAULT_FIDELITY = FidelityConfig()
