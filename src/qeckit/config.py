"""Tolerance configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances, the one way a tolerance enters a constructor or check.

    ``--tol``/``QEC_TOL`` set ``check`` for a CLI command. Fields must be finite and positive.

    rank: relative cutoff deciding when a vector adds a new direction
        during orthonormalization (relative to the largest norm in a batch).
    check: residual threshold for hermiticity, unitarity and completeness
        checks, and for the verdicts of the correctability routes.
    norm: threshold for state normalization, code orthonormality and code
        membership.
    entropy_floor: eigenvalues below this contribute zero entropy
        (the 0*log(0) = 0 convention).
    """

    rank: float = 1e-10
    check: float = 1e-9
    norm: float = 1e-9
    entropy_floor: float = 1e-14

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {f.name} must be finite and positive, got {value}")


DEFAULT_TOL = ToleranceConfig()

