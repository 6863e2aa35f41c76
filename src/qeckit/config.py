"""Tolerance configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """The one numerical tolerance, the one way a tolerance enters a constructor or check.

    ``check`` is the residual threshold for every input validation and every
    verdict: state normalization and trace, hermiticity and positivity, code
    orthonormality and membership, completeness and unitarity, and the
    correctability routes. ``--tol``/``QEC_TOL`` set it for a CLI command. It
    must be finite and positive.
    """

    check: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.check) and self.check > 0):
            raise ValueError(f"tolerance check must be finite and positive, got {self.check}")


DEFAULT_TOL = ToleranceConfig()
