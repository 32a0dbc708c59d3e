"""Evaluation configuration shared by the numerical routines."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class EvalConfig:
    """Tolerances and iteration caps for quadrature and inversion.

    rel_tol / abs_tol control quadrature refinement and Newton acceptance,
    max_newton_iters caps the safeguarded inversion of the quarter-period
    integral, and quad_levels caps tanh-sinh refinement depth.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_newton_iters: int = 60
    quad_levels: int = 12

    def __post_init__(self):
        # an infinite tolerance would accept every quadrature estimate
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if self.max_newton_iters < 1:
            raise DomainError(
                f"max_newton_iters must be at least 1, got {self.max_newton_iters}"
            )
        if self.quad_levels < 1:
            raise DomainError(f"quad_levels must be at least 1, got {self.quad_levels}")


DEFAULT_CONFIG = EvalConfig()
