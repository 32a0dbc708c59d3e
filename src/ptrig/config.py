"""Evaluation configuration shared by the numerical routines."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class EvalConfig:
    """The one accuracy target of the numerical routines.

    rel_tol sets tanh-sinh refinement and Newton acceptance in core and
    bounds the error estimates of the panel quadratures in fourier and
    basis_operator.  The absolute tolerance and the iteration caps are
    constants of core.
    """

    rel_tol: float = 1e-12

    def __post_init__(self):
        # an infinite tolerance would accept every quadrature estimate
        if not 0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")


DEFAULT_CONFIG = EvalConfig()
