"""Numerical tolerances used across the package.

All comparisons against zero go through a single configurable bundle so
that experiments can tighten or relax the arithmetic uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle for double-precision dense linear algebra.

    rank_tol      singularity threshold: a basis B is singular when
                  ||B||_1 ||B^-1||_1 rank_tol is not below 1; also the
                  relative QR pivot threshold of make_lp's rank check
    feas_tol      absolute slack allowed on nonnegativity constraints
    dedup_tol     max-norm threshold for identifying two basic solutions
    boundary_tol  half-width of the band classified as a cone boundary
    sum_tol       relative strictness margin for subset-sum and cycle-sum
                  equality tests, scaled by 1 + total magnitude
    """

    rank_tol: float = 1e-10
    feas_tol: float = 1e-9
    dedup_tol: float = 1e-8
    boundary_tol: float = 1e-9
    sum_tol: float = 1e-9

    def sum_tol_at(self, magnitude: float) -> float:
        return self.sum_tol * (1.0 + abs(magnitude))

    def with_(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLS = Tolerances()
