"""Exception taxonomy shared by all modules.

Every failure mode is a distinct class so callers can branch on type
instead of parsing messages or checking sentinel values.
"""


class LpLimitsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LpLimitsError):
    """Input arrays have inconsistent shapes."""


class RankDeficient(LpLimitsError):
    """Constraint matrix does not have full row rank."""


class SingularBasis(LpLimitsError):
    """The selected column submatrix is not invertible at the working tolerance."""


class EnumerationCapExceeded(LpLimitsError):
    """The number of candidate bases exceeds the configured enumeration cap."""


class NoDualFeasibleBasis(LpLimitsError):
    """No basis yields a dual feasible basic solution (unbounded or pathological)."""


class Infeasible(LpLimitsError):
    """The linear program admits no feasible point."""


class Unbounded(LpLimitsError):
    """The linear program is unbounded below."""


class NotUnique(LpLimitsError):
    """The optimal solution is not unique where uniqueness is required."""


class NoFeasibleCone(LpLimitsError):
    """A fluctuation direction lies outside every stability cone."""


class CovarianceNotPSD(LpLimitsError):
    """A covariance matrix is not symmetric positive semidefinite."""


class NotAProbabilityVector(LpLimitsError):
    """A vector is not a probability vector (negative mass or wrong total)."""


class TooManyInfeasible(LpLimitsError):
    """More than half of the resampled replicates were infeasible."""


class EmptySet(LpLimitsError):
    """A vertex list or sample that must be nonempty is empty."""


class NonConvergence(LpLimitsError):
    """An iterative routine exhausted its iteration budget."""


class CapExceeded(LpLimitsError):
    """A combinatorial certificate check exceeds its size cap."""


class MissingGroundPoints(LpLimitsError):
    """An operation requires ground-space coordinates that were not supplied."""
