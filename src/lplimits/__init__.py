"""Limit laws of optimal solutions to randomly perturbed linear programs.

Library layout:

- ``lp_core``: standard-form problems, basis enumeration, degeneracy,
  assumption checks, and the deterministic reference solver.
- ``cones_limit``: stability cones of optimal bases, support partition,
  and evaluation/sampling of the limiting solution fluctuation.
- ``stochastic_harness``: resampling experiments, Hausdorff distances of
  optimality sets, and empirical-vs-limit distribution comparisons.
- ``ot``: the discrete optimal-transport instantiation with its
  uniqueness and nondegeneracy certificates and coupling functionals.
- ``cli``: the ``lp-limitlaw`` command-line entry point.
"""

from .errors import (
    CapExceeded,
    CovarianceNotPSD,
    DimensionMismatch,
    EmptySet,
    EnumerationCapExceeded,
    Infeasible,
    LpLimitsError,
    MissingGroundPoints,
    NoDualFeasibleBasis,
    NoFeasibleCone,
    NonConvergence,
    NotAProbabilityVector,
    NotUnique,
    RankDeficient,
    SingularBasis,
    TooManyInfeasible,
    Unbounded,
)
from .tolerances import DEFAULT_TOLS, Tolerances
from .lp_core import (
    AssumptionReport,
    BasicSolutionPair,
    Basis,
    BasisLedger,
    StandardLp,
    basic_pair,
    check_assumptions,
    enumerate_ledger,
    lp_from_dict,
    make_lp,
    solve_min_index,
)
from .cones_limit import (
    ConeH,
    LimitLawSpec,
    LimitSampleResult,
    SupportPartition,
    TieBreak,
    Verdict,
    build_cones,
    cone_contains,
    evaluate_limit,
    limit_functional,
    optimal_value_limit,
    pushforward_covariance,
    sample_limit,
    support_partition,
)
from .ot import (
    CertificateCheck,
    CertificateReport,
    Coupling,
    DiscreteMeasure,
    OneSample,
    OtProblem,
    TwoSample,
    certify,
    check_dual_summability,
    check_primal_summability,
    check_strict_cyclical_monotonicity,
    check_strict_monge,
    cost_from_points,
    coupling_from_lp_solution,
    coupling_from_matrix,
    geodesic_at,
    make_ot_problem,
    multinomial_covariance,
    northwest_corner,
    ot_from_dict,
    ot_limit_spec,
    otc_curve,
    reduce_to_lp,
    trace_functional,
)
from .stochastic_harness import (
    ComparisonReport,
    ExperimentConfig,
    ExperimentResult,
    FluctuationBatch,
    HausdorffExperiment,
    RepeatedSolver,
    SupportFrequencies,
    UserSamples,
    compare_distributions,
    energy_distance,
    fluctuation_run,
    hausdorff_distance,
    hausdorff_rate_slope,
    hausdorff_run,
    mean_pairwise_norm,
    point_to_polytope,
    resample_rhs,
    run_experiment,
    support_frequencies,
    two_sample_ks,
)

__version__ = "0.1.0"
