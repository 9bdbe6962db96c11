"""Optimal sampling designs for linear regression driven by
Ornstein-Uhlenbeck processes (1D) and sheets (2D).

The library computes exact Fisher information matrices for the
linear-trend models, evaluates and optimizes the determinant and
condition-number design criteria over restricted and equidistant design
families, derives the asymptotic ratios of the criteria when designs are
refined or have their windows doubled, and reproduces the Monte Carlo
efficiency comparison of the two criteria through generalized least
squares simulation.
"""

from .asymptotics import (
    CondLimitCell,
    DoublingReport,
    cond_limit_surface_2d,
    det_decomposition_factor,
    domain_doubling_limit_d,
    domain_doubling_limit_d_axis,
    domain_doubling_limit_k,
    doubling_ratio_1d,
    doubling_ratio_2d,
)
from .exceptions import (
    CollapsedDesignError,
    NearSingularDesignError,
    NotPositiveDefiniteError,
    NumericalError,
    SingularFimError,
    ValidationError,
)
from .fim import (
    FimEntries1D,
    FimEntries2D,
    fim_1d,
    fim_2d,
    fim_entries_1d,
    fim_entries_2d,
    fim_entries_equidistant_1d,
    fim_entries_equidistant_2d,
    fim_equidistant_1d,
    fim_equidistant_2d,
)
from .mc import (
    EffCurvePoint,
    EffReport,
    McConfig,
    efficiency_curve,
    gls_estimate,
    run_efficiency_1d,
    run_efficiency_2d,
)
from .model import (
    Design1D,
    GridDesign2D,
    OuParams,
    SheetParams,
    TrendParams,
    correlation_matrix_1d,
    correlation_matrix_2d,
    inv_correlation_matrix_1d,
    inv_correlation_matrix_2d,
    sample_observations,
)
from .objectives import (
    Eigen3Closed,
    ObjectiveEval,
    condition_from_surrogate,
    d_objective_1d,
    d_objective_2d,
    eigen3_closed,
    evaluate_design_1d,
    evaluate_design_2d,
    k_objective_1d,
    k_objective_2d,
    r_objective_1d,
)
from .search import (
    CollapseInterval,
    KoptCurvePoint1D,
    KoptSurfacePoint2D,
    SearchResult,
    collapse_equation,
    collapse_interval,
    equidistant_d_monotone_check,
    equidistant_k_optimal_1d,
    four_point_grid_k_optimal,
    kopt_curve_1d,
    kopt_surface_2d,
    nine_point_restricted_2d,
    three_point_limit_objective,
    three_point_restricted_1d,
    two_point_k_optimal,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "OuParams",
    "SheetParams",
    "Design1D",
    "GridDesign2D",
    "TrendParams",
    "correlation_matrix_1d",
    "inv_correlation_matrix_1d",
    "correlation_matrix_2d",
    "inv_correlation_matrix_2d",
    "sample_observations",
    # fim
    "FimEntries1D",
    "FimEntries2D",
    "fim_entries_1d",
    "fim_entries_equidistant_1d",
    "fim_1d",
    "fim_equidistant_1d",
    "fim_entries_2d",
    "fim_entries_equidistant_2d",
    "fim_2d",
    "fim_equidistant_2d",
    # objectives
    "ObjectiveEval",
    "Eigen3Closed",
    "d_objective_1d",
    "r_objective_1d",
    "k_objective_1d",
    "condition_from_surrogate",
    "eigen3_closed",
    "k_objective_2d",
    "d_objective_2d",
    "evaluate_design_1d",
    "evaluate_design_2d",
    # search
    "SearchResult",
    "CollapseInterval",
    "collapse_equation",
    "collapse_interval",
    "three_point_restricted_1d",
    "three_point_limit_objective",
    "two_point_k_optimal",
    "equidistant_k_optimal_1d",
    "equidistant_d_monotone_check",
    "nine_point_restricted_2d",
    "four_point_grid_k_optimal",
    "KoptCurvePoint1D",
    "KoptSurfacePoint2D",
    "kopt_curve_1d",
    "kopt_surface_2d",
    # asymptotics
    "DoublingReport",
    "CondLimitCell",
    "domain_doubling_limit_d",
    "domain_doubling_limit_k",
    "domain_doubling_limit_d_axis",
    "doubling_ratio_1d",
    "doubling_ratio_2d",
    "cond_limit_surface_2d",
    "det_decomposition_factor",
    # mc
    "McConfig",
    "EffReport",
    "EffCurvePoint",
    "gls_estimate",
    "run_efficiency_1d",
    "run_efficiency_2d",
    "efficiency_curve",
    # exceptions
    "ValidationError",
    "CollapsedDesignError",
    "NumericalError",
    "NearSingularDesignError",
    "SingularFimError",
    "NotPositiveDefiniteError",
]
