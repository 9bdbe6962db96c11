"""Monte Carlo comparison of GLS accuracy under the two design criteria.

For rates where a non-collapsing condition-number-optimal design exists,
both that design and the determinant-optimal one are simulated with
independent draws, the regression coefficients are re-estimated by
generalized least squares per replicate, and the mean squared errors are
compared through the relative efficiency

    eff = 100 * mse_K / mse_D  (percent),

where each mse averages the squared coefficient errors over the
parameters and over the replicates.  Values below 100 mean the
condition-number-optimal design estimates more accurately.

Replicates are independent; each design's random stream is derived from
(seed, design content), so simulating a design against itself reproduces
identical draws and an efficiency of exactly 100%.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import CollapsedDesignError, NumericalError, SingularFimError, ValidationError
from .model import (
    Design1D,
    GridDesign2D,
    OuParams,
    SheetParams,
    TrendParams,
    _apply_precision,
    _axes,
    _basis,
    _check_count,
    _precision_bands,
    _require_positive,
    sample_observations,
)
from .search import (
    collapse_interval,
    nine_point_restricted_2d,
    three_point_restricted_1d,
)

__all__ = [
    "McConfig",
    "EffReport",
    "EffCurvePoint",
    "gls_estimate",
    "run_efficiency_1d",
    "run_efficiency_2d",
    "efficiency_curve",
]

# A collapsed grid optimum only blocks the efficiency comparison when the
# boundary actually wins by a detectable amount.  On the flat criterion
# surfaces at small rates the boundary's edge is ~1e-8 relative, invisible
# to any practical optimizer; the merged design is simulated instead.
MATERIAL_COLLAPSE_RTOL = 1e-6


@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    ``sigma`` is the noise scale of the simulated driving process (the
    design optimizations themselves are scale-free).  ``design_pair``
    optionally overrides the (K-optimal, D-optimal) designs instead of
    searching for them.  The simulated trend has all-ones coefficients:
    the GLS estimation error does not depend on the trend.
    """

    replicates: int = 10_000
    seed: int = 0
    sigma: float = 0.25
    design_pair: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "replicates", _check_count("replicates", self.replicates, 1))
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma))


@dataclass(frozen=True)
class EffReport:
    """Mean squared errors of the two designs and their efficiency ratio.

    ``mc_standard_error`` is the Monte Carlo standard error of
    ``eff_percent`` (delta method over the two independent means)."""

    mse_k: float
    mse_d: float
    eff_percent: float
    mc_standard_error: float


@dataclass(frozen=True)
class EffCurvePoint:
    beta: float
    mse_k: float
    mse_d: float
    eff_percent: float
    mc_standard_error: float
    collapsed: bool


def gls_estimate(observations, design, params):
    """Generalized least squares estimate of the trend coefficients.

    The tridiagonal inverse correlation of each axis is applied to the
    basis rows (in 2D along both axes of the grid, which is the Kronecker
    product of the axis inverses without forming it); any common scale
    of the covariance cancels, so the correlation suffices.  The normal
    equations are solved once against the weighted basis, and all
    replicates are estimated in one matrix product.  ``observations`` may
    be a single vector or a ``(replicates, n_points)`` matrix; estimates
    come back with matching leading shape.
    """
    y = np.asarray(observations, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    axes = _axes(params, design)
    weighted = basis = _basis(design)
    for axis, (rate, axis_design) in enumerate(axes, start=1):
        weighted = _apply_precision(_precision_bands(rate, axis_design), weighted, axis)
    basis, weighted = basis.reshape(len(basis), -1), weighted.reshape(len(basis), -1)
    if y.shape[1] != basis.shape[1]:
        raise ValidationError(
            f"observations have {y.shape[1]} columns, design has {basis.shape[1]} points"
        )
    fim = weighted @ basis.T
    try:
        gls_map = np.linalg.solve(fim, weighted)
    except np.linalg.LinAlgError as exc:
        raise SingularFimError(f"design yields a singular information matrix: {exc}") from exc
    est = y @ gls_map.T
    return est[0] if single else est


def _design_stream(seed: int, design) -> np.random.SeedSequence:
    """Seed sequence keyed by the design's content, so equal designs get
    equal draws and distinct designs get independent streams."""
    key = (f"{len(design.axes)}d",) + tuple(axis.points for axis in design.axes)
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return np.random.SeedSequence(entropy=(int(seed), int.from_bytes(digest, "big")))


def _simulated_mse(params, design, trend, replicates, seed):
    y = sample_observations(params, design, trend, replicates, _design_stream(seed, design))
    est = gls_estimate(y, design, params)
    sq = (est - trend.coefficients()[None, :]) ** 2
    per_replicate = sq.mean(axis=1)
    mse = float(per_replicate.mean())
    if not mse > 0.0:
        raise NumericalError(
            f"simulated MSE is {mse:g}: noise of standard deviation "
            f"{math.sqrt(params.stationary_variance):.3g} vanishes against the trend "
            "in double precision"
        )
    se = float(per_replicate.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else float("nan")
    return mse, se


def _efficiency(params, k_design, d_design, config: McConfig) -> EffReport:
    """Simulate both designs at the configured noise scale, with all-ones
    trend coefficients, and compare their MSEs."""
    sim_params = replace(params, sigma=config.sigma)
    trend = TrendParams(*[1.0] * (1 + len(_axes(sim_params, k_design))))
    mse_k, se_k = _simulated_mse(sim_params, k_design, trend, config.replicates, config.seed)
    mse_d, se_d = _simulated_mse(sim_params, d_design, trend, config.replicates, config.seed)
    eff = 100.0 * mse_k / mse_d
    se = eff * math.sqrt((se_k / mse_k) ** 2 + (se_d / mse_d) ** 2)
    return EffReport(mse_k=mse_k, mse_d=mse_d, eff_percent=eff, mc_standard_error=se)


def run_efficiency_1d(params: OuParams, config: McConfig) -> EffReport:
    """Relative efficiency of the three-point restricted K-optimal design
    against the equidistant D-optimal one, both on {0, ., 1}.

    Raises :class:`CollapsedDesignError` for rates inside the collapse
    interval, where no non-collapsing K-optimal design exists.
    """
    if config.design_pair is not None:
        k_design, d_design = config.design_pair
    else:
        interval = collapse_interval()
        if interval.contains(params.beta):
            raise CollapsedDesignError(
                f"rate {params.beta:g} lies inside the collapse interval "
                f"[{interval.lower:.4f}, {interval.upper:.4f}]"
            )
        k_design = Design1D((0.0, three_point_restricted_1d(params, "K").argopt, 1.0))
        d_design = Design1D((0.0, 0.5, 1.0))
    return _efficiency(params, k_design, d_design, config)


def run_efficiency_2d(params: SheetParams, config: McConfig) -> EffReport:
    """Relative efficiency of the nine-point restricted K-optimal grid
    against the directionally equidistant D-optimal one on the unit
    square.  Raises :class:`CollapsedDesignError` inside the collapse
    region of the rate plane."""
    if config.design_pair is not None:
        k_design, d_design = config.design_pair
    else:
        k_res = nine_point_restricted_2d(params, "K")
        if k_res.collapsed and (k_res.boundary_margin or 0.0) > MATERIAL_COLLAPSE_RTOL:
            raise CollapsedDesignError(
                f"K-optimal nine-point design collapsed at rates "
                f"({params.beta:g}, {params.gamma:g}) "
                f"(boundary improves the criterion by {k_res.boundary_margin:.2e} relative)"
            )
        # An immaterial boundary optimum (flat criterion surface, boundary
        # better by under MATERIAL_COLLAPSE_RTOL relative) still defines a
        # valid merged design: a collapsed coordinate drops its middle line.
        d_opt, delta_opt = k_res.argopt
        cx, cy = k_res.collapsed_axes
        s_pts = (0.0, 1.0) if cx else (0.0, d_opt, 1.0)
        t_pts = (0.0, 1.0) if cy else (0.0, delta_opt, 1.0)
        k_design = GridDesign2D(Design1D(s_pts), Design1D(t_pts))
        d_design = GridDesign2D(Design1D((0.0, 0.5, 1.0)), Design1D((0.0, 0.5, 1.0)))
    return _efficiency(params, k_design, d_design, config)


def efficiency_curve(betas, config: McConfig) -> list[EffCurvePoint]:
    """Efficiency sweep over 1D rates; rates inside the collapse interval
    are skipped and marked rather than simulated."""
    rows = []
    for b in betas:
        params = OuParams(float(b))
        try:
            rep = run_efficiency_1d(params, config)
        except CollapsedDesignError:
            rows.append(
                EffCurvePoint(float(b), math.nan, math.nan, math.nan, math.nan, True)
            )
            continue
        rows.append(
            EffCurvePoint(
                float(b),
                rep.mse_k,
                rep.mse_d,
                rep.eff_percent,
                rep.mc_standard_error,
                False,
            )
        )
    return rows
