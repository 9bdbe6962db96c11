"""Monte Carlo comparison of GLS accuracy under the two design criteria.

For rates where a non-collapsing condition-number-optimal design exists,
both that design and the determinant-optimal one are simulated with
independent draws.  Each replicate's generalized least squares error
is drawn directly, kept one row per coefficient, around a trend that is
the constant 1 (the error does not depend on the trend).  The mean
squared errors are compared through the relative efficiency

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
    _axes,
    _basis,
    _check_count,
    _noise_sd,
    _rates,
    _require_positive,
    _whiten,
)
from .search import collapse_interval, nine_point_restricted_2d, three_point_restricted_1d

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
    design optimizations themselves are scale-free); it replaces the
    params' own ``sigma``, which the simulation ignores.  ``design_pair``
    optionally overrides the (K-optimal, D-optimal) designs instead of
    searching for them.  The simulated trend is the constant 1: the GLS
    estimation error does not depend on the trend.
    """

    replicates: int = 10_000
    seed: int = 0
    sigma: float = 0.25
    design_pair: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "replicates", _check_count("replicates", self.replicates, 1))
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma))
        pair = self.design_pair
        if pair is not None and not (
            isinstance(pair, (tuple, list)) and len(pair) == 2
            and any(all(isinstance(d, kind) for d in pair) for kind in (Design1D, GridDesign2D))
        ):
            raise ValidationError(
                "design_pair must be None or a (K, D) pair of two Design1D or two GridDesign2D"
            )


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


def _whitened(params, design, v):
    """Rows of ``v`` (values at the design points) whitened along each
    axis, as a ``(rows, n_points)`` matrix; in 2D this applies the
    Kronecker product of the axis factors without forming it."""
    axes = _axes(params, design)
    v = v.reshape((len(v),) + tuple(axis_design.n for _, axis_design in axes))
    for axis, (rate, axis_design) in enumerate(axes, start=1):
        v = _whiten(rate, axis_design, v, axis)
    return v.reshape(len(v), -1)


def _gls_map(params, design):
    """GLS map ``G = (W W^T)^{-1} W``, with ``W`` the whitened trend basis:
    GLS is least squares on whitened data (the correlation suffices, as
    any common scale of the covariance cancels)."""
    basis = _whitened(params, design, _basis(design))
    try:
        return np.linalg.solve(basis @ basis.T, basis)
    except np.linalg.LinAlgError as exc:
        raise SingularFimError(f"design yields a singular information matrix: {exc}") from exc


def gls_estimate(observations, design, params):
    """Generalized least squares estimate of the trend coefficients.

    Whitened observations go through :func:`_gls_map` in one matrix
    product.  ``observations`` may be a single vector or a ``(replicates,
    n_points)`` matrix; estimates come back with matching leading shape.
    """
    y = np.asarray(observations, dtype=float)
    gls_map = _gls_map(params, design)
    if y.shape[-1] != gls_map.shape[1]:
        raise ValidationError(
            f"observations have {y.shape[-1]} columns, design has {gls_map.shape[1]} points"
        )
    est = _whitened(params, design, np.atleast_2d(y)) @ gls_map.T
    return est[0] if y.ndim == 1 else est


def _design_stream(seed: int, design) -> np.random.SeedSequence:
    """Seed sequence keyed by the design's content, so equal designs get
    equal draws and distinct designs get independent streams."""
    key = (f"{len(design.axes)}d",) + tuple(axis.points for axis in design.axes)
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return np.random.SeedSequence(entropy=(int(seed), int.from_bytes(digest, "big")))


def _simulated_mse(params, design, replicates, seed):
    """GLS mean squared error over ``replicates`` draws, and its MC SE.

    Whitened observations are the sampler's standard normals ``z`` (drawn
    here from the stream the sampler would use), so the estimation errors
    are ``sqrt(stationary_variance) * z @ G.T``, kept one row per
    coefficient so that every later pass runs along contiguous memory.
    Adding and removing the trend, the constant 1, keeps its rounding:
    noise lost against the trend gives 0.
    """
    gls_map = _gls_map(params, design)
    sd = _noise_sd(params)
    rng = np.random.Generator(np.random.Philox(_design_stream(seed, design)))
    err = np.ascontiguousarray((rng.standard_normal((replicates, gls_map.shape[1])) @ gls_map.T).T)
    err *= sd
    err += 1.0
    err -= 1.0
    per_replicate = np.square(err, out=err).mean(axis=0)
    mse = float(per_replicate.mean())
    if not 0.0 < mse < math.inf:
        fate = "vanishes against the trend" if mse == 0.0 else "overflows when squared"
        raise NumericalError(
            f"simulated MSE is {mse:g}: noise of standard deviation {sd:.3g} {fate} "
            "in double precision"
        )
    if replicates == 1:
        return mse, float("nan")
    with np.errstate(over="ignore"):  # squared deviations overflow from an MSE of about 1e154
        spread = per_replicate.std(ddof=1)
        if not np.isfinite(spread):
            spread = mse * (per_replicate / mse).std(ddof=1)
    return mse, float(spread / math.sqrt(replicates))


def _efficiency(params, design_pair, config: McConfig) -> EffReport:
    """Simulate the (K, D) design pair at the configured noise scale and
    compare their MSEs."""
    sim_params = replace(params, sigma=config.sigma)
    k_design, d_design = design_pair
    mse_k, se_k = _simulated_mse(sim_params, k_design, config.replicates, config.seed)
    mse_d, se_d = _simulated_mse(sim_params, d_design, config.replicates, config.seed)
    eff = 100.0 * (mse_k / mse_d)
    se = eff * math.sqrt((se_k / mse_k) ** 2 + (se_d / mse_d) ** 2)
    return EffReport(mse_k=mse_k, mse_d=mse_d, eff_percent=eff, mc_standard_error=se)


def run_efficiency_1d(params: OuParams, config: McConfig) -> EffReport:
    """Relative efficiency of the three-point restricted K-optimal design
    against the equidistant D-optimal one, both on {0, ., 1}, simulated
    at ``config.sigma`` (not ``params.sigma``).

    Raises :class:`CollapsedDesignError` where the K search reports a
    collapse: for rates inside the collapse interval, where no
    non-collapsing K-optimal design exists.
    """
    (beta,) = _rates(params, OuParams)
    pair = config.design_pair
    if pair is None:
        k_res = three_point_restricted_1d(params, "K")
        if k_res.collapsed:
            interval = collapse_interval()
            raise CollapsedDesignError(
                f"rate {beta:g} lies inside the collapse interval "
                f"[{interval.lower:.4f}, {interval.upper:.4f}]"
            )
        pair = Design1D((0.0, k_res.argopt, 1.0)), Design1D((0.0, 0.5, 1.0))
    return _efficiency(params, pair, config)


def run_efficiency_2d(params: SheetParams, config: McConfig) -> EffReport:
    """Relative efficiency of the nine-point restricted K-optimal grid
    against the directionally equidistant D-optimal one on the unit
    square, simulated at ``config.sigma`` (not ``params.sigma``).  Raises
    :class:`CollapsedDesignError` inside the collapse region of the rate
    plane."""
    beta, gamma = _rates(params, SheetParams)
    pair = config.design_pair
    if pair is None:
        k_res = nine_point_restricted_2d(params, "K")
        if k_res.collapsed and k_res.boundary_margin > MATERIAL_COLLAPSE_RTOL:
            raise CollapsedDesignError(
                f"K-optimal nine-point design collapsed at rates "
                f"({beta:g}, {gamma:g}) "
                f"(boundary improves the criterion by {k_res.boundary_margin:.2e} relative)"
            )
        # An immaterial boundary optimum (flat criterion surface, boundary
        # better by under MATERIAL_COLLAPSE_RTOL relative) still defines a
        # valid merged design: a collapsed coordinate drops its middle line.
        k_axes = [Design1D((0.0, 1.0) if collapsed else (0.0, x, 1.0))
                  for x, collapsed in zip(k_res.argopt, k_res.collapsed_axes)]
        center = Design1D((0.0, 0.5, 1.0))
        pair = GridDesign2D(*k_axes), GridDesign2D(center, center)
    return _efficiency(params, pair, config)


def efficiency_curve(betas, config: McConfig) -> list[EffCurvePoint]:
    """Efficiency sweep over 1D rates; rates inside the collapse interval
    are skipped and marked rather than simulated."""
    rows = []
    for b in map(float, betas):
        try:
            rep, collapsed = run_efficiency_1d(OuParams(b), config), False
        except CollapsedDesignError:
            rep, collapsed = EffReport(math.nan, math.nan, math.nan, math.nan), True
        rows.append(EffCurvePoint(b, **vars(rep), collapsed=collapsed))
    return rows
