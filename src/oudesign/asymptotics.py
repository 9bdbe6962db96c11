"""Doubling ratios of the design criteria and their limits.

Two regimes for equidistant designs on a fixed interval (or grid):

* infill: double the number of partition intervals at fixed domain; both
  criteria's ratios tend to one, so past a dense enough partition extra
  points stop paying;
* increasing domain: keep the partition density and double the domain.
  The determinant ratio tends to an explicit rational limit in the rate
  (per axis in 2D), the 1D condition-number ratio to an explicit
  algebraic one.  The 2D condition-number limits have no feasible closed
  form; they are estimated numerically from a doubling sequence with
  Richardson extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .fim import FimEntries2D, _check_equidistant_args, _equidistant_entries
from .fim import fim_entries_equidistant_1d
from .model import OuParams, SheetParams, _check_count
from .objectives import (
    _cond3_from_entries,
    _require_positive_definite,
    d_objective_1d,
    d_objective_2d,
    k_objective_1d,
)

__all__ = [
    "DoublingReport",
    "CondLimitCell",
    "domain_doubling_limit_d",
    "domain_doubling_limit_k",
    "domain_doubling_limit_d_axis",
    "doubling_ratio_1d",
    "doubling_ratio_2d",
    "cond_limit_surface_2d",
    "det_decomposition_factor",
]

MODES_1D = ("infill", "domain")
MODES_2D = ("infill-both", "infill-one", "domain-both", "domain-one")
# Grid sizes n = m of the doubling sequence behind each limit-surface cell,
# and the error estimate up to which a cell counts as converged.
SURFACE_N_SEQUENCE = (25, 50, 100, 200, 400)
SURFACE_TOL = 1e-3


def _check_rate(beta: float) -> float:
    b = float(beta)
    if not (math.isfinite(b) and b > 0.0):
        raise ValidationError(f"rate must be positive, got {beta!r}")
    return b


def _rate_pair(beta: float) -> tuple[float, float]:
    """(b, 1) divided by max(1, b).  The closed forms below are ratios of
    homogeneous polynomials in this pair, so they are evaluated as written
    for rates up to 1 and normalized by their leading power of b above,
    where b**4 would overflow from about 1e77."""
    b = _check_rate(beta)
    s = max(1.0, b)
    return b / s, 1.0 / s


def domain_doubling_limit_d(beta: float) -> float:
    """Limit of the determinant ratio when the observation window doubles
    at fixed spacing: 16(b+1)(b^2+3b+3) / ((b+2)(b^2+6b+12)).

    Strictly increasing from 2 (small rates) to 16 (large rates)."""
    b, y = _rate_pair(beta)
    return 16.0 * (b + y) * (b * b + 3.0 * b * y + 3.0 * y * y) / (
        (b + 2.0 * y) * (b * b + 6.0 * b * y + 12.0 * y * y)
    )


def domain_doubling_limit_k(beta: float) -> float:
    """Limit of the condition-number ratio under window doubling.

    Tends to 2 for small rates, peaks at 2.3454 near rate 0.2730, then
    decreases to (7 + sqrt(37))^2 / (8 + 2*sqrt(13))^2 ~ 0.7397."""
    b, y = _rate_pair(beta)
    y2 = y * y
    num = (
        (b + 2.0 * y)
        * (b * b + 6.0 * b * y + 12.0 * y2)
        * (7.0 * b * b + 9.0 * b * y + 3.0 * y2 + math.sqrt(
            37.0 * b**4 + 78.0 * b**3 * y + 51.0 * b * b * y2 + 18.0 * b * y2 * y + 9.0 * y2 * y2)) ** 2
    )
    den = (
        4.0
        * (b + y)
        * (b * b + 3.0 * b * y + 3.0 * y2)
        * (4.0 * b * b + 9.0 * b * y + 3.0 * y2 + math.sqrt(
            13.0 * b**4 + 48.0 * b**3 * y + 33.0 * b * b * y2 - 18.0 * b * y2 * y + 9.0 * y2 * y2)) ** 2
    )
    return num / den


def domain_doubling_limit_d_axis(beta: float) -> float:
    """Per-axis determinant-ratio limit for grid designs when one
    coordinate direction's window doubles: 2(b+1)/(b+2) times the 1D
    limit.  Increases from 2 to 32."""
    b, y = _rate_pair(beta)
    return 2.0 * (b + y) / (b + 2.0 * y) * domain_doubling_limit_d(beta)


@dataclass(frozen=True)
class DoublingReport:
    """Criterion values ratio between a doubled design and its base.

    ``limit_det``/``limit_cond`` carry the closed-form limits when one
    exists for the mode (None otherwise)."""

    mode: str
    n: int
    m: int | None
    ratio_det: float
    ratio_cond: float
    limit_det: float | None
    limit_cond: float | None


def doubling_ratio_1d(params: OuParams, n: int, mode: str) -> DoublingReport:
    """Criterion ratios for the equidistant partition {0, 1/n, ..., 1}
    against its refinement (infill) or its window-doubled extension
    {0, 1/n, ..., 2} (domain)."""
    n = _check_count("n", n, 2)
    if mode not in MODES_1D:
        raise ValidationError(f"mode must be one of {MODES_1D}, got {mode!r}")
    base = fim_entries_equidistant_1d(params, 1.0 / n, n + 1)
    if mode == "infill":
        other = fim_entries_equidistant_1d(params, 0.5 / n, 2 * n + 1)
        limits = (1.0, 1.0)
    else:
        other = fim_entries_equidistant_1d(params, 1.0 / n, 2 * n + 1)
        limits = (
            domain_doubling_limit_d(params.beta),
            domain_doubling_limit_k(params.beta),
        )
    return DoublingReport(
        mode=mode,
        n=n,
        m=None,
        ratio_det=d_objective_1d(other) / d_objective_1d(base),
        ratio_cond=k_objective_1d(other) / k_objective_1d(base),
        limit_det=limits[0],
        limit_cond=limits[1],
    )


def doubling_ratio_2d(params: SheetParams, n: int, m: int, mode: str) -> DoublingReport:
    """Criterion ratios for the grid partition {i/n} x {j/m} of the unit
    square against its refined or window-doubled variants.

    "one" modes double only the first coordinate direction.  Determinant
    limits are closed-form in every mode; condition-number limits only in
    the infill modes (the domain ones are numeric, see
    :func:`cond_limit_surface_2d`)."""
    n = _check_count("n", n, 2)
    m = _check_count("m", m, 2)
    if mode not in MODES_2D:
        raise ValidationError(f"mode must be one of {MODES_2D}, got {mode!r}")
    if mode.startswith("infill"):
        limits = (1.0, 1.0)
    else:
        limit_det = domain_doubling_limit_d_axis(params.beta)
        if mode == "domain-both":
            limit_det *= domain_doubling_limit_d_axis(params.gamma)
        limits = (limit_det, None)
    ratio_det, ratio_cond = _grid_doubling_ratios(params.beta, params.gamma, n, m, mode)
    return DoublingReport(
        mode=mode,
        n=n,
        m=m,
        ratio_det=float(ratio_det),
        ratio_cond=float(ratio_cond),
        limit_det=limits[0],
        limit_cond=limits[1],
    )


def _grid_doubling_ratios(beta, gamma, n, m, mode):
    """Determinant and condition-number ratios of the doubled grid over
    the partition {i/n} x {j/m}; broadcasts over rates and sizes."""

    def criteria(s_step, s_points, t_step, t_points):
        _check_equidistant_args(beta, s_step, s_points)
        _check_equidistant_args(gamma, t_step, t_points)
        entries = FimEntries2D(
            _equidistant_entries(beta, s_step, s_points),
            _equidistant_entries(gamma, t_step, t_points),
        )
        return d_objective_2d(entries), _require_positive_definite(*_cond3_from_entries(entries))

    h = 0.5 if mode.startswith("infill") else 1.0
    t_other = (h / m, 2 * m + 1) if mode.endswith("both") else (1.0 / m, m + 1)
    det_base, k_base = criteria(1.0 / n, n + 1, 1.0 / m, m + 1)
    det_other, k_other = criteria(h / n, 2 * n + 1, *t_other)
    return det_other / det_base, k_other / k_base


@dataclass(frozen=True)
class CondLimitCell:
    """Numeric estimate of the 2D condition-number doubling limit at one
    rate pair, with the extrapolation error estimate."""

    beta: float
    gamma: float
    estimate: float
    error_estimate: float
    converged: bool


def cond_limit_surface_2d(betas, gammas, mode: str = "both") -> list[CondLimitCell]:
    """Numeric limit surface of the condition-number doubling ratio.

    For each rate pair, the ratio is evaluated along the doubling
    sequence SURFACE_N_SEQUENCE (n = m) and Richardson-extrapolated assuming
    first-order convergence in 1/n; the error estimate is the difference
    of the last two extrapolants, and ``converged`` flags whether it
    meets SURFACE_TOL.  ``mode`` "both" doubles the window in both coordinate
    directions, "one" only in the first.
    """
    if mode not in ("both", "one"):
        raise ValidationError(f"mode must be 'both' or 'one', got {mode!r}")
    betas = [_check_rate(b) for b in betas]
    gammas = [_check_rate(g) for g in gammas]
    ks = np.array(SURFACE_N_SEQUENCE)
    _, ratios = _grid_doubling_ratios(
        np.array(betas)[:, None, None], np.array(gammas)[None, :, None], ks, ks, "domain-" + mode
    )
    extrapolants = 2.0 * ratios[..., 1:] - ratios[..., :-1]
    estimates = extrapolants[..., -1]
    errors = np.abs(estimates - extrapolants[..., -2])
    return [
        CondLimitCell(b, g, float(estimates[i, j]), float(errors[i, j]),
                      bool(errors[i, j] <= SURFACE_TOL))
        for i, b in enumerate(betas)
        for j, g in enumerate(gammas)
    ]


def det_decomposition_factor(which: str, n: int, x: float) -> float:
    """Factor functions of the equidistant determinant decomposition
    det = J * (n-1)/beta^2 * F evaluated at the scaled step x = beta*d.

    "J" is the intercept-information factor (at least 1, increasing),
    "F" the slope-scale factor (nonnegative, increasing), and "G" the
    ratio F_n / F_3 used to reduce monotonicity for general n to the
    three-point case.  All are kept stable in p = exp(-x).
    """
    n = _check_count("n", n, 2)
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValidationError(f"x must be positive, got {x!r}")
    p = math.exp(-x)
    one_minus_p = -math.expm1(-x)
    a = n * (n + 1) / 12.0
    b = (n + 1) / 2.0
    if which == "J":
        return (n + (2.0 - n) * p) / (1.0 + p)
    if which == "F":
        one_minus_p2 = -math.expm1(-2.0 * x)
        return x * x * (
            a * one_minus_p / (1.0 + p) + b * p / (1.0 + p) + p * p / one_minus_p2
        )
    if which == "G":
        return a * one_minus_p**2 + b * p * one_minus_p + p * p
    raise ValidationError(f"which must be 'J', 'F' or 'G', got {which!r}")
