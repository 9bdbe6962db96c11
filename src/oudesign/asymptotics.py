"""Doubling ratios of the design criteria and their limits.

Two regimes for equidistant designs on a fixed interval (or grid):

* infill: double the number of partition intervals at fixed domain; both
  criteria's ratios tend to one, so past a dense enough partition extra
  points stop paying;
* increasing domain: keep the partition density and double the domain.
  Each ratio tends to the ratio of the same criterion under continuous
  observation of the two windows, whose information entries are
  polynomial in the window and the rate (Parzen 1961): a rational limit
  for the determinant, an algebraic one for the 1D condition number,
  and the 3x3 kernel's value for the grid's.  The limit surfaces still
  report a Richardson extrapolant of finite grids, with its distance
  from the exact limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .fim import FimEntries1D, FimEntries2D, _check_equidistant_args, _equidistant_entries
from .fim import fim_entries_equidistant_1d
from .model import OuParams, SheetParams, _check_count, _rates, _require_positive
from .objectives import d_objective_1d, d_objective_2d, k_objective_1d, k_objective_2d

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
# Grid sizes n = m whose ratios a limit-surface cell extrapolates, and the
# distance from the exact limit up to which the cell counts as converged.
SURFACE_N_SEQUENCE = (200, 400)
SURFACE_TOL = 1e-3


def _window_entries(rate, T) -> FimEntries1D:
    """Entries of continuously observing [0, T] (Parzen 1961):
    l1 = 1 + bT/2, l2 = T/2 + bT^2/4 and l3 = T^2/2 + T/(2b) + bT^3/6,
    each times b/max(1, b)^2, a factor that cancels in every ratio below
    and keeps each entry finite and normal for rates from 1e-300 to the
    largest double; broadcasts over rates."""
    s = rate * (rate > 1.0) + (rate <= 1.0)  # max(1, rate), exactly, for floats and arrays
    b, y = rate / s, 1.0 / s
    l1 = b * (y + 0.5 * T * b)
    return FimEntries1D(l1, 0.5 * T * l1, T * (0.5 * T * b * y + 0.5 * y * y + T * T * b * b / 6.0))


def _window_doubling_ratio(beta: float, criterion) -> float:
    """A criterion's ratio between the windows [0, 2] and [0, 1].  Rates
    below 1e-300, where the window entries stop being normal, count as
    1e-300: every ratio is 2 + O(rate), exactly 2.0 in double long before."""
    rate = max(_require_positive("rate", beta), 1e-300)
    return float(criterion(_window_entries(rate, 2.0)) / criterion(_window_entries(rate, 1.0)))


def domain_doubling_limit_d(beta: float) -> float:
    """Limit of the determinant ratio when the observation window doubles
    at fixed spacing: 16(b+1)(b^2+3b+3) / ((b+2)(b^2+6b+12)), the ratio
    under continuous observation.

    Strictly increasing from 2 (small rates) to 16 (large rates)."""
    return _window_doubling_ratio(beta, d_objective_1d)


def domain_doubling_limit_k(beta: float) -> float:
    """Limit of the condition-number ratio under window doubling, the
    ratio under continuous observation.

    Tends to 2 for small rates, peaks at 2.3454 near rate 0.2730, then
    decreases to (7 + sqrt(37))^2 / (8 + 2*sqrt(13))^2 ~ 0.7397."""
    # det/(l1*l3) of the window entries is at least 1/4: no check is needed
    return _window_doubling_ratio(beta, lambda e: k_objective_1d(e, d_objective_1d(e)))


def domain_doubling_limit_d_axis(beta: float) -> float:
    """Per-axis determinant-ratio limit for grid designs when one
    coordinate direction's window doubles: the ratio of l1*det, taken as
    the l1 ratio 2(b+1)/(b+2) times the 1D limit, since l1*det underflows
    at small rates.  Increases from 2 to 32."""
    return _window_doubling_ratio(beta, lambda e: e.l1) * domain_doubling_limit_d(beta)


def _window_limits_2d(beta, gamma, mode):
    """Determinant and condition-number ratios of the grid criteria under
    continuous observation of the doubled and the unit window, the limits
    of the domain modes ("domain-both" or "domain-one"); broadcasts over
    rates, and swapping them in "domain-both" keeps every bit."""
    unit = FimEntries2D(_window_entries(beta, 1.0), _window_entries(gamma, 1.0))
    wide = FimEntries2D(
        _window_entries(beta, 2.0),
        _window_entries(gamma, 2.0) if mode.endswith("both") else unit.t_entries,
    )
    return (d_objective_2d(wide) / d_objective_2d(unit),
            k_objective_2d(wide) / k_objective_2d(unit))


@dataclass(frozen=True)
class DoublingReport:
    """Criterion values ratio between a doubled design and its base, and
    the ratios' limits as the partition grows (``m`` is None in 1D)."""

    mode: str
    n: int
    m: int | None
    ratio_det: float
    ratio_cond: float
    limit_det: float
    limit_cond: float


def doubling_ratio_1d(params: OuParams, n: int, mode: str) -> DoublingReport:
    """Criterion ratios for the equidistant partition {0, 1/n, ..., 1}
    against its refinement (infill) or its window-doubled extension
    {0, 1/n, ..., 2} (domain)."""
    n = _check_count("n", n, 2)
    if mode not in MODES_1D:
        raise ValidationError(f"mode must be one of {MODES_1D}, got {mode!r}")
    h = 0.5 if mode == "infill" else 1.0
    base = fim_entries_equidistant_1d(params, 1.0 / n, n + 1)
    other = fim_entries_equidistant_1d(params, h / n, 2 * n + 1)
    if mode == "infill":
        limits = (1.0, 1.0)
    else:
        limits = (domain_doubling_limit_d(params.beta), domain_doubling_limit_k(params.beta))
    return DoublingReport(mode, n, None, d_objective_1d(other) / d_objective_1d(base),
                          k_objective_1d(other) / k_objective_1d(base), *limits)


def doubling_ratio_2d(params: SheetParams, n: int, m: int, mode: str) -> DoublingReport:
    """Criterion ratios for the grid partition {i/n} x {j/m} of the unit
    square against its refined or window-doubled variants.

    "one" modes double only the first coordinate direction.  The limits
    are 1 in the infill modes and, in the domain ones, the criteria's
    ratios under continuous observation of the windows."""
    n = _check_count("n", n, 2)
    m = _check_count("m", m, 2)
    if mode not in MODES_2D:
        raise ValidationError(f"mode must be one of {MODES_2D}, got {mode!r}")
    beta, gamma = _rates(params, SheetParams)
    ratio_det, ratio_cond = _grid_doubling_ratios(beta, gamma, n, m, mode)
    if mode.startswith("infill"):
        limits = (1.0, 1.0)
    else:
        limits = _window_limits_2d(beta, gamma, mode)
    return DoublingReport(mode, n, m, float(ratio_det), float(ratio_cond), *map(float, limits))


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
        return d_objective_2d(entries), k_objective_2d(entries)

    h = 0.5 if mode.startswith("infill") else 1.0
    t_other = (h / m, 2 * m + 1) if mode.endswith("both") else (1.0 / m, m + 1)
    det_base, k_base = criteria(1.0 / n, n + 1, 1.0 / m, m + 1)
    det_other, k_other = criteria(h / n, 2 * n + 1, *t_other)
    return det_other / det_base, k_other / k_base


@dataclass(frozen=True)
class CondLimitCell:
    """Extrapolated estimate of the 2D condition-number doubling limit at
    one rate pair, with its distance from the exact limit."""

    beta: float
    gamma: float
    estimate: float
    error_estimate: float
    converged: bool


def cond_limit_surface_2d(betas, gammas, mode: str = "both") -> list[CondLimitCell]:
    """Extrapolated limit surface of the condition-number doubling ratio.

    For each rate pair, the ratio is evaluated at the two grid sizes
    SURFACE_N_SEQUENCE (n = m) and Richardson-extrapolated assuming
    first-order convergence in 1/n.  The error estimate is the distance
    from the exact limit of :func:`doubling_ratio_2d`, and ``converged``
    flags whether it meets SURFACE_TOL.  ``mode`` "both" doubles the
    window in both coordinate directions, "one" only in the first.
    """
    if mode not in ("both", "one"):
        raise ValidationError(f"mode must be 'both' or 'one', got {mode!r}")
    betas = [_require_positive("rate", b) for b in betas]
    gammas = [_require_positive("rate", g) for g in gammas]
    beta, gamma = np.array(betas)[:, None], np.array(gammas)[None, :]
    ks = np.array(SURFACE_N_SEQUENCE)
    _, ratios = _grid_doubling_ratios(beta[..., None], gamma[..., None], ks, ks, "domain-" + mode)
    estimates = 2.0 * ratios[..., 1] - ratios[..., 0]
    errors = np.abs(estimates - _window_limits_2d(beta, gamma, "domain-" + mode)[1])
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
    x = _require_positive("x", x)
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
