"""Optimal-design searches with collapse detection.

Covered design families:

* three observation points {0, d, 1} on the unit interval (one free
  coordinate d), under the determinant or condition-number criterion;
* two points {0, d} with free spacing, where the condition-number
  optimum solves a scalar root equation;
* equidistant designs with free step size;
* nine-point restricted grids {0, d, 1} x {0, delta, 1} on the unit
  square and four-point grids {0, d} x {0, delta} on the quarter plane.

A search "collapses" when the criterion's infimum is attained on the
boundary of the design space, i.e. observation points merge.  For the
three-point family this happens exactly when the covariance rate lies
between the two positive roots of an explicit exponential-polynomial
equation; :func:`collapse_interval` computes those roots.

All searches use a dense coarse scan followed by local refinement
(golden-section in 1D, zooming grid refinement in 2D).  Scans break
argmin ties toward the smallest coordinates, and 2D objective values are
grouped so that swapping the two axes (and the two rates) reproduces
results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scalar import bisect_then_secant, golden_section_min
from .exceptions import ValidationError
from .fim import FimEntries2D, _equidistant_entries, _points_entries, fim_entries_equidistant_1d
from .model import OuParams, SheetParams
from .objectives import (
    _cond3_from_entries,
    condition_from_surrogate,
    d_objective_1d,
    d_objective_2d,
    r_objective_1d,
)

__all__ = [
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
    "kopt_curve_1d",
    "kopt_surface_2d",
]

BOUNDARY_TOL = 1e-6
COLLAPSE_EQUATION_MAX_RATE = 170.0  # exp(4*beta) overflows just beyond this


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a design search.

    ``argopt`` is the optimizing coordinate (or coordinate pair),
    ``value`` the criterion value there.  ``collapsed`` marks boundary
    optima (merged observation points); for grid searches
    ``collapsed_axes`` flags each coordinate separately.  ``local_minima``
    lists every refined local minimum when a scan finds several.
    """

    argopt: float | tuple[float, float]
    value: float
    converged: bool
    collapsed: bool
    iterations: int
    bracket: tuple
    collapsed_axes: tuple[bool, ...] | None = None
    local_minima: tuple = ()
    # Relative criterion improvement of the boundary optimum over the best
    # fully interior scan value; 0 for interior optima.  Collapse can be
    # genuine yet numerically negligible (flat criterion surfaces at small
    # rates beat the interior by ~1e-8 relative); this quantifies it.
    boundary_margin: float | None = None


@dataclass(frozen=True)
class CollapseInterval:
    """Closed parameter interval on which the three-point restricted
    condition-number optimum collapses to the boundary."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower < self.upper):
            raise ValidationError("collapse interval must satisfy 0 < lower < upper")

    def contains(self, beta: float) -> bool:
        return self.lower <= beta <= self.upper


def collapse_equation(beta: float) -> float:
    """Value whose two positive roots bound the collapse interval.

    An exponential polynomial in the covariance rate; its sign decides
    whether shrinking the free point of the three-point design toward the
    boundary decreases the condition-number surrogate.
    """
    b = float(beta)
    if not (0.0 < b):
        raise ValidationError(f"rate must be positive, got {beta!r}")
    if b > COLLAPSE_EQUATION_MAX_RATE:
        raise ValidationError(
            f"rate {b:g} overflows exp(4*beta); both roots lie far below"
        )
    e1 = math.exp(b)
    e2 = math.exp(2.0 * b)
    e3 = math.exp(3.0 * b)
    e4 = math.exp(4.0 * b)
    return (
        (b * b - 6.0 * b + 4.0) * e4
        + (6.0 * b * b + 6.0 * b - 10.0) * e3
        - (11.0 * b * b - 10.0 * b - 2.0) * e2
        + (2.0 * b * b - 6.0 * b + 10.0) * e1
        - 2.0 * b * b
        - 4.0 * b
        - 6.0
    )


def collapse_interval(tol: float = 1e-10) -> CollapseInterval:
    """Both positive roots of :func:`collapse_equation`, to ``tol``.

    The lower root sits in (0.01, 1), the upper in (1, 10); bracket
    failure would signal a transcription bug in the equation itself.
    """
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    try:
        lower, _, ok1 = bisect_then_secant(collapse_equation, 1e-2, 1.0, 1e-3, tol)
        upper, _, ok2 = bisect_then_secant(collapse_equation, 1.0, 10.0, 1e-3, tol)
    except ValueError as exc:
        raise ValidationError(f"collapse-equation brackets lost their sign change: {exc}") from exc
    if not (ok1 and ok2):
        raise ValidationError("collapse-equation root refinement did not converge")
    return CollapseInterval(lower, upper)


def three_point_limit_objective(d):
    """Pointwise large-rate limit of the three-point surrogate:
    (d^2 + 4)^2 / (2*(d^2 - d + 1)), minimized at the boundary d = 0."""
    d = np.asarray(d, dtype=float)
    out = (d * d + 4.0) ** 2 / (2.0 * (d * d - d + 1.0))
    return float(out) if out.ndim == 0 else out


def _free_point_design(d):
    """Points of the design {0, d, 1} along axis 0, broadcast over d."""
    d = np.asarray(d, dtype=float)
    points = np.empty((3,) + d.shape)
    points[0], points[1], points[2] = 0.0, d, 1.0
    return points


def _snap_to_boundary(x, lo, hi, boundary_tol):
    if x - lo <= boundary_tol:
        return lo, True
    if hi - x <= boundary_tol:
        return hi, True
    return x, False


def three_point_restricted_1d(
    params: OuParams,
    criterion: str = "D",
    grid_resolution: int = 2001,
    refine_tol: float = 1e-10,
    boundary_tol: float = BOUNDARY_TOL,
) -> SearchResult:
    """Optimal free point d of the design {0, d, 1} on [0, 1].

    Criterion "D" maximizes the determinant: the maximum sits at the
    center d = 1/2 for rates up to ~7.1566 and then splits into two
    mirror-symmetric interior maxima that migrate toward the ends (the
    uncorrelated-limit behavior).  Criterion "K" minimizes the condition
    number through its monotone surrogate and flags collapse when the
    infimum is attained at d in {0, 1}, which happens exactly for rates
    inside :func:`collapse_interval`.
    """
    crit = _check_criterion(criterion)
    beta = params.beta
    if grid_resolution < 3:
        raise ValidationError("grid_resolution must be at least 3")

    if crit == "D":

        def f(d):
            return -d_objective_1d(_points_entries(beta, _free_point_design(d)))

    else:

        def f(d):
            return r_objective_1d(_points_entries(beta, _free_point_design(d)))

    grid = np.linspace(0.0, 1.0, grid_resolution)
    values = f(grid)
    i = int(np.argmin(values))  # ties break toward the smaller d
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_resolution - 1)]
    x, fx, iters, ok = golden_section_min(f, lo, hi, refine_tol)
    if values[i] < fx:  # boundary value can beat the refined interior one
        x, fx = float(grid[i]), float(values[i])
    x, collapsed = _snap_to_boundary(x, 0.0, 1.0, boundary_tol)
    if collapsed:
        fx = float(f(x))
        margin = (float(np.min(values[1:-1])) - fx) / abs(fx)
    else:
        margin = 0.0
    value = -fx if crit == "D" else condition_from_surrogate(fx)
    return SearchResult(
        argopt=float(x),
        value=float(value),
        converged=bool(ok),
        collapsed=bool(collapsed),
        iterations=iters,
        bracket=(float(lo), float(hi)),
        boundary_margin=margin,
    )


def _check_criterion(criterion: str) -> str:
    crit = str(criterion).upper()
    if crit not in ("D", "K"):
        raise ValidationError(f"criterion must be 'D' or 'K', got {criterion!r}")
    return crit


def _two_point_gap_equation(beta: float):
    """Root function for the two-point spacing optimum, in decayed form.

    The optimality equation factors as d^2/2 = q(beta*d) with q strictly
    increasing from 0 to 1, so the returned function changes sign exactly
    once on (0, sqrt(2)) and never overflows.
    """

    def h(d: float) -> float:
        x = beta * d
        em = math.exp(-x)
        one_m = -math.expm1(-x)  # 1 - e^{-x}
        t = one_m - x * em  # 1 - (x+1) e^{-x}
        num = (t + em * one_m) * one_m
        den = -math.expm1(-2.0 * x) - x * math.exp(-2.0 * x)  # 1 - (x+1) e^{-2x}
        return 0.5 * d * d - num / den

    return h


def two_point_k_optimal(params: OuParams, tol: float = 1e-10) -> SearchResult:
    """Unique condition-number-optimal spacing of the design {0, d}.

    The optimum is the unique positive root of the spacing equation; a
    bracketing failure would signal a transcription bug, not a missing
    optimum (existence and uniqueness hold for every rate).
    """
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    h = _two_point_gap_equation(params.beta)
    lo, hi = 1e-9, math.sqrt(2.0)
    try:
        root, iters, ok = bisect_then_secant(h, lo, hi, 1e-3, tol)
    except ValueError as exc:
        raise ValidationError(f"two-point root bracket failed: {exc}") from exc
    value = condition_from_surrogate(r_objective_1d(fim_entries_equidistant_1d(params, root, 2)))
    return SearchResult(
        argopt=float(root),
        value=float(value),
        converged=bool(ok),
        collapsed=False,
        iterations=iters,
        bracket=(lo, hi),
    )


def equidistant_k_optimal_1d(params: OuParams, n: int, tol: float = 1e-10) -> SearchResult:
    """Global condition-number-optimal step size of the equidistant
    n-point design, over d > 0.

    The surrogate diverges for both vanishing and growing steps, so a
    global minimum exists.  A log-spaced coarse scan locates every local
    minimum; each is refined by golden-section and all of them are
    reported (uniqueness is not assumed), the best one winning.
    """
    if int(n) != n or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    n = int(n)
    beta = params.beta

    # At small rates the optimal step shrinks like rate/(n-1); open the
    # scan window accordingly (but keep scaled gaps clear of underflow).
    lo = max(min(1e-4, 1e-2 * beta / (n - 1)), 1e-11 / beta)

    def f(d):
        return r_objective_1d(_equidistant_entries(beta, d, n))

    grid = np.geomspace(lo, 1e4, 2001)
    r = f(grid)

    interior = np.flatnonzero((r[1:-1] < r[:-2]) & (r[1:-1] <= r[2:])) + 1
    iters = 0
    minima = []
    for i in interior:
        x, fx, it, ok = golden_section_min(f, grid[i - 1], grid[i + 1], tol)
        iters += it
        minima.append((float(x), float(condition_from_surrogate(fx)), bool(ok)))
    if not minima:
        # No interior minimum in the scan window; fall back to the best
        # grid point so the failure is visible rather than silent.
        i = int(np.argmin(r))
        minima.append((float(grid[i]), float(condition_from_surrogate(r[i])), False))
    # dedupe refinements that converged to the same point
    minima.sort()
    unique = [minima[0]]
    for cand in minima[1:]:
        if abs(cand[0] - unique[-1][0]) > 50.0 * max(tol, 1e-12) * max(1.0, cand[0]):
            unique.append(cand)
    best = min(unique, key=lambda c: c[1])
    return SearchResult(
        argopt=best[0],
        value=best[1],
        converged=best[2],
        collapsed=False,
        iterations=iters,
        bracket=(float(grid[0]), float(grid[-1])),
        local_minima=tuple((x, v) for x, v, _ in unique),
    )


def equidistant_d_monotone_check(params: OuParams, n: int, d_grid) -> bool:
    """True when the determinant criterion strictly increases along the
    given step-size grid (so no finite step is determinant-optimal)."""
    d = np.asarray(sorted(float(x) for x in d_grid), dtype=float)
    if d.size < 2 or np.any(d <= 0.0):
        raise ValidationError("d_grid needs at least two positive step sizes")
    det = d_objective_1d(_equidistant_entries(params.beta, d, int(n)))
    return bool(np.all(np.diff(det) > 0.0))


def _zoom_refine_2d(
    f2,
    x: float,
    y: float,
    wx: float,
    wy: float,
    lo_x: float,
    hi_x: float,
    lo_y: float,
    hi_y: float,
    tol: float,
    points: int = 17,
    shrink: float = 0.25,
    max_levels: int = 80,
):
    """Refine a 2D minimum by repeatedly re-gridding a shrinking window.

    ``f2`` must accept broadcastable coordinate arrays.  Windows only
    shrink while the running argmin stays interior (or pinned to the
    domain boundary), so a minimum just outside the initial window is
    walked to rather than lost.
    """
    evals = 0
    level = 0
    while (wx > tol or wy > tol) and level < max_levels:
        gx = np.linspace(max(lo_x, x - wx), min(hi_x, x + wx), points)
        gy = np.linspace(max(lo_y, y - wy), min(hi_y, y + wy), points)
        vals = f2(gx[:, None], gy[None, :])
        k = int(np.argmin(vals))
        i, j = divmod(k, points)
        x, y = float(gx[i]), float(gy[j])
        evals += points * points
        at_domain_edge_x = x - lo_x <= tol or hi_x - x <= tol
        at_domain_edge_y = y - lo_y <= tol or hi_y - y <= tol
        if 0 < i < points - 1 or at_domain_edge_x:
            wx *= shrink
        if 0 < j < points - 1 or at_domain_edge_y:
            wy *= shrink
        level += 1
    return x, y, evals, level < max_levels


def nine_point_restricted_2d(
    params: SheetParams,
    criterion: str = "D",
    grid_resolution: int = 201,
    refine_tol: float = 1e-8,
    boundary_tol: float = BOUNDARY_TOL,
) -> SearchResult:
    """Optimal free coordinates (d, delta) of the grid
    {0, d, 1} x {0, delta, 1} on the unit square.

    Criterion "D" maximizes the determinant, which factorizes per axis:
    each coordinate's optimum sits at 1/2 for axis rates up to ~9.1780
    and migrates off-center above that.  Criterion "K" minimizes the
    condition number, flagging collapse per coordinate when a minimizing
    coordinate reaches {0, 1}.
    """
    crit = _check_criterion(criterion)
    if grid_resolution < 3:
        raise ValidationError("grid_resolution must be at least 3")
    beta, gamma = params.beta, params.gamma

    def entries(d, dl):
        return FimEntries2D(
            _points_entries(beta, _free_point_design(d)),
            _points_entries(gamma, _free_point_design(dl)),
        )

    if crit == "D":

        def f2(d, dl):
            return -d_objective_2d(entries(d, dl))

    else:

        def f2(d, dl):
            return _cond3_from_entries(entries(d, dl))[0]

    grid = np.linspace(0.0, 1.0, grid_resolution)
    step = grid[1] - grid[0]
    values = f2(grid[:, None], grid[None, :])

    k = int(np.argmin(values))  # row-major: ties break toward smaller (d, delta)
    i, j = divmod(k, grid_resolution)
    x, y = float(grid[i]), float(grid[j])
    x, y, evals, ok = _zoom_refine_2d(
        f2, x, y, step, step, 0.0, 1.0, 0.0, 1.0, refine_tol
    )
    x, cx = _snap_to_boundary(x, 0.0, 1.0, boundary_tol)
    y, cy = _snap_to_boundary(y, 0.0, 1.0, boundary_tol)
    fx = float(f2(np.asarray(x), np.asarray(y)))
    value = -fx if crit == "D" else fx
    if cx or cy:
        interior_best = float(np.min(values[1:-1, 1:-1]))
        margin = (interior_best - fx) / abs(fx)
    else:
        margin = 0.0
    return SearchResult(
        argopt=(x, y),
        value=float(value),
        converged=bool(ok),
        collapsed=bool(cx or cy),
        iterations=evals,
        bracket=((0.0, 1.0), (0.0, 1.0)),
        collapsed_axes=(cx, cy),
        boundary_margin=margin,
    )


def four_point_grid_k_optimal(params: SheetParams, tol: float = 1e-8) -> SearchResult:
    """Condition-number-optimal spacings (d, delta) of the 2x2 grid
    {0, d} x {0, delta} over the open quarter plane.

    A log-spaced coarse scan over (1e-3, 1e3)^2 locates the minimum,
    which zooming grid refinement then polishes.
    """
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    beta, gamma = params.beta, params.gamma

    grid = np.geomspace(1e-3, 1e3, 241)

    def f2(d, dl):
        return _cond3_from_entries(
            FimEntries2D(_equidistant_entries(beta, d, 2), _equidistant_entries(gamma, dl, 2))
        )[0]

    values = f2(grid[:, None], grid[None, :])
    k = int(np.argmin(values))
    i, j = divmod(k, grid.size)
    x, y = float(grid[i]), float(grid[j])
    ratio = grid[1] / grid[0]
    wx = x * (ratio - 1.0)
    wy = y * (ratio - 1.0)
    x, y, evals, ok = _zoom_refine_2d(
        f2, x, y, wx, wy, 1e-9, math.inf, 1e-9, math.inf, tol
    )
    return SearchResult(
        argopt=(x, y),
        value=float(f2(np.asarray(x), np.asarray(y))),
        converged=bool(ok),
        collapsed=False,
        iterations=evals,
        bracket=((float(grid[0]), float(grid[-1])), (float(grid[0]), float(grid[-1]))),
        collapsed_axes=(False, False),
    )


@dataclass(frozen=True)
class KoptCurvePoint1D:
    beta: float
    d_opt: float
    k_value: float
    collapsed: bool


@dataclass(frozen=True)
class KoptSurfacePoint2D:
    beta: float
    gamma: float
    d_opt: float
    delta_opt: float
    k_value: float
    collapsed_s: bool
    collapsed_t: bool


def kopt_curve_1d(betas, **search_kwargs) -> list[KoptCurvePoint1D]:
    """Condition-number-optimal three-point coordinate per rate value;
    collapsed entries report d_opt at the boundary (0 or 1)."""
    rows = []
    for b in betas:
        res = three_point_restricted_1d(OuParams(float(b)), "K", **search_kwargs)
        rows.append(
            KoptCurvePoint1D(float(b), float(res.argopt), res.value, res.collapsed)
        )
    return rows


def kopt_surface_2d(betas, gammas, **search_kwargs) -> list[KoptSurfacePoint2D]:
    """Condition-number-optimal nine-point coordinates over a rate grid."""
    rows = []
    for b in betas:
        for g in gammas:
            res = nine_point_restricted_2d(
                SheetParams(float(b), float(g)), "K", **search_kwargs
            )
            d_opt, delta_opt = res.argopt
            cx, cy = res.collapsed_axes
            rows.append(
                KoptSurfacePoint2D(
                    float(b), float(g), d_opt, delta_opt, res.value, cx, cy
                )
            )
    return rows
