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
equation; :func:`collapse_interval` computes those roots, and the
three-point K search takes its flag from them.

The four scanning searches share one routine (:func:`_refine`): a scan on
the open mesh of one or two axes, then zooming grids around the scan's
argmin, until the zoom is as fine as the search's fixed tolerance.  Unit
axes are linear on [0, 1]; gap axes are log d from a lower end that
follows the rate, so the tolerance is relative there.  A
coordinate has collapsed when it refines to exactly 0 or 1: the zoom
grids contain the clipped boundary and ties break toward it.  Its
boundary margin is measured against the same design with the collapsed
coordinates moved MARGIN_STEP inside, so it does not depend on the scan.
2D values are grouped so that swapping the two axes (and rates) is
bitwise exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError
from .fim import FimEntries1D, FimEntries2D, _equidistant_entries, _points_entries
from .model import OuParams, SheetParams, _check_count, _require_positive
from .objectives import _cond3_from_entries, d_objective_1d, k_objective_1d

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
    "KoptCurvePoint1D",
    "KoptSurfacePoint2D",
    "kopt_curve_1d",
    "kopt_surface_2d",
]

COLLAPSE_EQUATION_MAX_RATE = 170.0  # exp(4*beta) overflows just beyond this
# Below this rate the two-point spacing equation loses its sign change on
# the bracket in double precision (from about 1e-79.5); from here up the
# root is 2*rate within 1e-13 relative at small rates.
TWO_POINT_MIN_RATE = 1e-75
REFINE_POINTS = 17
REFINE_SHRINK = 0.25
MAX_REFINE_PASSES = 3
EDGE_GAIN_RTOL = 1e-12  # criterion rounding is ~1e-15 relative
# Search settings, fixed for the library and the CLI.  The nine-point scan
# only has to land in the optimum's basin (a 31-point scan misses the one
# at rates (1e7, 1), 2.2e-7 relative); the refine sets the precision.
THREE_POINT_GRID_RESOLUTION = 2001
THREE_POINT_REFINE_TOL = 1e-10
NINE_POINT_GRID_RESOLUTION = 41
NINE_POINT_REFINE_TOL = 1e-8
FOUR_POINT_TOL = 1e-8
EQUIDISTANT_TOL = 1e-10
MARGIN_STEP = 0.005  # how far inside a collapsed coordinate's margin looks


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a design search.

    ``argopt`` is the optimizing coordinate (or coordinate pair),
    ``value`` the criterion value there.  ``collapsed`` marks boundary
    optima (merged observation points); for grid searches
    ``collapsed_axes`` flags each coordinate separately.  ``local_minima``
    lists every refined local minimum when a scan finds several.
    ``iterations`` counts every criterion evaluation, scan included (for
    the two-point root, every evaluation of its spacing equation).
    ``converged`` is False only for a four-point optimum pinned at a scan
    window's end and an equidistant scan without an interior minimum.
    """

    argopt: float | tuple[float, float]
    value: float
    converged: bool
    collapsed: bool
    iterations: int
    bracket: tuple
    collapsed_axes: tuple[bool, ...] | None = None
    local_minima: tuple = ()
    # Relative criterion improvement of the boundary optimum over the same
    # design with every collapsed coordinate moved MARGIN_STEP inside; 0
    # for interior optima.  Collapse can be genuine yet numerically
    # negligible (flat criterion surfaces at small rates beat the interior
    # by ~1e-7 relative); this quantifies it.
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
    boundary decreases the condition number.
    """
    b = _require_positive("rate", beta)
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


@functools.cache
def collapse_interval() -> CollapseInterval:
    """Both positive roots of :func:`collapse_equation`, bisected to the
    last bit once per process.

    The lower root sits in (0.01, 1), the upper in (1, 10); bracket
    failure would signal a transcription bug in the equation itself.
    """
    lower, _ = _bisect(collapse_equation, 1e-2, 1.0)
    upper, _ = _bisect(collapse_equation, 1.0, 10.0)
    return CollapseInterval(lower, upper)


def _bisect(f, lo, hi):
    """Root of f on [lo, hi], halving the bracket until its midpoint
    equals one of its ends; returns (root, evaluations).  The ends must
    give finite values of opposite signs."""
    f_lo, f_hi = f(lo), f(hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi) and (f_lo < 0.0) != (f_hi < 0.0)):
        raise ValidationError(f"no sign change on bracket [{lo:g}, {hi:g}]: f = {f_lo:g}, {f_hi:g}")
    evaluations = 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = f(mid)
        evaluations += 1
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return mid, evaluations


def three_point_limit_objective(d):
    """Pointwise large-rate limit of the three-point condition number,
    that of the matrix [[3, 1 + d], [1 + d, 1 + d^2]]; minimized at the
    boundary d = 0, where it is 3 + 2*sqrt(2)."""
    d = np.asarray(d, dtype=float)
    out = k_objective_1d(FimEntries1D(3.0, 1.0 + d, 1.0 + d * d))
    return float(out) if out.ndim == 0 else out


def _free_point_design(d):
    """Points of the design {0, d, 1} along axis 0, broadcast over d."""
    d = np.asarray(d, dtype=float)
    points = np.empty((3,) + d.shape)
    points[0], points[1], points[2] = 0.0, d, 1.0
    return points


def _refine(f, axes, index, tol):
    """Refine the scan point ``index`` within the axes' range until every
    half-width is at most ``tol``; returns (point, value, evaluations).

    A pass re-grids REFINE_POINTS per axis around the running argmin,
    starting from the scan spacing, and shrinks every half-width w by
    REFINE_SHRINK per level.  The new half-width w/4 exceeds the old
    spacing w/8, so a minimum unimodal along each axis is never lost.
    Every grid holds the running argmin, and a grid clipped at the range
    holds its end exactly.  In a narrow valley across two axes the coarse
    axis can drag the other's argmin to an inner edge of its window; a
    pass where an edge point beat the window's center by more than
    rounding is repeated from its result while that lowers the value.
    """
    lo, hi = [float(a[0]) for a in axes], [float(a[-1]) for a in axes]
    w0 = [float(a[1] - a[0]) for a in axes]
    x = [float(a[i]) for a, i in zip(axes, index)]
    best, value, evaluations = tuple(x), math.inf, 0
    for _ in range(MAX_REFINE_PASSES):
        w, edged = w0, False
        while True:
            grids = [np.linspace(max(a, c - h), min(b, c + h), REFINE_POINTS)
                     for c, h, a, b in zip(x, w, lo, hi)]
            center = tuple(int(np.argmin(np.abs(g - c))) for g, c in zip(grids, x))
            for g, c, j in zip(grids, x, center):
                g[j] = c
            values = f(*np.ix_(*grids))
            evaluations += values.size
            k = np.unravel_index(int(np.argmin(values)), values.shape)
            x = [float(g[j]) for g, j in zip(grids, k)]
            gain = values[center] - values[k]
            edged = edged or gain > EDGE_GAIN_RTOL * abs(values[k]) and any(
                j in (0, REFINE_POINTS - 1) and c not in (a, b) for j, c, a, b in zip(k, x, lo, hi)
            )
            w = [REFINE_SHRINK * h for h in w]
            if max(w) <= tol:
                break
        if not values[k] < value:
            break
        best, value = tuple(x), float(values[k])
        if not edged:
            break
    return best, value, evaluations


def _scan_refine(f, axes, tol):
    """Scan the open mesh of the axes, then refine its first row-major
    argmin (ties break toward the smallest coordinates); returns (point,
    value, evaluations)."""
    values = f(*np.ix_(*axes))
    index = np.unravel_index(int(np.argmin(values)), values.shape)
    x, fx, evaluations = _refine(f, axes, index, tol)
    return x, fx, values.size + evaluations


def _checked_value(value, criterion, *rates):
    """A search's best criterion value, once it is positive and finite."""
    if not 0.0 < value < math.inf:
        where = ", ".join(f"{r:g}" for r in rates)
        raise NumericalError(
            f"{criterion} search at rate{'s' * (len(rates) > 1)} {where} finds no positive "
            f"finite criterion value (best {value:g}) in double precision"
        )
    return float(value)


def _log_axis(lo, hi, points, rate):
    """Scan axis in log d over the window [lo, hi], whose floor follows
    the rate."""
    if not lo > 0.0:
        raise NumericalError(f"the scan window's floor underflows to 0 at rate {rate:g}")
    return np.linspace(math.log(lo), math.log(hi), points)


def _collapse(f, point, value):
    """Per-coordinate collapse (refined exactly to 0 or 1), the boundary
    margin over the same design with each collapsed coordinate moved
    MARGIN_STEP inside, and the evaluations spent on it (0 or 1)."""
    axes = tuple(c in (0.0, 1.0) for c in point)
    if not any(axes):
        return axes, 0.0, 0
    # 0 -> MARGIN_STEP and 1 -> 1 - MARGIN_STEP
    inside = [abs(c - MARGIN_STEP) if collapsed else c for c, collapsed in zip(point, axes)]
    return axes, (float(f(*inside)) - value) / abs(value), 1


def three_point_restricted_1d(params: OuParams, criterion: str = "D") -> SearchResult:
    """Optimal free point d of the design {0, d, 1} on [0, 1].

    Criterion "D" maximizes the determinant: the maximum sits at the
    center d = 1/2 for rates up to ~7.1566 and then splits into two
    mirror-symmetric interior maxima that migrate toward the ends (the
    uncorrelated-limit behavior).  Criterion "K" minimizes the condition
    number; its infimum is attained at d in {0, 1} exactly for rates
    inside :func:`collapse_interval`, so there the paper's collapse
    equation decides and the merged design {0, 1} (argopt 0) is reported
    without a scan.
    """
    crit = _check_criterion(criterion)
    beta = params.beta

    def f(d):
        e = _points_entries(beta, _free_point_design(d))
        return -d_objective_1d(e) if crit == "D" else k_objective_1d(e)

    if crit == "K" and collapse_interval().contains(beta):
        x, fx, evaluations = 0.0, float(f(0.0)), 1
    else:
        axis = np.linspace(0.0, 1.0, THREE_POINT_GRID_RESOLUTION)
        (x,), fx, evaluations = _scan_refine(f, (axis,), THREE_POINT_REFINE_TOL)
    (collapsed,), margin, extra = _collapse(f, (x,), fx)
    return SearchResult(
        argopt=x,
        value=_checked_value(-fx if crit == "D" else fx, crit, beta),
        converged=True,
        collapsed=collapsed,
        iterations=evaluations + extra,
        bracket=(0.0, 1.0),
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
        x = min(beta * d, 1e3)  # exp(-x) is 0 from here on; x = inf would make x*exp(-x) nan
        em = math.exp(-x)
        one_m = -math.expm1(-x)  # 1 - e^{-x}
        t = one_m - x * em  # 1 - (x+1) e^{-x}
        num = (t + em * one_m) * one_m
        den = -math.expm1(-2.0 * x) - x * math.exp(-2.0 * x)  # 1 - (x+1) e^{-2x}
        return 0.5 * d * d - num / den

    return h


def two_point_k_optimal(params: OuParams) -> SearchResult:
    """Unique condition-number-optimal spacing of the design {0, d}.

    The optimum is the unique positive root of the spacing equation,
    bracketed between min(1, rate)/1000 and sqrt(2) and bisected in log d
    to the last bit; a bracketing failure would signal a transcription
    bug, not a missing optimum (existence and uniqueness hold for every
    rate).  The root lies near 2*rate at small rates; rates below
    TWO_POINT_MIN_RATE, where the bracket fails in double precision,
    raise :class:`ValidationError`.
    """
    if params.beta < TWO_POINT_MIN_RATE:
        raise ValidationError(
            f"rate {params.beta:g} is below {TWO_POINT_MIN_RATE:g}, where the two-point "
            "spacing equation cannot be solved in double precision; the root is 2*rate there"
        )
    h = _two_point_gap_equation(params.beta)
    lo, hi = 1e-3 * min(1.0, params.beta), math.sqrt(2.0)
    u, evaluations = _bisect(lambda u: h(math.exp(u)), math.log(lo), math.log(hi))
    root = math.exp(u)
    # K at the root itself: below rate ~7e-7 the scaled root 2*rate^2 lies
    # under the coincidence floor of the validated equidistant entries.
    value = k_objective_1d(_equidistant_entries(params.beta, root, 2))
    return SearchResult(
        argopt=root,
        value=_checked_value(value, "K", params.beta),
        converged=True,
        collapsed=False,
        iterations=evaluations,
        bracket=(lo, hi),
        boundary_margin=0.0,
    )


def equidistant_k_optimal_1d(params: OuParams, n: int) -> SearchResult:
    """Global condition-number-optimal step size of the equidistant
    n-point design, over d > 0.

    The condition number diverges for both vanishing and growing steps,
    so a global minimum exists.  A scan in log d locates every local
    minimum; each is refined (to EQUIDISTANT_TOL relative) and all of
    them are reported (uniqueness is not assumed), the best one winning.
    With no interior minimum in the scan window the best scan point is
    reported with ``converged=False``.
    """
    n = _check_count("n", n, 2)
    beta = params.beta

    # At small rates the optimal step shrinks like rate/(n-1); the scan
    # window follows it.
    lo, hi = min(1e-4, 1e-2 * beta / (n - 1)), 1e4
    axis = _log_axis(lo, hi, 2001, beta)

    def f(u):
        return k_objective_1d(_equidistant_entries(beta, np.exp(u), n))

    k = f(axis)
    interior = np.flatnonzero((k[1:-1] < k[:-2]) & (k[1:-1] <= k[2:])) + 1
    evaluations = k.size
    minima = []
    for i in interior:
        (u,), fx, evals = _refine(f, (axis,), (i,), EQUIDISTANT_TOL)
        evaluations += evals
        minima.append((math.exp(u), fx))
    converged = bool(minima)
    if not converged:
        # No interior minimum in the scan window; fall back to the best
        # grid point so the failure is visible rather than silent.
        i = int(np.argmin(k))
        minima.append((math.exp(axis[i]), float(k[i])))
    best = min(minima, key=lambda c: c[1])
    return SearchResult(
        argopt=best[0],
        value=_checked_value(best[1], "K", beta),
        converged=converged,
        collapsed=False,
        iterations=evaluations,
        bracket=(lo, hi),
        local_minima=tuple(minima),
        boundary_margin=0.0,
    )


def equidistant_d_monotone_check(params: OuParams, n: int, d_grid) -> bool:
    """True when the determinant criterion strictly increases along the
    given step-size grid (so no finite step is determinant-optimal)."""
    d = np.asarray(sorted(float(x) for x in d_grid), dtype=float)
    if d.size < 2 or np.any(d <= 0.0):
        raise ValidationError("d_grid needs at least two positive step sizes")
    det = d_objective_1d(_equidistant_entries(params.beta, d, _check_count("n", n, 2)))
    return bool(np.all(np.diff(det) > 0.0))


def nine_point_restricted_2d(params: SheetParams, criterion: str = "D") -> SearchResult:
    """Optimal free coordinates (d, delta) of the grid
    {0, d, 1} x {0, delta, 1} on the unit square.

    Criterion "D" maximizes the determinant, which factorizes as
    (l1*det_s) * (m1*det_t): each coordinate is optimized on its own axis
    and sits at 1/2 for axis rates up to ~9.1780, migrating off-center
    above that.  Criterion "K" minimizes the condition number, flagging
    collapse per coordinate when a minimizing coordinate reaches {0, 1}.
    """
    crit = _check_criterion(criterion)
    beta, gamma = params.beta, params.gamma
    grid = np.linspace(0.0, 1.0, NINE_POINT_GRID_RESOLUTION)

    if crit == "D":

        def axis_factor(rate):  # minus l1*det of one axis
            def f(d):
                e = _points_entries(rate, _free_point_design(d))
                return -(e.l1 * d_objective_1d(e))

            return f

        fs, ft = axis_factor(beta), axis_factor(gamma)

        def f2(d, dl):
            return -(fs(d) * ft(dl))

        ((x,), fx, ex), ((y,), fy, ey) = (
            _scan_refine(f, (grid,), NINE_POINT_REFINE_TOL) for f in (fs, ft)
        )
        point, fxy, evaluations = (x, y), -(fx * fy), ex + ey
    else:

        def f2(d, dl):
            s = _points_entries(beta, _free_point_design(d))
            t = _points_entries(gamma, _free_point_design(dl))
            return _cond3_from_entries(FimEntries2D(s, t))[0]

        point, fxy, evaluations = _scan_refine(f2, (grid, grid), NINE_POINT_REFINE_TOL)
    collapsed_axes, margin, extra = _collapse(f2, point, fxy)
    return SearchResult(
        argopt=point,
        value=_checked_value(-fxy if crit == "D" else fxy, crit, beta, gamma),
        converged=True,
        collapsed=any(collapsed_axes),
        iterations=evaluations + extra,
        bracket=((0.0, 1.0), (0.0, 1.0)),
        collapsed_axes=collapsed_axes,
        boundary_margin=margin,
    )


def four_point_grid_k_optimal(params: SheetParams) -> SearchResult:
    """Condition-number-optimal spacings (d, delta) of the 2x2 grid
    {0, d} x {0, delta} over the open quarter plane.

    Each axis is scanned in log d from min(1e-3, rate/10) up to 1e3 and
    refined to FOUR_POINT_TOL relative; an optimum pinned at a scan
    window's end reports ``converged=False``.
    """
    beta, gamma = params.beta, params.gamma
    windows = tuple((min(1e-3, 0.1 * rate), 1e3) for rate in (beta, gamma))
    axes = tuple(_log_axis(lo, hi, 241, rate) for (lo, hi), rate in zip(windows, (beta, gamma)))

    def f2(u, v):
        s, t = _equidistant_entries(beta, np.exp(u), 2), _equidistant_entries(gamma, np.exp(v), 2)
        return _cond3_from_entries(FimEntries2D(s, t))[0]

    (u, v), value, evaluations = _scan_refine(f2, axes, FOUR_POINT_TOL)
    pinned = any(c in (a[0], a[-1]) for c, a in zip((u, v), axes))
    return SearchResult(
        argopt=(math.exp(u), math.exp(v)),
        value=_checked_value(value, "K", beta, gamma),
        converged=not pinned,
        collapsed=False,
        iterations=evaluations,
        bracket=windows,
        collapsed_axes=(False, False),
        boundary_margin=0.0,
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


def kopt_curve_1d(betas) -> list[KoptCurvePoint1D]:
    """Condition-number-optimal three-point coordinate per rate value;
    collapsed entries report d_opt at the boundary (0 or 1)."""
    rows = []
    for b in betas:
        res = three_point_restricted_1d(OuParams(float(b)), "K")
        rows.append(
            KoptCurvePoint1D(float(b), float(res.argopt), res.value, res.collapsed)
        )
    return rows


def kopt_surface_2d(betas, gammas) -> list[KoptSurfacePoint2D]:
    """Condition-number-optimal nine-point coordinates over a rate grid."""
    rows = []
    for b in betas:
        for g in gammas:
            res = nine_point_restricted_2d(SheetParams(float(b), float(g)), "K")
            d_opt, delta_opt = res.argopt
            cx, cy = res.collapsed_axes
            rows.append(
                KoptSurfacePoint2D(
                    float(b), float(g), d_opt, delta_opt, res.value, cx, cy
                )
            )
    return rows
