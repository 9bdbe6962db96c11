"""Optimal-design searches with collapse detection.

Families: three points {0, d, 1} on [0, 1] under the determinant (D) or
condition-number (K) criterion; equidistant designs {0, d, ..., (n-1)d}
under K, two points {0, d} being n = 2; nine-point grids {0, d, 1} x {0,
delta, 1} on the unit square and four-point grids {0, d} x {0, delta}.

A search "collapses" when the infimum sits on the boundary, where points
merge.  The three-point K search takes its flag from the two roots of the
paper's collapse equation (:func:`collapse_interval`).

A search over one free coordinate bisects the sign of its criterion's
derivative, in closed form on Python floats, to the last bit; its argopt
does not follow numpy's SIMD path.  That covers the equidistant step
(:func:`_spacing_search`) and the free point of {0, d, 1} in the
three-point searches and on each axis of nine-point D, whose criterion
factorizes (:func:`_free_point`).  The coupled searches, nine-point K and
four-point, scan a SCAN_POINTS^2 mesh and zoom around its argmin to
REFINE_TOL (:func:`_refine`), one criterion call per level; their 2D values
are grouped so that swapping the axes and rates is bitwise exact, and ties
go to the smallest sorted coordinates.  A unit coordinate at exactly 0 or
1 has collapsed (:func:`_unit_search`); its boundary margin compares the
same design with the coordinate MARGIN_STEP inside.  Every evaluation runs
under one errstate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError
from .fim import FimEntries1D, FimEntries2D, _check_equidistant_args, _equidistant_entries
from .fim import _equidistant_slopes, _free_point_slopes, _points_entries
from .model import OuParams, SheetParams, _check_count, _rates, _require_positive
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
# Two-point's input floor, kept from the paper's spacing equation (no sign change
# in double precision below ~1e-79.5); its spacing search holds to ~5e-154.
TWO_POINT_MIN_RATE = 1e-75
REFINE_POINTS = 17  # points per axis of a refine level
MAX_REFINE_PASSES = 3
EDGE_GAIN_RTOL = 1e-12  # criterion rounding is ~1e-15 relative
# Scan points per axis and refine tolerance of the coupled sheet searches: a scan
# only has to land in the optimum's basin (31 nine-point points miss it at rates
# (1e7, 1), 2.2e-7 relative); the refine sets the precision.
SCAN_POINTS = 41
REFINE_TOL = 1e-8
FREE_POINT_CELLS = 24  # geometric cells of a free-point search's sign grid
CENTER_STEP = 2.0**-17  # a D search's grid ends here below the center
MARGIN_STEP = 0.005  # how far inside a collapsed coordinate's margin looks


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a design search.

    ``argopt`` is the optimizing coordinate or pair (for D, of the mirror
    images d and 1 - d the one at or below 1/2), ``value`` the criterion
    there; ``collapsed`` marks boundary optima (merged points), per axis in
    ``collapsed_axes`` for grids.  ``iterations`` counts derivative-sign
    evaluations (both axes' for nine-point D), nine-point K's and four-point's
    criterion evaluations, and 2 for a collapsed three-point K.  ``converged``
    is False only for a four-point optimum pinned at its scan window's end.
    """

    argopt: float | tuple[float, float]
    value: float
    converged: bool
    collapsed: bool
    iterations: int
    bracket: tuple
    collapsed_axes: tuple[bool, ...] | None = None
    # Relative criterion improvement of the boundary optimum over the same
    # design with its collapsed coordinates MARGIN_STEP inside, 0 inside: a
    # genuine collapse can be negligible (~1e-7 on flat small-rate surfaces).
    boundary_margin: float = 0.0


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
    """Value whose two positive roots bound the collapse interval: an
    exponential polynomial in the rate, whose sign decides whether moving
    the three-point design's free point toward 0 lowers the condition number."""
    b = _require_positive("rate", beta)
    if b > COLLAPSE_EQUATION_MAX_RATE:
        raise ValidationError(f"rate {b:g} overflows exp(4*beta); both roots lie far below")
    e1, e2, e3, e4 = (math.exp(k * b) for k in (1.0, 2.0, 3.0, 4.0))
    return ((b * b - 6.0 * b + 4.0) * e4 + (6.0 * b * b + 6.0 * b - 10.0) * e3
            - (11.0 * b * b - 10.0 * b - 2.0) * e2 + (2.0 * b * b - 6.0 * b + 10.0) * e1
            - 2.0 * b * b - 4.0 * b - 6.0)


@functools.cache
def collapse_interval() -> CollapseInterval:
    """Both positive roots of :func:`collapse_equation`, bisected to the
    last bit once per process: the lower in (0.01, 1), the upper in (1, 10)."""
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

    A level re-grids p = REFINE_POINTS points per axis around the running
    argmin, starting from the scan spacing, and shrinks every half-width w
    by 4/(p - 1): the new half-width is twice the old
    spacing 2w/(p - 1), so a minimum unimodal along each axis is never lost.
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
            k = _argmin(values, grids)
            x = [float(g[j]) for g, j in zip(grids, k)]
            gain = values[center] - values[k]
            edged = edged or gain > EDGE_GAIN_RTOL * abs(values[k]) and any(
                j in (0, REFINE_POINTS - 1) and c not in (a, b) for j, c, a, b in zip(k, x, lo, hi)
            )
            w = [4 / (REFINE_POINTS - 1) * h for h in w]
            if max(w) <= tol:
                break
        if not values[k] < value:
            break
        best, value = tuple(x), float(values[k])
        if not edged:
            break
    return best, value, evaluations


def _argmin(values, grids):
    """Index of the smallest value on the open mesh of the grids.  Ties go
    to the point whose sorted coordinates are smallest, then whose
    coordinates are: the rule commutes with swapping the axes, and on one
    ascending axis (or among nan values) it takes the first index."""
    flat = values.ravel()
    k = int(flat.argmin())
    ties = (flat == flat[k]).nonzero()[0]
    if ties.size > 1:
        x = [[g[j] for g, j in zip(grids, i)] for i in zip(*np.unravel_index(ties, values.shape))]
        k = int(ties[min(range(ties.size), key=lambda n: (sorted(x[n]), x[n]))])
    return np.unravel_index(k, values.shape)


def _scan_refine(f, axes, tol):
    """Scan the open mesh of the axes in one call (none exceeds 2^14 points),
    then refine its argmin (see :func:`_argmin`); returns (point, value,
    evaluations)."""
    values = f(*np.ix_(*axes))
    x, fx, evaluations = _refine(f, axes, _argmin(values, axes), tol)
    return x, fx, values.size + evaluations


def _checked_value(value, criterion, *rates):
    """A search's best criterion value, once it is positive and finite."""
    if not 0.0 < value < math.inf:
        where = ", ".join(f"{r:g}" for r in rates)
        raise NumericalError(
            f"{criterion} search at rate{'s' * (len(rates) > 1)} {where} finds no positive "
            f"finite criterion value (best {value:g}) in double precision")
    return float(value)


def _log_axis(lo, hi, points, rate):
    """Scan axis in log d over the window [lo, hi], whose floor follows
    the rate."""
    if not lo > 0.0:
        raise NumericalError(f"the scan window's floor underflows to 0 at rate {rate:g}")
    return np.linspace(math.log(lo), math.log(hi), points)


# Every criterion evaluation of a search: extreme rates end in the package's
# errors (NumericalError, SingularFimError), not in numpy warnings first.
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


def _unit_search(crit, rates, point, value, evaluations, f=None):
    """Result of a search over the free coordinates d of {0, d, 1}, one
    unit axis per rate, that found ``point`` and its criterion ``value`` in
    ``evaluations``.  A coordinate at exactly 0 or 1 has collapsed; only K
    searches collapse, and pass their criterion f for the boundary margin."""
    with np.errstate(**_QUIET):
        collapsed, margin = tuple(c in (0.0, 1.0) for c in point), 0.0
        if any(collapsed):
            # 0 -> MARGIN_STEP and 1 -> 1 - MARGIN_STEP
            inside = [abs(c - MARGIN_STEP) if k else c for c, k in zip(point, collapsed)]
            margin, evaluations = (float(f(*inside)) - value) / abs(value), evaluations + 1
    grid = len(rates) == 2
    return SearchResult(argopt=tuple(point) if grid else point[0],
                        value=_checked_value(value, crit, *rates), converged=True,
                        collapsed=any(collapsed), iterations=evaluations,
                        bracket=((0.0, 1.0),) * 2 if grid else (0.0, 1.0),
                        collapsed_axes=collapsed if grid else None, boundary_margin=margin)


def _k_slope(entries, slopes):
    """The sign of dK/du from 2x2 entries and their u-derivatives: K + 1/K +
    2 = tr^2/det, so that of 2 det tr_u - tr det_u = (l1 - l3)(l3 l1_u - l1 l3_u)
    + 2 l2((l1 + l3) l2_u - l2(l1_u + l3_u)), over tr^2 to stay finite."""
    (l1, l2, l3), (l1_u, l2_u, l3_u) = entries, slopes
    tr = l1 + l3
    a, b, c = l1 / tr, l2 / tr, l3 / tr
    return (l1 - l3) / tr * (c * l1_u - a * l3_u) + 2.0 * b * (l2_u - b * (l1_u + l3_u))


def _unit_criterion(crit, rate, d, axis=False):
    """K, D or, on a nine-point D ``axis``, l1*det of {0, d, 1}; batched over d."""
    e = _points_entries(rate, _free_point_design(d))
    return k_objective_1d(e) if crit == "K" else d_objective_1d(e) * (e.l1 if axis else 1.0)


def _free_point(crit, rate, axis=False):
    """(d, criterion, sign evaluations) at the best free point d of {0, d, 1}
    (:func:`_unit_criterion`): each minus-to-plus change of the slope (of -D
    for D) on 0 and FREE_POINT_CELLS geometric cells from min(1e-3, 1e-3/rate)
    is bisected.  Each criterion falls from the merged design at 0 (K outside
    the collapse interval).  K's grid ends at 1; mirror-symmetric D's at 1/2 -
    CENTER_STEP, the center being optimal if no root is found.  Slopes below
    rate 1e-50 underflow: they are taken there, where every root is 1/2."""
    r, top = max(rate, 1e-50), 1.0 if crit == "K" else 0.5 - CENTER_STEP

    def slope(d):
        if not d:
            return -1.0
        entries, slopes = _free_point_slopes(r, d)
        if crit == "K":
            return _k_slope(entries, slopes)
        (l1, l2, l3), (l1_x, l2_x, l3_x) = entries, slopes
        det_x = l1_x * l3 + l1 * l3_x - 2.0 * l2 * l2_x
        return -(l1_x * (l1 * l3 - l2 * l2) + l1 * det_x) if axis else -det_x

    lo, hi = math.log(min(1e-3, 1e-3 / rate)), math.log(top)
    cells = [math.exp(lo + k / FREE_POINT_CELLS * (hi - lo)) for k in range(FREE_POINT_CELLS)]
    grid = [0.0, *cells, top]
    falling = [slope(d) < 0.0 for d in grid]
    roots, evaluations = [], len(grid) - 1
    for a, b, fa, fb in zip(grid, grid[1:], falling, falling[1:]):
        if fa and not fb:
            root, n = _bisect(slope, a, b)
            roots.append(root)
            evaluations += n
    with np.errstate(**_QUIET):
        value, best = (min if crit == "K" else max)(
            (float(_unit_criterion(crit, rate, d, axis)), d) for d in roots or [0.5])
    if (not roots and crit == "K") or not rate * min(best, 1.0 - best) > 0.0:  # gaps underflow
        raise NumericalError(f"{crit} search at rate {rate:g} finds no optimum in double precision")
    return best, value, evaluations


def three_point_restricted_1d(params: OuParams, criterion: str = "D") -> SearchResult:
    """Optimal free point d of the design {0, d, 1} on [0, 1].

    Criterion "D" maximizes the determinant: the maximum sits at the
    center d = 1/2 for rates up to ~7.1564 and then splits into two
    mirror-symmetric maxima that migrate toward the ends; the one below 1/2
    is reported.  Criterion "K" minimizes the condition number, attained at
    d in {0, 1} exactly inside :func:`collapse_interval`, where the merged
    design {0, 1} (argopt 0) is reported without a search.
    """
    crit = _check_criterion(criterion)
    (beta,) = _rates(params, OuParams)
    f = functools.partial(_unit_criterion, crit, beta)
    if crit == "K" and collapse_interval().contains(beta):
        return _unit_search(crit, (beta,), (0.0,), float(f(0.0)), 1, f)
    d, value, evaluations = _free_point(crit, beta)
    return _unit_search(crit, (beta,), (d,), value, evaluations, f)


def _check_criterion(criterion: str) -> str:
    crit = str(criterion).upper()
    if crit not in ("D", "K"):
        raise ValidationError(f"criterion must be 'D' or 'K', got {criterion!r}")
    return crit


def _spacing_search(rate: float, n: int) -> SearchResult:
    """K search over the step d of {0, d, ..., (n-1)d}: the root of dK/du,
    u = log(d/scale), bisected to the last bit on the window
    [min(1e-4, 1e-2*rate/(n-1)), 1e4], which follows the optimum's rate/(n-1)
    at small rates; scale = min(1, rate)/(n-1) keeps an ulp of u near one of
    d.  Entries that overflow at the window's floor (rate < ~1e-153) are
    singular."""
    lo, hi, scale = min(1e-4, 1e-2 * rate / (n - 1)), 1e4, min(1.0, rate) / (n - 1)

    def slope(u):
        return _k_slope(*_equidistant_slopes(rate, scale * math.exp(u), n))

    with np.errstate(**_QUIET):
        try:
            u, evaluations = _bisect(slope, math.log(lo / scale), math.log(hi / scale))
        except (ValidationError, ZeroDivisionError):
            k_objective_1d(_equidistant_entries(rate, lo, n))
            raise
        root = scale * math.exp(u)
        value = k_objective_1d(_equidistant_entries(rate, root, n))
    return SearchResult(argopt=root, value=_checked_value(value, "K", rate), converged=True,
                        collapsed=False, iterations=evaluations, bracket=(lo, hi), boundary_margin=0.0)


def two_point_k_optimal(params: OuParams) -> SearchResult:
    """Unique condition-number-optimal spacing of the design {0, d}, near
    2*rate at small rates: the equidistant search with n = 2.  Rates below
    TWO_POINT_MIN_RATE raise :class:`ValidationError`."""
    (beta,) = _rates(params, OuParams)
    if beta < TWO_POINT_MIN_RATE:
        raise ValidationError(
            f"rate {beta:g} is below {TWO_POINT_MIN_RATE:g}, where the two-point "
            "spacing equation cannot be solved in double precision; the root is 2*rate there"
        )
    return _spacing_search(beta, 2)


def equidistant_k_optimal_1d(params: OuParams, n: int) -> SearchResult:
    """Global condition-number-optimal step size of the equidistant
    n-point design, over d > 0: K diverges for vanishing and growing steps
    and is unimodal in log d between, so the optimum is the one root of
    dK/d(log d), bisected to the last bit."""
    n = _check_count("n", n, 2)
    (beta,) = _rates(params, OuParams)
    return _spacing_search(beta, n)


def equidistant_d_monotone_check(params: OuParams, n: int, d_grid) -> bool:
    """True when the determinant criterion strictly increases along the
    given step-size grid (so no finite step is determinant-optimal)."""
    d = np.sort(np.asarray(d_grid, dtype=float), axis=None)
    if d.size < 2:
        raise ValidationError("d_grid needs at least two step sizes")
    (beta,) = _rates(params, OuParams)
    _check_equidistant_args(beta, d, n)
    det = d_objective_1d(_equidistant_entries(beta, d, int(n)))
    return bool(np.all(np.diff(det) > 0.0))


def nine_point_restricted_2d(params: SheetParams, criterion: str = "D") -> SearchResult:
    """Optimal free coordinates (d, delta) of the grid {0, d, 1} x {0, delta,
    1} on the unit square.

    Criterion "D" maximizes the determinant, which factorizes as
    (l1*det_s) * (m1*det_t): each coordinate is optimized on its own axis
    (:func:`_free_point`) and sits at 1/2 for axis rates up to ~9.1778,
    migrating off-center above that.  Criterion "K" minimizes the condition
    number, flagging collapse per coordinate at {0, 1}.
    """
    crit = _check_criterion(criterion)
    beta, gamma = _rates(params, SheetParams)

    if crit == "D":  # the determinant is the product of the axes' l1*det
        (d, vs, es), (dl, vt, et) = (_free_point(crit, r, axis=True) for r in (beta, gamma))
        return _unit_search(crit, (beta, gamma), (d, dl), vs * vt, es + et)

    def f2(d, dl):
        s = _points_entries(beta, _free_point_design(d))
        t = _points_entries(gamma, _free_point_design(dl))
        return _cond3_from_entries(FimEntries2D(s, t))[0]

    axes = (np.linspace(0.0, 1.0, SCAN_POINTS),) * 2
    with np.errstate(**_QUIET):
        point, value, evaluations = _scan_refine(f2, axes, REFINE_TOL)
    return _unit_search(crit, (beta, gamma), point, value, evaluations, f2)


def four_point_grid_k_optimal(params: SheetParams) -> SearchResult:
    """Condition-number-optimal spacings (d, delta) of the 2x2 grid
    {0, d} x {0, delta} over the open quarter plane.

    Each axis is scanned in log d from min(1e-3, rate/10) up to 1e3 and
    refined to REFINE_TOL relative; an optimum pinned at a scan
    window's end reports ``converged=False``.
    """
    beta, gamma = rates = _rates(params, SheetParams)

    def f2(u, v):
        s, t = _equidistant_entries(beta, np.exp(u), 2), _equidistant_entries(gamma, np.exp(v), 2)
        return _cond3_from_entries(FimEntries2D(s, t))[0]

    windows = tuple((min(1e-3, 0.1 * rate), 1e3) for rate in rates)
    axes = tuple(_log_axis(lo, hi, SCAN_POINTS, rate) for (lo, hi), rate in zip(windows, rates))
    with np.errstate(**_QUIET):
        uv, value, evaluations = _scan_refine(f2, axes, REFINE_TOL)
    return SearchResult(argopt=tuple(math.exp(c) for c in uv),
                        value=_checked_value(value, "K", *rates),
                        converged=not any(c in (a[0], a[-1]) for c, a in zip(uv, axes)),
                        collapsed=False, iterations=evaluations, bracket=windows,
                        collapsed_axes=(False, False), boundary_margin=0.0)


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
    results = ((b, three_point_restricted_1d(OuParams(b), "K")) for b in map(float, betas))
    return [KoptCurvePoint1D(b, float(r.argopt), r.value, r.collapsed) for b, r in results]


def kopt_surface_2d(betas, gammas) -> list[KoptSurfacePoint2D]:
    """Condition-number-optimal nine-point coordinates over a rate grid."""
    cells = ((float(b), float(g)) for b in betas for g in gammas)
    results = ((c, nine_point_restricted_2d(SheetParams(*c), "K")) for c in cells)
    return [KoptSurfacePoint2D(*c, *r.argopt, r.value, *r.collapsed_axes) for c, r in results]
