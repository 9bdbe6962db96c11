"""Independent oracle for the benchmark's output checks.

Everything here is recomputed from definitions with generic dense linear
algebra and uses no closed form of ``oudesign``:

* correlations come pairwise from coordinates, ``exp(-beta*|s_i - s_j|)``;
* information matrices are ``H C^-1 H^T`` through ``numpy.linalg.solve``;
* condition numbers come from ``numpy.linalg.eigvalsh``;
* a grid's 3x3 information matrix is assembled from the separable
  products of its two axes' dense 1D information matrices (the grid
  correlation is the Kronecker product of the axis correlations).

Accuracy.  A dense solve loses digits as design points merge.  Measured
against 50-digit mpmath solves, the relative error of a condition number
is about 2e-16/x, where x is the design's smallest scaled gap beta*d
(2e-5 at x = 1e-12, 8e-8 at 1e-10, 3e-9 at 1e-8).  :func:`rtol` allows
50 times that plus 1e-9, and every comparison below uses the tolerance
of the oracle value it compares against.
"""

from __future__ import annotations

import math

import numpy as np

# Relative slack for comparisons that the oracle's rounding cannot explain:
# searches refine to 1e-8..1e-10 in the coordinate, which moves a value at
# an optimum by far less than this.
BASE_RTOL = 1e-9


def rtol(x_min):
    """Relative error allowance of a dense-solve value at smallest scaled gap x_min."""
    x = np.maximum(np.asarray(x_min, dtype=float), 1e-300)
    return BASE_RTOL + 1e-14 / x


# --- information matrices ---------------------------------------------------


def fim_1d(beta, pts):
    """2x2 information matrices of 1D designs; ``pts`` has shape (..., n)."""
    s = np.asarray(pts, dtype=float)
    corr = np.exp(-beta * np.abs(s[..., :, None] - s[..., None, :]))
    h = np.stack([np.ones_like(s), s], axis=-1)  # (..., n, 2)
    x = np.linalg.solve(corr, h)
    return np.swapaxes(h, -1, -2) @ x


def fim_grid(fs, ft):
    """3x3 grid information matrices on (1, s, t) from the axis matrices.

    With C = Cs (x) Ct and the basis (1, s, t) on the s-major grid, each
    entry is a product of one s-axis and one t-axis quadratic form.
    """
    fs = np.asarray(fs)
    ft = np.asarray(ft)
    shape = np.broadcast_shapes(fs.shape[:-2], ft.shape[:-2])
    a, b, c = fs[..., 0, 0], fs[..., 0, 1], fs[..., 1, 1]
    p, q, r = ft[..., 0, 0], ft[..., 0, 1], ft[..., 1, 1]
    out = np.empty(shape + (3, 3))
    out[..., 0, 0] = a * p
    out[..., 0, 1] = out[..., 1, 0] = b * p
    out[..., 0, 2] = out[..., 2, 0] = a * q
    out[..., 1, 1] = c * p
    out[..., 1, 2] = out[..., 2, 1] = b * q
    out[..., 2, 2] = a * r
    return out


def cond(fim):
    """Condition numbers (largest over smallest eigenvalue); inf if not PD."""
    w = np.linalg.eigvalsh(fim)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = w[..., -1] / w[..., 0]
    return np.where(w[..., 0] > 0.0, k, np.inf)


def det(fim):
    return np.linalg.det(fim)


def criterion(fim, crit):
    """Value to minimize: the condition number for K, minus the determinant for D."""
    return cond(fim) if crit == "K" else -det(fim)


# --- design families ----------------------------------------------------------


def unit_scan(beta, per_side=400, middle=201):
    """Free coordinates d in (0, 1) for {0, d, 1}: log-spaced toward both
    ends (down to scaled gap 1e-12) and linear in between."""
    lo = min(max(1e-15, 1e-12 / beta), 1e-3)
    lo1 = min(max(1e-13, 1e-12 / beta), 1e-3)
    d = np.concatenate(
        [
            np.geomspace(lo, 0.5, per_side),
            1.0 - np.geomspace(lo1, 0.5, per_side),
            np.linspace(0.0, 1.0, middle)[1:-1],
        ]
    )
    return np.unique(d)


def restricted_axis(beta, d):
    """Information matrices and smallest scaled gaps of {0, d, 1} for an
    array of d; d = 0 or 1 stands for the merged design {0, 1}."""
    d = np.asarray(d, dtype=float)
    merged = (d <= 0.0) | (d >= 1.0)
    inner = np.where(merged, 0.5, d)
    pts = np.stack([np.zeros_like(inner), inner, np.ones_like(inner)], axis=-1)
    f = fim_1d(beta, pts)
    f = np.where(merged[..., None, None], fim_1d(beta, np.array([0.0, 1.0])), f)
    x = beta * np.where(merged, 1.0, np.minimum(inner, 1.0 - inner))
    return f, x


def equidistant_points(d, n):
    return d * np.arange(n, dtype=float)


# Range of log_scan: scaled gaps beta*d, clipped to absolute spacings.
LOG_SCAN_X = (1e-12, 1e4)
LOG_SCAN_D = (1e-12, 1e12)


def log_scan(beta, per_decade):
    """Positive spacings d covering scaled gaps LOG_SCAN_X and absolute
    spacings [1e-3, 1e3] (where an uncorrelated design's optimum lies)."""
    lo = max(min(LOG_SCAN_X[0] / beta, 1e-3), LOG_SCAN_D[0])
    hi = min(max(LOG_SCAN_X[1] / beta, 1e3), LOG_SCAN_D[1])
    k = int(per_decade * math.log10(hi / lo)) + 1
    return np.geomspace(lo, hi, k)


# --- verdicts ---------------------------------------------------------------


def no_worse(value, scan_values, scan_x):
    """True when ``value`` is no larger than any finite scan value, each
    allowed its own oracle error."""
    v = np.asarray(scan_values, dtype=float)
    slack = rtol(np.broadcast_to(scan_x, v.shape)) * np.abs(v)
    ok = np.isfinite(v)
    return bool(np.all(value <= (v + slack)[ok]))


def matches(value, reference, x_min):
    return bool(abs(value - reference) <= rtol(x_min) * abs(reference))


class Verdict:
    """Pass/fail with the reason, so a failed operation can be reported."""

    __slots__ = ("ok", "why")

    def __init__(self, ok, why=""):
        self.ok = bool(ok)
        self.why = why

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"Verdict({self.ok}, {self.why!r})"


def verdict(checks):
    """Verdict of (failure message, passed) pairs: passes when all pass."""
    bad = [name for name, ok in checks if not ok]
    return Verdict(not bad, "; ".join(bad))


def check_three_point(beta, crit, d, value):
    """Optimum of {0, d, 1} on [0, 1] under D (det, maximized) or K (cond)."""
    f, x = restricted_axis(beta, np.array(d))
    ref = float(det(f)) if crit == "D" else float(cond(f))
    grid = unit_scan(beta)
    fs, xs = restricted_axis(beta, np.concatenate([grid, [0.0]]))
    scan = criterion(fs, crit)
    signed = -value if crit == "D" else value
    return verdict(
        [
            (f"value {value:.10g} != oracle {ref:.10g} at d={d:.6g}", matches(value, ref, x)),
            (f"scan beats {value:.10g}: {scan.min():.10g}", no_worse(signed, scan, xs)),
        ]
    )


# Per-axis unit_scan of the nine-point check: (per_side, middle).
NINE_POINT_SCAN = (80, 41)


def check_nine_point(beta, gamma, crit, d, delta, value):
    """Optimum of {0, d, 1} x {0, delta, 1} under D or K."""
    fs, xs = restricted_axis(beta, np.array(d))
    ft, xt = restricted_axis(gamma, np.array(delta))
    g = fim_grid(fs, ft)
    ref = float(det(g)) if crit == "D" else float(cond(g))
    x_ref = min(float(xs), float(xt))
    gs = np.concatenate([unit_scan(beta, *NINE_POINT_SCAN), [0.0]])
    gt = np.concatenate([unit_scan(gamma, *NINE_POINT_SCAN), [0.0]])
    fs_all, xs_all = restricted_axis(beta, gs)
    ft_all, xt_all = restricted_axis(gamma, gt)
    scan = criterion(fim_grid(fs_all[:, None], ft_all[None, :]), crit)
    xmin = np.minimum(xs_all[:, None], xt_all[None, :])
    signed = -value if crit == "D" else value
    return verdict(
        [
            (f"value {value:.10g} != oracle {ref:.10g} at ({d:.6g}, {delta:.6g})",
             matches(value, ref, x_ref)),
            (f"scan beats {value:.10g}: {scan.min():.10g}", no_worse(signed, scan, xmin)),
        ]
    )


def two_point_fims(beta, d):
    """Information matrices of {0, d} for an array of spacings d."""
    d = np.asarray(d, dtype=float)
    return fim_1d(beta, np.stack([np.zeros_like(d), d], axis=-1))


def check_two_point(beta, d, value):
    """K-optimal spacing of {0, d}."""
    ref = float(cond(two_point_fims(beta, d)))
    grid = log_scan(beta, TWO_POINT_PER_DECADE)
    scan = cond(two_point_fims(beta, grid))
    return verdict(
        [
            (f"value {value:.10g} != oracle {ref:.10g} at d={d:.6g}", matches(value, ref, beta * d)),
            (f"scan beats {value:.10g}: {scan.min():.10g}", no_worse(value, scan, beta * grid)),
        ]
    )


TWO_POINT_PER_DECADE = 40
FOUR_POINT_PER_DECADE = 12  # per axis


def check_four_point(beta, gamma, d, delta, value):
    """K-optimal spacings of {0, d} x {0, delta}."""
    ref = float(cond(fim_grid(two_point_fims(beta, d), two_point_fims(gamma, delta))))
    gs, gt = log_scan(beta, FOUR_POINT_PER_DECADE), log_scan(gamma, FOUR_POINT_PER_DECADE)
    scan = cond(fim_grid(two_point_fims(beta, gs)[:, None], two_point_fims(gamma, gt)[None, :]))
    xmin = np.minimum(beta * gs[:, None], gamma * gt[None, :])
    return verdict(
        [
            (f"value {value:.10g} != oracle {ref:.10g} at ({d:.6g}, {delta:.6g})",
             matches(value, ref, min(beta * d, gamma * delta))),
            (f"scan beats {value:.10g}: {scan.min():.10g}", no_worse(value, scan, xmin)),
        ]
    )


class EquidistantScan:
    """Condition numbers of equidistant designs {0, d, ..., (n-1)d} over a
    grid of scaled steps x = beta*d, shared by every rate.

    The correlation of the design depends on x alone and the basis is
    diag(1, d) applied to (1, i), so the information matrix at rate beta
    and step d = x/beta is diag(1, d) F(x) diag(1, d), with F(x) the
    dense information matrix of the points 0..n-1 at rate x.  From
    x = 40 on, exp(-x) < 5e-18 and the correlation is the identity to
    rounding, so one solve serves every larger x.
    """

    IDENTITY_X = 40.0
    X_RANGE = (1e-13, 1e9)
    PER_DECADE = 3

    def __init__(self):
        lo, hi = self.X_RANGE
        self.x = np.geomspace(lo, hi, int(self.PER_DECADE * math.log10(hi / lo)) + 1)
        self._unit = {}

    def unit_fims(self, n):
        if n not in self._unit:
            i = np.arange(n, dtype=float)
            far = fim_1d(self.IDENTITY_X, i)
            self._unit[n] = np.stack([fim_1d(x, i) if x < self.IDENTITY_X else far for x in self.x])
        return self._unit[n]

    def conds(self, beta, n):
        d = self.x / beta
        f = self.unit_fims(n).copy()
        f[:, 0, 1] *= d
        f[:, 1, 0] *= d
        f[:, 1, 1] *= d * d
        return cond(f)


def check_equidistant(beta, n, d, value, converged, scan: EquidistantScan):
    ref = float(cond(fim_1d(beta, equidistant_points(d, n))))
    # Local optimality at the reported step, then the global scan.
    near = np.array([d * (1.0 - 1e-3), d * (1.0 + 1e-3)])
    near_k = cond(fim_1d(beta, near[:, None] * np.arange(n, dtype=float)))
    return verdict(
        [
            ("search reports converged=false", converged),
            (f"value {value:.10g} != oracle {ref:.10g} at d={d:.6g}", matches(value, ref, beta * d)),
            (f"neighbours beat {value:.10g}: {near_k.min():.10g}", no_worse(value, near_k, beta * near)),
            (f"scan beats {value:.10g}", no_worse(value, scan.conds(beta, n), scan.x)),
        ]
    )


def doubling_cond_ratio(beta, gamma, n, mode):
    """Condition-number ratio of the grid {i/n} x {j/n} doubled in window
    (both directions, or only the first), from dense axis matrices."""
    base_s = fim_1d(beta, equidistant_points(1.0 / n, n + 1))
    base_t = fim_1d(gamma, equidistant_points(1.0 / n, n + 1))
    big_s = fim_1d(beta, equidistant_points(1.0 / n, 2 * n + 1))
    big_t = fim_1d(gamma, equidistant_points(1.0 / n, 2 * n + 1)) if mode == "both" else base_t
    return float(cond(fim_grid(big_s, big_t)) / cond(fim_grid(base_s, base_t)))


SURFACE_N_SEQUENCE = (25, 50, 100, 200, 400)


def check_surface_cell(beta, gamma, mode, estimate):
    """Richardson extrapolant 2*r(400) - r(200) of the doubling ratios."""
    r1, r2 = (doubling_cond_ratio(beta, gamma, n, mode) for n in SURFACE_N_SEQUENCE[-2:])
    ref = 2.0 * r2 - r1
    x = min(beta, gamma) / SURFACE_N_SEQUENCE[-1]
    return Verdict(matches(estimate, ref, x), f"estimate {estimate:.10g} != oracle {ref:.10g}")


# --- K-optimal designs and exact GLS accuracy for the Monte Carlo ----------------


REFINE_LEVELS = 6
REFINE_POINTS = 41


def _refine_1d(fun, lo, hi):
    """Minimize fun on [lo, hi] by REFINE_LEVELS zooming scans."""
    best = None
    for _ in range(REFINE_LEVELS):
        g = np.linspace(lo, hi, REFINE_POINTS)
        v = fun(g)
        i = int(np.nanargmin(v))
        best = (float(g[i]), float(v[i]))
        step = g[1] - g[0]
        lo, hi = max(lo, g[i] - step), min(hi, g[i] + step)
    return best


def kopt_three_point(beta):
    """Oracle K-optimal free point of {0, d, 1} (interior candidates only)."""
    grid = unit_scan(beta, 200, 201)
    v = cond(restricted_axis(beta, grid)[0])
    i = int(np.argmin(v))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    return _refine_1d(lambda d: cond(restricted_axis(beta, d)[0]), lo, hi)


# Designs this close (relative) to the best condition number are candidates.
CANDIDATE_RTOL = 1e-6


def kopt_nine_point_candidates(beta, gamma):
    """Every nine-point-family design whose oracle condition number is
    within CANDIDATE_RTOL of the family's best: the interior optimum, and the
    designs with one or both middle lines dropped (coordinate 0).

    Returns a list of (d, delta, cond) with 0 meaning a dropped line.
    """

    def k2(d, dl):
        return cond(fim_grid(restricted_axis(beta, d)[0], restricted_axis(gamma, dl)[0]))

    gs = unit_scan(beta, 60, 101)
    gt = unit_scan(gamma, 60, 101)
    v = k2(gs[:, None], gt[None, :])
    i, j = np.unravel_index(int(np.argmin(v)), v.shape)
    x, y = float(gs[i]), float(gt[j])
    wx = max(gs[min(i + 1, gs.size - 1)] - gs[max(i - 1, 0)], 1e-12)
    wy = max(gt[min(j + 1, gt.size - 1)] - gt[max(j - 1, 0)], 1e-12)
    for _ in range(8):
        ax = np.linspace(max(1e-15, x - wx), min(1.0 - 1e-15, x + wx), 31)
        ay = np.linspace(max(1e-15, y - wy), min(1.0 - 1e-15, y + wy), 31)
        vv = k2(ax[:, None], ay[None, :])
        a, b = np.unravel_index(int(np.argmin(vv)), vv.shape)
        x, y = float(ax[a]), float(ay[b])
        wx, wy = 2.0 * (ax[1] - ax[0]), 2.0 * (ay[1] - ay[0])
    cands = [(x, y, float(k2(np.array(x), np.array(y))))]
    ds, kd = _refine_1d(lambda d: k2(d, np.zeros_like(d)), 1e-9, 1.0 - 1e-9)
    dt, kt = _refine_1d(lambda dl: k2(np.zeros_like(dl), dl), 1e-9, 1.0 - 1e-9)
    cands += [(ds, 0.0, kd), (0.0, dt, kt), (0.0, 0.0, float(k2(np.array(0.0), np.array(0.0))))]
    best = min(c[2] for c in cands)
    return [c for c in cands if c[2] <= best * (1.0 + CANDIDATE_RTOL)]


def axis_points(c):
    return np.array([0.0, 1.0]) if c == 0.0 else np.array([0.0, c, 1.0])


def gls_exact_1d(beta, pts, sigma):
    """Exact mean (over coefficients) squared GLS error and the variance
    of one replicate's mean squared error, for a 1D design."""
    cov = sigma * sigma / (2.0 * beta) * np.linalg.inv(fim_1d(beta, np.asarray(pts, float)))
    return _mse_moments(cov)


def gls_exact_2d(beta, gamma, s_pts, t_pts, sigma):
    f = fim_grid(fim_1d(beta, np.asarray(s_pts, float)), fim_1d(gamma, np.asarray(t_pts, float)))
    cov = sigma * sigma / (4.0 * beta * gamma) * np.linalg.inv(f)
    return _mse_moments(cov)


def _mse_moments(cov):
    """For e ~ N(0, cov) in p dimensions, mean(e^2) has expectation tr/p
    and variance 2 tr(cov^2)/p^2."""
    p = cov.shape[0]
    return float(np.trace(cov)) / p, 2.0 * float(np.sum(cov * cov)) / (p * p)


def mc_z(mse, moments, replicates):
    """Standardized distance of a simulated MSE from its exact value."""
    mean, var = moments
    return (mse - mean) / math.sqrt(var / replicates)


def eff_se(k_moments, d_moments, replicates):
    """Exact Monte Carlo standard error of eff = 100 mse_k/mse_d, by the
    delta method over the two designs' independent simulated MSEs."""
    (mk, vk), (md, vd) = k_moments, d_moments
    return 100.0 * mk / md * math.sqrt((vk / mk**2 + vd / md**2) / replicates)
