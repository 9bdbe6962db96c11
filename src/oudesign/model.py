"""Model primitives: parameters, designs, correlation matrices, sampling.

The driving noise is a stationary Gaussian process (1D) or sheet (2D)
with exponentially decaying correlation ``exp(-beta*|s - t|)``; in 2D the
kernel is the separable product over the two coordinates.  Information
computations elsewhere in the package use the unit-variance correlation
convention throughout: the noise scale ``sigma`` only enters observation
sampling, through the stationary variance ``sigma^2/(2 beta)`` in 1D and
``sigma^2/(4 beta gamma)`` in 2D.

All values are immutable after construction and all functions are pure,
so everything here is safe to share across threads.  The sampler takes an
explicit seed and uses a counter-based generator; there is no hidden
global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NearSingularDesignError, NumericalError, ValidationError

__all__ = [
    "OuParams",
    "SheetParams",
    "Design1D",
    "GridDesign2D",
    "TrendParams",
    "correlation_matrix_1d",
    "inv_correlation_matrix_1d",
    "inv_correlation_matrix_2d",
    "sample_observations",
]

# Scaled gap beta*d below this floor makes 1/(1 - exp(-2*beta*d)) blow up;
# near-coincident points are an error, not a silent regularization.
MIN_SCALED_GAP = 1e-12

# Cap on the grid size of the dense inverse grid correlation.
MAX_GRID_POINTS = 10_000


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a positive finite real, got {value!r}")
    return value


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int, once it is a whole number (not nan, inf or a
    fraction) of at least ``minimum``."""
    try:
        ok = int(value) == value and value >= minimum
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _variance(sigma: float, scale: float) -> float:
    """``sigma**2 / scale``, or inf where the square leaves the double range."""
    try:
        return sigma**2 / scale
    except OverflowError:
        return math.inf


def _noise_sd(params) -> float:
    """Standard deviation of the stationary noise, once it is finite."""
    if (sd := math.sqrt(params.stationary_variance)) == math.inf:
        raise NumericalError(
            f"noise standard deviation overflows double precision at sigma {params.sigma:g}"
        )
    return sd


@dataclass(frozen=True)
class OuParams:
    """Covariance parameters of the 1D driving process.

    ``beta`` is the inverse length-scale of the exponential correlation,
    ``sigma`` the noise scale.  The stationary variance of the process is
    ``sigma**2 / (2 * beta)``.
    """

    beta: float
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", _require_positive("beta", self.beta))
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma))

    @property
    def stationary_variance(self) -> float:
        return _variance(self.sigma, 2.0 * self.beta)


@dataclass(frozen=True)
class SheetParams:
    """Covariance parameters of the 2D driving sheet.

    ``beta`` and ``gamma`` are the inverse length-scales of the two
    coordinate directions.  The stationary variance is
    ``sigma**2 / (4 * beta * gamma)``.
    """

    beta: float
    gamma: float
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "beta", _require_positive("beta", self.beta))
        object.__setattr__(self, "gamma", _require_positive("gamma", self.gamma))
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma))

    @property
    def stationary_variance(self) -> float:
        return _variance(self.sigma, 4.0 * self.beta * self.gamma)


@dataclass(frozen=True)
class Design1D:
    """Strictly increasing observation points on the real line, n >= 2.

    Input points are sorted on construction (the information matrix only
    depends on the point set), duplicates are rejected.
    """

    points: tuple[float, ...]

    def __post_init__(self):
        try:
            pts = tuple(sorted(float(x) for x in self.points))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"design points must be reals: {exc}") from exc
        if len(pts) < 2:
            raise ValidationError("a design needs at least two points")
        if not all(math.isfinite(x) for x in pts):
            raise ValidationError("design points must be finite")
        if any(b - a <= 0.0 for a, b in zip(pts, pts[1:])):
            raise ValidationError("design points must be distinct")
        object.__setattr__(self, "points", pts)

    @classmethod
    def equidistant(cls, step: float, n: int) -> "Design1D":
        """Design {0, step, ..., (n-1)*step}."""
        step = _require_positive("step", step)
        return cls(tuple(i * step for i in range(_check_count("n", n, 2))))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def gaps(self) -> tuple[float, ...]:
        p = self.points
        return tuple(b - a for a, b in zip(p, p[1:]))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @property
    def axes(self) -> tuple[Design1D, ...]:
        return (self,)


@dataclass(frozen=True)
class GridDesign2D:
    """Regular grid: the Cartesian product of two 1D designs.

    Row/column ordering of every matrix built from this grid is s-major:
    flat index ``i*m + j`` holds location ``(s_i, t_j)``.
    """

    s: Design1D
    t: Design1D

    def __post_init__(self):
        if not isinstance(self.s, Design1D):
            object.__setattr__(self, "s", Design1D(tuple(self.s)))
        if not isinstance(self.t, Design1D):
            object.__setattr__(self, "t", Design1D(tuple(self.t)))

    @classmethod
    def equidistant(cls, d: float, delta: float, n: int, m: int) -> "GridDesign2D":
        return cls(Design1D.equidistant(d, n), Design1D.equidistant(delta, m))

    @property
    def n(self) -> int:
        return self.s.n

    @property
    def m(self) -> int:
        return self.t.n

    @property
    def size(self) -> int:
        return self.s.n * self.t.n

    @property
    def axes(self) -> tuple[Design1D, ...]:
        return (self.s, self.t)

    def flat_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """(s, t) coordinates of all grid points in s-major order."""
        s = np.repeat(self.s.as_array(), self.t.n)
        t = np.tile(self.t.as_array(), self.s.n)
        return s, t


@dataclass(frozen=True)
class TrendParams:
    """Regression coefficients of the linear trend.

    1D model: ``alpha0 + alpha1*s``; 2D model additionally has the
    ``alpha2*t`` term (leave ``alpha2`` as None for the 1D model).
    """

    alpha0: float
    alpha1: float
    alpha2: float | None = None

    def __post_init__(self):
        for name in ("alpha0", "alpha1", "alpha2"):
            v = getattr(self, name)
            if v is None:
                continue
            v = float(v)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, v)

    def coefficients(self) -> np.ndarray:
        if self.alpha2 is None:
            return np.array([self.alpha0, self.alpha1])
        return np.array([self.alpha0, self.alpha1, self.alpha2])

    def mean(self, design: Design1D | GridDesign2D) -> np.ndarray:
        """Trend at the design points (s-major on a grid); the trend
        needs one coefficient more than the design has axes."""
        basis = _basis(design)
        coef = self.coefficients()
        if coef.size != len(basis):
            raise ValidationError(
                f"a trend on {len(basis) - 1} axes needs {len(basis)} coefficients, "
                f"got {coef.size}"
            )
        return sum((c * x for c, x in zip(coef[1:], basis[1:])), coef[0]).reshape(-1)


def _basis(design: Design1D | GridDesign2D) -> np.ndarray:
    """Trend basis rows (1, s[, t]) on the design's (n[, m]) shape."""
    axes = design.axes
    basis = np.ones((1 + len(axes),) + tuple(axis.n for axis in axes))
    for k, axis in enumerate(axes, start=1):
        basis[k] = axis.as_array().reshape((-1,) + (1,) * (len(axes) - k))
    return basis


def _rates(params, model) -> tuple[float, ...]:
    """The axis rates of ``params``, (beta,) or (beta, gamma), once it is an
    instance of ``model``, OuParams or SheetParams: the check of every entry
    point that takes one model's params, with a design or without."""
    if not isinstance(params, model):
        raise ValidationError(f"{model.__name__} required, got {type(params).__name__}")
    return (params.beta,) if model is OuParams else (params.beta, params.gamma)


def _axes(params, design, model=None) -> tuple[tuple[float, Design1D], ...]:
    """The (rate, Design1D) pair of each axis: one for a process, two for a
    grid, whose sheet correlation is the product of the axis ones.  The one
    place where a design's axes meet the params' rates (entries, criteria,
    dense builders, sampler, Monte Carlo); a mismatched pair, or a pair of
    another ``model`` than the caller's, raises :class:`ValidationError`."""
    if not isinstance(design, (Design1D, GridDesign2D)):
        raise ValidationError(f"unsupported design type {type(design).__name__}")
    name, kind = ("1D", OuParams) if isinstance(design, Design1D) else ("grid", SheetParams)
    if not isinstance(params, kind):
        raise ValidationError(f"{name} designs require {kind.__name__}")
    return tuple(zip(_rates(params, model or kind), design.axes))


def _check_scaled_gaps(x):
    """Scaled gaps or steps ``x`` (an array or a float), once none is
    below ``MIN_SCALED_GAP``."""
    if np.any(x < MIN_SCALED_GAP):
        raise NearSingularDesignError(
            f"scaled gap beta*d below {MIN_SCALED_GAP:g}; design points are "
            "numerically coincident at this length-scale"
        )
    return x


def _scaled_gaps(beta: float, design: Design1D) -> np.ndarray:
    return _check_scaled_gaps(beta * np.diff(design.as_array()))


def _gap_decay(beta: float, design: Design1D) -> tuple[np.ndarray, np.ndarray]:
    """Per-gap decay ``p_k = exp(-beta*d_k)`` and ``1 - p_k^2`` (computed
    stably), once no scaled gap is below ``MIN_SCALED_GAP``."""
    x = _scaled_gaps(beta, design)
    return np.exp(-x), -np.expm1(-2.0 * x)


def _precision_bands(beta: float, design: Design1D) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal inverse correlation.

    With ``p_k = exp(-beta*d_k)`` the diagonal is ``1/(1-p_1^2)``, then
    ``1/(1-p_k^2) + p_{k-1}^2/(1-p_{k-1}^2)`` in the interior and
    ``1/(1-p_{n-1}^2)`` at the end; the off-diagonal is
    ``-p_k/(1-p_k^2)``.
    """
    p, one_minus_p2 = _gap_decay(beta, design)
    inv_1mp2 = 1.0 / one_minus_p2
    diag = np.empty(design.n)
    diag[0] = inv_1mp2[0]
    diag[-1] = inv_1mp2[-1]
    diag[1:-1] = inv_1mp2[1:] + p[:-1] ** 2 * inv_1mp2[:-1]
    return diag, -p * inv_1mp2


def _whiten(beta: float, design: Design1D, v: np.ndarray, axis: int) -> np.ndarray:
    """``v`` along ``axis`` times the inverse lower Cholesky factor of the
    axis correlation matrix: the inverse AR(1) recursion ``w_0 = v_0``,
    ``w_k = (v_k - p_k*v_{k-1}) / sqrt(1 - p_k^2)``.  The numerator is
    taken as ``v_k - v_{k-1} - expm1(-beta*d_k)*v_{k-1}``, so values at
    nearby points keep their digits."""
    x = _scaled_gaps(beta, design)
    v = np.moveaxis(v, axis, -1)
    prev = v[..., :-1]
    step = (v[..., 1:] - prev - np.expm1(-x) * prev) / np.sqrt(-np.expm1(-2.0 * x))
    return np.moveaxis(np.concatenate([v[..., :1], step], axis=-1), -1, axis)


def correlation_matrix_1d(params: OuParams, design: Design1D) -> np.ndarray:
    """Correlation matrix of observations at the design points.

    Entry (i, j) is the product of the per-gap decay factors
    ``exp(-beta*d_k)`` between i and j, i.e. ``exp(-beta*|s_i - s_j|)``;
    the diagonal is exactly one.
    """
    ((beta, axis),) = _axes(params, design, OuParams)
    w = np.concatenate([[0.0], np.cumsum(beta * np.diff(axis.as_array()))])
    return np.exp(-np.abs(w[:, None] - w[None, :]))


def inv_correlation_matrix_1d(params: OuParams, design: Design1D) -> np.ndarray:
    """Analytic tridiagonal inverse of :func:`correlation_matrix_1d`.

    The bands are those of :func:`_precision_bands`; everything beyond
    the first off-diagonal is exactly zero.

    Raises :class:`NearSingularDesignError` when any ``beta*d_k`` falls
    below ``MIN_SCALED_GAP``.
    """
    ((beta, axis),) = _axes(params, design, OuParams)
    diag, off = _precision_bands(beta, axis)
    n = axis.n
    out = np.zeros((n, n))
    idx = np.arange(n)
    out[idx, idx] = diag
    out[idx[:-1], idx[1:]] = off
    out[idx[1:], idx[:-1]] = off
    return out


def inv_correlation_matrix_2d(params: SheetParams, design: GridDesign2D) -> np.ndarray:
    """Inverse of the grid correlation matrix (s-major), as the Kronecker
    product of the two analytic axis inverses.  Grids above
    ``MAX_GRID_POINTS`` points raise :class:`ValidationError`."""
    (beta, s), (gamma, t) = _axes(params, design, SheetParams)
    if design.size > MAX_GRID_POINTS:
        raise ValidationError(
            f"grid has {design.size} points, above the cap of {MAX_GRID_POINTS}"
        )
    return np.kron(inv_correlation_matrix_1d(OuParams(beta), s),
                   inv_correlation_matrix_1d(OuParams(gamma), t))


def _apply_ar1_factor(beta: float, design: Design1D, z: np.ndarray, axis: int) -> None:
    """Multiply ``z`` in place along ``axis`` by the lower Cholesky factor
    of the axis correlation matrix.

    That factor is the exact AR(1) recursion ``x_0 = z_0``,
    ``x_k = p_k*x_{k-1} + sqrt(1 - p_k^2)*z_k`` with ``p_k = exp(-beta*d_k)``.
    """
    p, one_minus_p2 = _gap_decay(beta, design)
    q = np.sqrt(one_minus_p2)
    v = np.moveaxis(z, axis, 0)
    for k in range(1, v.shape[0]):
        v[k] *= q[k - 1]
        v[k] += p[k - 1] * v[k - 1]


def sample_observations(
    params: OuParams | SheetParams,
    design: Design1D | GridDesign2D,
    trend: TrendParams,
    count: int,
    seed,
) -> np.ndarray:
    """Draw ``count`` exact samples of the observed process at the design.

    Each row is the trend mean plus a zero-mean Gaussian vector whose
    covariance is the stationary variance times the correlation matrix.
    Standard normals from a counter-based generator go through the exact
    Cholesky factor of the correlation, applied as the AR(1) recursion of
    the process along each axis (in 2D the factor is the Kronecker product
    of the axis factors).  No dense covariance is formed, so memory is
    O(count * n_points), and output is reproducible bit for bit for a
    given ``seed`` (an int or a ``numpy.random.SeedSequence``).
    Near-coincident points raise :class:`NearSingularDesignError`, and a
    noise standard deviation past the double range :class:`NumericalError`.

    Returns an array of shape ``(count, n_points)``.
    """
    count = _check_count("count", count, 1)
    axes = _axes(params, design)
    mean = trend.mean(design)
    sd = _noise_sd(params)
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((count, mean.size))
    grid = z.reshape((count,) + tuple(axis_design.n for _, axis_design in axes))
    for axis, (beta, axis_design) in enumerate(axes, start=1):
        _apply_ar1_factor(beta, axis_design, grid, axis)
    z *= sd
    z += mean
    return z
