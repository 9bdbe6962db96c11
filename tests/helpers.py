"""Shared helpers for the test suite."""

import numpy as np

from oudesign import Design1D, GridDesign2D
from oudesign.cli import TABLE1_LARGE, TABLE1_SMALL
from oudesign.objectives import _eigen3

# the 50 (beta, gamma) cells of the paper's Table 1
TABLE1_CELLS = tuple((b, g) for block in (TABLE1_SMALL, TABLE1_LARGE) for b in block for g in block)


def random_design(rng, n, min_gap=0.05, max_gap=1.0, start=0.0):
    gaps = rng.uniform(min_gap, max_gap, int(n) - 1)
    return Design1D(tuple(np.concatenate([[start], start + np.cumsum(gaps)])))


def random_grid(rng, n, m, **kwargs):
    return GridDesign2D(random_design(rng, n, **kwargs), random_design(rng, m, **kwargs))


def random_pd_matrix(rng, size, cond_range=(1.0, 1e4), min_rel_gap=0.0):
    """Random symmetric PD matrix with a controlled condition number:
    random orthogonal basis, log-uniform spectrum.

    ``min_rel_gap`` rejects spectra with nearly coincident eigenvalues
    (relative to the largest); invariant-based closed forms lose accuracy
    like eps/sqrt(gap) at near-double eigenvalues, so comparisons against
    iterative eigensolvers need separated spectra to be meaningful.
    """
    while True:
        q, _ = np.linalg.qr(rng.standard_normal((size, size)))
        lo = 10 ** rng.uniform(-2, 0)
        spread = rng.uniform(*cond_range)
        lam = lo * np.exp(np.sort(rng.uniform(0.0, np.log(spread), size)))
        if np.min(np.diff(lam)) >= min_rel_gap * lam[-1]:
            return (q * lam) @ q.T


def eigen3_closed(a):
    """Closed-form eigenvalues (lam_max, lam_mid, lam_min) of a symmetric
    3x3 matrix, with its principal-minor sum and determinant taken here."""
    c2 = ((a[0, 0] * a[1, 1] - a[0, 1] ** 2) + (a[0, 0] * a[2, 2] - a[0, 2] ** 2)
          + (a[1, 1] * a[2, 2] - a[1, 2] ** 2))
    return _eigen3(a[0, 0], a[1, 1], a[2, 2], a[0, 1], a[0, 2], a[1, 2], c2, np.linalg.det(a))


def cond3_closed(a):
    """Closed-form condition number of a symmetric positive definite 3x3
    matrix."""
    lam_max, _, lam_min = eigen3_closed(a)
    return lam_max / lam_min


def k_from_r(r):
    """The condition number of a 2x2 matrix from its r = trace^2/det, the
    form in which the paper displays it."""
    return ((np.sqrt(r) + np.sqrt(r - 4.0)) / 2.0) ** 2


def _fim_digits(mpmath, rate, points):
    """Entries (l1, l2, l3) of the information matrix H C^{-1} H^T of the
    given points, at mpmath's working precision."""
    b = mpmath.mpf(rate)
    s = [mpmath.mpf(p) for p in points]
    corr = mpmath.matrix([[mpmath.exp(-b * abs(x - y)) for y in s] for x in s])
    basis = mpmath.matrix([[1] * len(s), s])
    fim = basis * mpmath.inverse(corr) * basis.T
    return fim[0, 0], fim[0, 1], fim[1, 1]


def k_60_digits(mpmath, rate, points):
    """Condition number of the information matrix H C^{-1} H^T of the
    given points, to 60 digits; ``points`` may hold mpmath numbers."""
    with mpmath.workdps(60):
        l1, l2, l3 = _fim_digits(mpmath, rate, points)
        trace, det = l1 + l3, l1 * l3 - l2**2
        lam_max = (trace + mpmath.sqrt(trace * trace - 4 * det)) / 2
        return float(lam_max * lam_max / det)


def grid_k_digits(mpmath, dps, rates, s_points, t_points):
    """Condition number of the 3x3 information matrix of the grid
    s_points x t_points at the two axis rates, to ``dps`` digits, by
    mpmath's symmetric eigensolver."""
    with mpmath.workdps(dps):
        (l1, l2, l3), (m1, m2, m3) = (
            _fim_digits(mpmath, rate, points) for rate, points in zip(rates, (s_points, t_points))
        )
        fim = mpmath.matrix([[l1 * m1, l2 * m1, l1 * m2],
                             [l2 * m1, l3 * m1, l2 * m2],
                             [l1 * m2, l2 * m2, l1 * m3]])
        w = sorted(mpmath.eigsy(fim, eigvals_only=True))
        return float(w[-1] / w[0])
