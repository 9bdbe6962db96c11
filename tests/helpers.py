"""Shared helpers for the test suite."""

import numpy as np

from oudesign import Design1D, GridDesign2D
from oudesign.cli import TABLE1_LARGE, TABLE1_SMALL

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
