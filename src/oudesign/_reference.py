"""Definitional reference computations used as test oracles.

Everything here recomputes quantities from their definitions with generic
dense linear algebra, independently of the closed forms in the public
modules: correlations from pairwise distances, information matrices as
basis @ C^{-1} @ basis.T with a dense solve, GLS through a dense inverse.
Kept in the package (not the test tree) so that the tests and the
benchmark oracle's own tests (``bench/test_oracle.py``) share one copy,
but deliberately not exported as public API; the CLI never imports it.
"""

from __future__ import annotations

import numpy as np

from .model import Design1D, GridDesign2D, OuParams, SheetParams


def correlation_direct_1d(params: OuParams, design: Design1D) -> np.ndarray:
    """exp(-beta * |s_i - s_j|) straight from pairwise distances."""
    s = design.as_array()
    return np.exp(-params.beta * np.abs(s[:, None] - s[None, :]))


def correlation_direct_2d(params: SheetParams, design: GridDesign2D) -> np.ndarray:
    """Separable kernel evaluated elementwise on the flattened grid."""
    s, t = design.flat_coordinates()
    return np.exp(
        -params.beta * np.abs(s[:, None] - s[None, :])
        - params.gamma * np.abs(t[:, None] - t[None, :])
    )


def fim_definitional_1d(params: OuParams, design: Design1D) -> np.ndarray:
    """H C^{-1} H^T with a dense solve; H = [ones; points]."""
    s = design.as_array()
    corr = correlation_direct_1d(params, design)
    basis = np.vstack([np.ones_like(s), s])
    return basis @ np.linalg.solve(corr, basis.T)


def fim_definitional_2d(params: SheetParams, design: GridDesign2D) -> np.ndarray:
    """G C^{-1} G^T with a dense solve; G = [ones; s; t] (s-major)."""
    s, t = design.flat_coordinates()
    corr = correlation_direct_2d(params, design)
    basis = np.vstack([np.ones_like(s), s, t])
    return basis @ np.linalg.solve(corr, basis.T)


def gls_dense(observations, design, params):
    """GLS estimate through an explicit dense inverse of the correlation."""
    y = np.asarray(observations, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None, :]
    if isinstance(design, Design1D):
        s = design.as_array()
        basis = np.vstack([np.ones_like(s), s])
        c_inv = np.linalg.inv(correlation_direct_1d(params, design))
    else:
        s, t = design.flat_coordinates()
        basis = np.vstack([np.ones_like(s), s, t])
        c_inv = np.linalg.inv(correlation_direct_2d(params, design))
    weighted = basis @ c_inv
    est = np.linalg.solve(weighted @ basis.T, weighted @ y.T).T
    return est[0] if single else est
