"""Exact Fisher information matrices for the linear-trend models.

For the 1D model ``alpha0 + alpha1*s`` observed at points s_1 < ... < s_n
with exponential correlation, the 2x2 information matrix on
(alpha0, alpha1) has closed-form entries built from the per-gap decay
factors ``p_i = exp(-beta*d_i)``:

    l1 = 1 + sum (1 - p_i)/(1 + p_i)
    l2 = s_1 + sum (s_{i+1} - s_i*p_i)/(1 + p_i)
    l3 = s_1^2 + sum (s_{i+1} - s_i*p_i)^2/(1 - p_i^2)

The 2D grid model ``alpha0 + alpha1*s + alpha2*t`` factorizes over the
axes: the s-axis contributes one such triple (with rate beta), the t-axis
another (with rate gamma), and the 3x3 matrix is assembled from their
products.  The first design point is NOT assumed to sit at the origin;
anchoring is the caller's choice.

Equidistant designs admit direct closed forms, kept numerically stable in
``p = exp(-beta*d)`` so that large scaled gaps do not overflow and small
ones do not cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError
from .model import (
    Design1D,
    GridDesign2D,
    OuParams,
    SheetParams,
    _axes,
    _check_scaled_gaps,
    _scaled_gaps,
)

__all__ = [
    "FimEntries1D",
    "FimEntries2D",
    "fim_entries_1d",
    "fim_entries_equidistant_1d",
    "fim_1d",
    "fim_entries_2d",
    "fim_entries_equidistant_2d",
    "fim_2d",
]


@dataclass(frozen=True)
class FimEntries1D:
    """The three distinct entries of the symmetric 2x2 information matrix
    [[l1, l2], [l2, l3]] on (alpha0, alpha1)."""

    l1: float
    l2: float
    l3: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.l1, self.l2], [self.l2, self.l3]])


@dataclass(frozen=True)
class FimEntries2D:
    """Per-axis entry triples of the 3x3 grid information matrix.

    ``s_entries`` comes from the s-axis design with rate beta,
    ``t_entries`` from the t-axis design with rate gamma.
    """

    s_entries: FimEntries1D
    t_entries: FimEntries1D

    def matrix(self) -> np.ndarray:
        l1, l2, l3 = self.s_entries.l1, self.s_entries.l2, self.s_entries.l3
        m1, m2, m3 = self.t_entries.l1, self.t_entries.l2, self.t_entries.l3
        return np.array(
            [
                [l1 * m1, l2 * m1, l1 * m2],
                [l2 * m1, l3 * m1, l2 * m2],
                [l1 * m2, l2 * m2, l1 * m3],
            ]
        )


def _points_entries(rate, points) -> FimEntries1D:
    """Unvalidated entries of the designs whose points run along axis 0,
    batched over trailing axes.  A zero gap contributes its limit, nothing,
    so merged points give the design without the duplicate."""
    s = np.asarray(points, dtype=float)
    x = rate * (s[1:] - s[:-1])
    p = np.exp(-x)
    u = s[1:] - s[:-1] * p  # exactly 0 across a zero gap
    one_minus_p2 = -np.expm1(-2.0 * x) + (x == 0.0)  # 1 at a zero gap, where u is 0
    l1 = 1.0 + np.add.reduce(-np.expm1(-x) / (1.0 + p))
    l2 = s[0] + np.add.reduce(u / (1.0 + p))
    l3 = s[0] ** 2 + np.add.reduce(u * u / one_minus_p2)
    return FimEntries1D(l1, l2, l3)


def _axis_entries(rate, axis: Design1D) -> FimEntries1D:
    """Entries of one axis design at its rate, as floats, once no two
    points are numerically coincident; an overflow gives inf, for
    :func:`_within_double_range` to reject."""
    with np.errstate(over="ignore"):
        _scaled_gaps(rate, axis)  # rejects numerically coincident points
        e = _points_entries(rate, axis.as_array())
    return FimEntries1D(float(e.l1), float(e.l2), float(e.l3))


def _within_double_range(entries):
    """``entries``, once every element of their information matrix is
    finite: points far from the origin overflow it."""
    if not np.all(np.isfinite(entries.matrix())):
        raise NumericalError("information matrix overflows double precision")
    return entries


def fim_entries_1d(params: OuParams, design: Design1D) -> FimEntries1D:
    """Closed-form information entries for an arbitrary 1D design."""
    ((rate, axis),) = _axes(params, design)
    return _within_double_range(_axis_entries(rate, axis))


def _equidistant_entries(rate, d, n) -> FimEntries1D:
    """Unvalidated entries of {0, d, ..., (n-1)d}; broadcasts over d and n."""
    x = rate * np.asarray(d, dtype=float)
    p = np.exp(-x)
    one_minus_p = -np.expm1(-x)
    one_minus_p2 = -np.expm1(-2.0 * x)
    l1 = (n + (2.0 - n) * p) / (1.0 + p)
    l2 = 0.5 * d * (n - 1) * l1
    l3 = (
        d
        * d
        * (n - 1)
        * (
            n * (2 * n - 1) / 6.0 * one_minus_p / (1.0 + p)
            + n * p / (1.0 + p)
            + p * p / one_minus_p2
        )
    )
    return FimEntries1D(l1, l2, l3)


def _check_equidistant_args(beta, d, n) -> None:
    """Validate rates, steps and point counts; each may be an array."""
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n) & (n == np.floor(n)) & (n >= 2)):
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    d = np.asarray(d, dtype=float)
    if np.any(~np.isfinite(d)) or np.any(d <= 0.0):
        raise ValidationError("step size d must be positive and finite")
    _check_scaled_gaps(beta * d)


def fim_entries_equidistant_1d(params: OuParams, d: float, n: int) -> FimEntries1D:
    """Closed-form entries for the equidistant design {0, d, ..., (n-1)d}.

    Agrees with :func:`fim_entries_1d` on the explicit design; ``d`` may
    be an array for vectorized evaluation.
    """
    d = np.asarray(d, dtype=float)
    _check_equidistant_args(params.beta, d, n)
    e = _equidistant_entries(params.beta, d, int(n))
    if np.ndim(d) == 0:
        return FimEntries1D(float(e.l1), float(e.l2), float(e.l3))
    return e


def fim_1d(params: OuParams, design: Design1D) -> np.ndarray:
    """2x2 information matrix on (alpha0, alpha1)."""
    return fim_entries_1d(params, design).matrix()


def fim_entries_2d(params: SheetParams, design: GridDesign2D) -> FimEntries2D:
    """Per-axis entry triples for a grid design."""
    axes = _axes(params, design)
    return _within_double_range(FimEntries2D(*(_axis_entries(rate, axis) for rate, axis in axes)))


def fim_entries_equidistant_2d(
    params: SheetParams, d: float, delta: float, n: int, m: int
) -> FimEntries2D:
    """Per-axis triples for the equidistant grid with steps (d, delta)."""
    return FimEntries2D(
        s_entries=fim_entries_equidistant_1d(OuParams(params.beta), d, n),
        t_entries=fim_entries_equidistant_1d(OuParams(params.gamma), delta, m),
    )


def fim_2d(params: SheetParams, design: GridDesign2D) -> np.ndarray:
    """3x3 information matrix on (alpha0, alpha1, alpha2)."""
    return fim_entries_2d(params, design).matrix()
