"""Design criteria on 2x2 and 3x3 information matrices.

Three criteria appear throughout the package:

* the determinant criterion ("D"), maximized by D-optimal designs;
* the condition number ("K", ratio of extreme eigenvalues), minimized by
  K-optimal designs;
* for 2x2 matrices, the surrogate ``r = (l1 + l3)^2 / det >= 4``, a
  strictly increasing transform of the condition number that is cheaper
  to optimize: ``k = g(r)`` with ``g(x) = ((sqrt(x) + sqrt(x-4))/2)^2``.

Every criterion also takes entries whose fields are arrays, so searches
and asymptotics evaluate whole grids here.  The 3x3 condition number
takes its largest eigenvalue from the trigonometric closed form and the
other two from the deflated quadratic (see :func:`_eigen3_from_invariants`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, SingularFimError, ValidationError
from .fim import (
    FimEntries1D,
    FimEntries2D,
    _points_entries,
    fim_entries_1d,
    fim_entries_2d,
)
from .model import Design1D, GridDesign2D, OuParams, SheetParams

__all__ = [
    "ObjectiveEval",
    "Eigen3Closed",
    "d_objective_1d",
    "r_objective_1d",
    "k_objective_1d",
    "condition_from_surrogate",
    "eigen3_closed",
    "k_objective_2d",
    "d_objective_2d",
    "evaluate_design_1d",
    "evaluate_design_2d",
]

# A 2x2 determinant at or below this fraction of l1*l3, a few rounding
# units of l1*l3 - l2^2, counts as singular.  The ratio has no units, so
# rescaling a design moves no decision; on every search family
# det/(l1*l3) stays above 0.25.
DET_RTOL = 1e-15

# Relative threshold on 3*tr(A^2) - tr(A)^2 below which a symmetric 3x3
# matrix is treated as a multiple of the identity (the trig formula is
# 0/0 there, the limit is three equal eigenvalues).
IDENTITY_MULTIPLE_TOL = 1e-12


@dataclass(frozen=True)
class ObjectiveEval:
    """All criteria evaluated at one design, with the entries they came
    from.  ``r_value`` is None for grid designs (surrogate is 2x2 only)."""

    d_value: float
    k_value: float
    r_value: float | None
    entries: FimEntries1D | FimEntries2D


@dataclass(frozen=True)
class Eigen3Closed:
    """Closed-form eigenvalues of a symmetric 3x3 matrix.

    ``rho`` is the normalized cubic invariant in [-1, 1], ``phi`` the
    third of its arccos, and ``eigenvalues`` the three roots sorted in
    descending order.
    """

    rho: float
    phi: float
    eigenvalues: tuple[float, float, float]


def d_objective_1d(entries: FimEntries1D) -> float:
    """Determinant criterion l1*l3 - l2^2."""
    return entries.l1 * entries.l3 - entries.l2 * entries.l2


def _checked_det(entries: FimEntries1D, det=None):
    """The determinant (``det`` if given, else from the entries), once it
    is above DET_RTOL * l1 * l3 everywhere."""
    if det is None:
        det = d_objective_1d(entries)
    singular = np.logical_not(det > DET_RTOL * entries.l1 * entries.l3)
    if np.any(singular):
        ratio = np.fmin.reduce(np.asarray(det / (entries.l1 * entries.l3))[singular])
        raise SingularFimError(
            f"{np.count_nonzero(singular)} of {np.size(singular)} designs have a singular "
            f"information matrix: det/(l1*l3) at or below {DET_RTOL:g} (smallest {ratio:g})"
        )
    return det


def r_objective_1d(entries: FimEntries1D, det=None) -> float:
    """Condition-number surrogate (l1 + l3)^2 / det, always >= 4.

    ``det`` replaces l1*l3 - l2^2 when the caller holds it from entries
    that do not cancel (see :func:`_shifted_entries`).
    """
    det = _checked_det(entries, det)
    t = entries.l1 + entries.l3
    return t * t / det


def k_objective_1d(entries: FimEntries1D, det=None) -> float:
    """Condition number of the 2x2 matrix, in closed form.

    Equals ``(l1 + l3 + sqrt((l1 - l3)^2 + 4*l2^2))^2 / (4*det)``, the
    squared largest eigenvalue over the determinant; ``det`` as in
    :func:`r_objective_1d`.
    """
    det = _checked_det(entries, det)
    spread = np.sqrt((entries.l1 - entries.l3) ** 2 + 4.0 * entries.l2 * entries.l2)
    top = entries.l1 + entries.l3 + spread
    return 0.25 * top * top / det


def condition_from_surrogate(x):
    """Map a surrogate value to the condition number:
    g(x) = ((sqrt(x) + sqrt(x - 4))/2)^2 for x >= 4."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 4.0 - 1e-9):
        raise ValidationError(f"surrogate value {x!r} below its floor of 4")
    xc = np.maximum(x, 4.0)
    out = 0.25 * (np.sqrt(xc) + np.sqrt(xc - 4.0)) ** 2
    return float(out) if out.ndim == 0 else out


def _det3_symmetric(a: np.ndarray) -> float:
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[1, 2])
        - a[0, 1] * (a[0, 1] * a[2, 2] - a[1, 2] * a[0, 2])
        + a[0, 2] * (a[0, 1] * a[1, 2] - a[1, 1] * a[0, 2])
    )


def _eigen3_from_invariants(trace, trace_sq, det):
    """Eigenvalues from (tr A, tr A^2, det A); array-capable.

    Returns (rho, phi, lam_max, lam_mid, lam_min).  lam_mid and lam_min
    are the roots of t^2 - (tr - lam_max)*t + det/lam_max, the smaller as
    product over larger, so it keeps its digits at large condition
    numbers.  Identity multiples give rho, phi their limits 1, 0.
    """
    rho, phi, lam_max = _largest_eigen3(trace, trace_sq, det)
    rest = trace - lam_max
    prod = det / np.where(lam_max == 0.0, 1.0, lam_max)  # det is 0 where lam_max is
    root = np.sqrt(np.maximum(rest * rest - 4.0 * prod, 0.0))
    big = 0.5 * (rest + np.copysign(root, rest))
    small = prod / np.where(big == 0.0, 1.0, big)
    return rho, phi, lam_max, np.maximum(big, small), np.minimum(big, small)


def _largest_eigen3(trace, trace_sq, det):
    """(rho, phi, lam_max) from the trigonometric formula."""
    trace = np.asarray(trace, dtype=float)
    trace_sq = np.asarray(trace_sq, dtype=float)
    det = np.asarray(det, dtype=float)
    disc = 3.0 * trace_sq - trace * trace
    scale = np.maximum(trace * trace, trace_sq)
    degenerate = disc <= IDENTITY_MULTIPLE_TOL * np.maximum(scale, 1e-300)
    safe_disc = np.where(degenerate, 1.0, disc)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = (54.0 * det + trace * (9.0 * trace_sq - 5.0 * trace * trace)) / (
            math.sqrt(2.0) * safe_disc**1.5
        )
    rho = np.clip(rho, -1.0, 1.0)  # FP drift can leave [-1, 1] by ~1e-16
    rho = np.where(degenerate, 1.0, rho)
    phi = np.arccos(rho) / 3.0
    amp = np.sqrt(2.0 * np.where(degenerate, 0.0, disc))
    return rho, phi, (trace + amp * np.cos(phi)) / 3.0


def _invariants3(matrix: np.ndarray):
    """(tr A, tr A^2, det A) of a symmetric 3x3 matrix, after validation."""
    a = np.asarray(matrix, dtype=float)
    if a.shape != (3, 3):
        raise ValidationError(f"expected a 3x3 matrix, got shape {a.shape}")
    scale = np.max(np.abs(a))
    if np.max(np.abs(a - a.T)) > 1e-8 * max(scale, 1.0):
        raise ValidationError("matrix is not symmetric")
    return float(np.trace(a)), float(np.sum(a * a)), _det3_symmetric(a)


def eigen3_closed(matrix: np.ndarray) -> Eigen3Closed:
    """Eigenvalues of a symmetric 3x3 matrix in closed form."""
    rho, phi, lam_max, lam_mid, lam_min = _eigen3_from_invariants(*_invariants3(matrix))
    return Eigen3Closed(
        rho=float(rho),
        phi=float(phi),
        eigenvalues=(float(lam_max), float(lam_mid), float(lam_min)),
    )


def _cond3_from_invariants(trace, trace_sq, det):
    """Array-capable condition number from matrix invariants.

    No positivity checks; callers own validation.  Invalid (non-PD)
    inputs produce non-positive smallest eigenvalues, which
    :func:`_require_positive_definite` turns into errors.
    """
    _, _, lam_max, _, lam_min = _eigen3_from_invariants(trace, trace_sq, det)
    with np.errstate(divide="ignore", invalid="ignore"):
        return lam_max / lam_min, lam_min


def _cond3_from_entries(entries: FimEntries2D):
    """Condition number of the grid matrix straight from its axis
    entries, batched over broadcastable entry arrays.

    Returns (cond, lam_min).  Sums are grouped so that swapping the two
    axes reproduces every value bit for bit.
    """
    s, t = entries.s_entries, entries.t_entries
    a = s.l1 * t.l1
    b = s.l3 * t.l1
    c = s.l1 * t.l3
    o1 = s.l2 * t.l1
    o2 = s.l1 * t.l2
    o3 = s.l2 * t.l2
    trace = a + (b + c)
    trace_sq = a * a + (b * b + c * c) + 2.0 * ((o1 * o1 + o2 * o2) + o3 * o3)
    return _cond3_from_invariants(trace, trace_sq, d_objective_2d(entries))


def _require_positive_definite(cond, lam_min):
    """The condition number, once every smallest eigenvalue is positive."""
    if not np.all(lam_min > 0.0):
        raise NumericalError(
            f"matrix is not positive definite (smallest eigenvalue {np.min(lam_min):g})"
        )
    return cond


def k_objective_2d(fim: np.ndarray) -> float:
    """Condition number of a positive definite symmetric 3x3 matrix,
    the value a K-optimal grid design minimizes."""
    cond, lam_min = _cond3_from_invariants(*_invariants3(fim))
    return float(_require_positive_definite(cond, lam_min))


def d_objective_2d(entries: FimEntries2D) -> float:
    """Determinant of the assembled 3x3 grid information matrix,
    in its factored form l1*m1 * (l1*l3 - l2^2) * (m1*m3 - m2^2)."""
    s, t = entries.s_entries, entries.t_entries
    return (s.l1 * t.l1) * (d_objective_1d(s) * d_objective_1d(t))


def _shifted_entries(rate: float, design: Design1D) -> FimEntries1D:
    """Entries of the design moved to start at 0.  A shift leaves the
    determinant unchanged, and there l1*l3 - l2^2 does not cancel."""
    s = design.as_array()
    return _points_entries(rate, s - s[0])


def evaluate_design_1d(params: OuParams, design: Design1D) -> ObjectiveEval:
    """All three criteria at a 1D design, each from the shift-invariant
    determinant."""
    entries = fim_entries_1d(params, design)
    det = d_objective_1d(_shifted_entries(params.beta, design))
    return ObjectiveEval(
        d_value=float(det),
        k_value=k_objective_1d(entries, det),
        r_value=r_objective_1d(entries, det),
        entries=entries,
    )


def evaluate_design_2d(params: SheetParams, design: GridDesign2D) -> ObjectiveEval:
    """Determinant and condition-number criteria at a grid design."""
    entries = fim_entries_2d(params, design)
    shifted = FimEntries2D(
        _shifted_entries(params.beta, design.s), _shifted_entries(params.gamma, design.t)
    )
    return ObjectiveEval(
        d_value=float(d_objective_2d(shifted)),
        k_value=float(_require_positive_definite(*_cond3_from_entries(entries))),
        r_value=None,
        entries=entries,
    )
