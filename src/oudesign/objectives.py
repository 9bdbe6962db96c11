"""Design criteria on 2x2 and 3x3 information matrices.

Two criteria appear throughout the package:

* the determinant criterion ("D"), maximized by D-optimal designs;
* the condition number ("K", ratio of extreme eigenvalues), minimized by
  K-optimal designs.

Every criterion also takes entries whose fields are arrays, so searches
and asymptotics evaluate whole grids here.  The 3x3 condition number
takes its largest eigenvalue from the trigonometric closed form and the
other two from the deflated quadratic (see :func:`_eigen3`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, SingularFimError
from .fim import FimEntries1D, FimEntries2D, _points_entries, fim_entries_1d, fim_entries_2d
from .model import Design1D, GridDesign2D, OuParams, SheetParams, _axes

__all__ = [
    "ObjectiveEval",
    "d_objective_1d",
    "k_objective_1d",
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


@dataclass(frozen=True)
class ObjectiveEval:
    """Both criteria evaluated at one design, with the entries they came
    from."""

    d_value: float
    k_value: float
    entries: FimEntries1D | FimEntries2D


def d_objective_1d(entries: FimEntries1D) -> float:
    """Determinant criterion l1*l3 - l2^2."""
    return entries.l1 * entries.l3 - entries.l2 * entries.l2


def _checked_det(entries: FimEntries1D):
    """l1*l3 - l2^2, once it is above DET_RTOL * l1 * l3 everywhere."""
    det = d_objective_1d(entries)
    singular = np.logical_not(det > DET_RTOL * entries.l1 * entries.l3)
    if np.any(singular):
        ratio = np.asarray(det / (entries.l1 * entries.l3))[singular]
        numbers = ratio[~np.isnan(ratio)]  # entries that overflowed give none
        notes = [f"smallest {np.min(numbers):g}"] if numbers.size else []
        notes += [f"{ratio.size - numbers.size} not a number"] if numbers.size < ratio.size else []
        raise SingularFimError(
            f"{ratio.size} of {np.size(singular)} designs have a singular information "
            f"matrix: det/(l1*l3) at or below {DET_RTOL:g} ({', '.join(notes)})"
        )
    return det


def k_objective_1d(entries: FimEntries1D, det=None) -> float:
    """Condition number of the 2x2 matrix, in closed form.

    Equals ``(l1 + l3 + sqrt((l1 - l3)^2 + 4*l2^2))^2 / (4*det)``, the
    squared largest eigenvalue over the determinant.  A caller holding
    the determinant from entries that do not cancel passes it, already
    checked, as ``det`` (see :func:`evaluate_design_1d`).
    """
    if det is None:
        det = _checked_det(entries)
    spread = np.sqrt((entries.l1 - entries.l3) ** 2 + 4.0 * entries.l2 * entries.l2)
    top = entries.l1 + entries.l3 + spread
    return 0.25 * top * top / det


def _eigen3(a, b, c, o1, o2, o3, c2, det):
    """Eigenvalues (lam_max, lam_mid, lam_min) of the symmetric matrix
    [[a, o1, o2], [o1, b, o3], [o2, o3, c]] with principal-minor sum c2 and
    determinant det; array-capable, and bitwise symmetric in (b, o1) <-> (c, o2).

    lam_max is the trigonometric root of B = A - (tr/3)*I (Smith 1961),
    whose p2 = tr(B^2) is a sum of squares: it does not cancel, and it is 0
    exactly on multiples of I.  lam_mid and lam_min are the roots of
    t^2 - s*t + det/lam_max, s = (c2 - det/lam_max)/lam_max, the smaller as
    product over larger, so they keep their digits at large condition numbers.
    """
    q = (a + (b + c)) / 3.0
    p = np.sqrt((np.square(b - c) + (np.square(a - b) + np.square(a - c))) / 18.0
                + ((np.square(o1) + np.square(o2)) + np.square(o3)) / 3.0)  # sqrt(p2/6)
    with np.errstate(divide="ignore", invalid="ignore"):
        # r = det(B/p)/2 cannot overflow (tr((B/p)^2) = 6); it is clipped of its
        # rounding drift, and set to 1 only where p = 0 (a multiple of I: lam_max = q)
        u1, u2, u3 = o1 / p, o2 / p, o3 / p
        bb, bc = (b - q) / p, (c - q) / p
        r = (a - q) / p * (bb * bc - u3**2) - ((bc * u1**2 + bb * u2**2) - 2.0 * (u1 * u2 * u3))
        r = np.where(p == 0.0, 1.0, np.maximum(np.minimum(0.5 * r, 1.0), -1.0))
        lam_max = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
        prod = det / lam_max
        s = (c2 - prod) / lam_max
        big = 0.5 * (s + np.copysign(np.sqrt(np.maximum(s * s - 4.0 * prod, 0.0)), s))
        small = prod / big
    return lam_max, np.maximum(big, small), np.minimum(big, small)


def _cond3_from_entries(entries: FimEntries2D, dets=None):
    """Condition number of the grid matrix from its axis entries and their
    determinants ``dets`` (by default from the entries), batched over
    broadcastable entry arrays; c2 and det come from the determinants.

    Returns (cond, lam_min), with no positivity check: the searches scan
    with it, and :func:`k_objective_2d` validates it.  Sums are grouped
    so that swapping the two axes reproduces every value bit for bit.
    """
    s, t = entries.s_entries, entries.t_entries
    ds, dt = (d_objective_1d(s), d_objective_1d(t)) if dets is None else dets
    a, dd = s.l1 * t.l1, ds * dt
    c2 = (ds * (t.l1 * t.l1 + t.l2 * t.l2) + dt * (s.l1 * s.l1 + s.l2 * s.l2)) + dd
    lam_max, _, lam_min = _eigen3(
        a, s.l3 * t.l1, s.l1 * t.l3, s.l2 * t.l1, s.l1 * t.l2, s.l2 * t.l2, c2, a * dd
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return lam_max / lam_min, lam_min


def k_objective_2d(entries: FimEntries2D, dets=None) -> float:
    """Condition number of the assembled 3x3 grid information matrix, the
    value a K-optimal grid design minimizes, from the two axes' entries and
    determinants (see :func:`evaluate_design_2d`); batched like
    :func:`d_objective_2d`.  Raises :class:`NumericalError` where a
    smallest eigenvalue is not positive."""
    cond, lam_min = _cond3_from_entries(entries, dets)
    if not np.all(lam_min > 0.0):
        raise NumericalError(
            f"matrix is not positive definite (smallest eigenvalue {np.min(lam_min):g})"
        )
    return cond


def d_objective_2d(entries: FimEntries2D) -> float:
    """Determinant of the assembled 3x3 grid information matrix,
    in its factored form l1*m1 * (l1*l3 - l2^2) * (m1*m3 - m2^2)."""
    s, t = entries.s_entries, entries.t_entries
    return (s.l1 * t.l1) * (d_objective_1d(s) * d_objective_1d(t))


def _shifted_entries(params, design) -> tuple[FimEntries1D, ...]:
    """Entries of each axis moved to start at 0.  A shift leaves the
    determinant unchanged, and there l1*l3 - l2^2 does not cancel."""
    return tuple(_points_entries(rate, axis.as_array() - axis.points[0])
                 for rate, axis in _axes(params, design))


def _without_overflow(criteria):
    """``criteria()``, where no value overflows: an overflow raises
    :class:`NumericalError` instead of giving inf (designs far from the
    origin)."""
    try:
        with np.errstate(over="raise"):
            return criteria()
    except (FloatingPointError, OverflowError) as exc:
        raise NumericalError("design criteria overflow double precision") from exc


def evaluate_design_1d(params: OuParams, design: Design1D) -> ObjectiveEval:
    """Both criteria at a 1D design, each from the shift-invariant
    determinant, checked against the shifted entries it comes from."""
    entries = fim_entries_1d(params, design)

    def criteria():
        (shifted,) = _shifted_entries(params, design)
        det = _checked_det(shifted)
        return det, k_objective_1d(entries, det)

    d_value, k_value = _without_overflow(criteria)
    return ObjectiveEval(d_value=float(d_value), k_value=float(k_value), entries=entries)


def evaluate_design_2d(params: SheetParams, design: GridDesign2D) -> ObjectiveEval:
    """Both criteria at a grid design, from the shift-invariant axis
    determinants of the shifted entries."""
    entries = fim_entries_2d(params, design)

    def criteria():
        shifted = FimEntries2D(*_shifted_entries(params, design))
        dets = d_objective_1d(shifted.s_entries), d_objective_1d(shifted.t_entries)
        return d_objective_2d(shifted), k_objective_2d(entries, dets)

    d_value, k_value = _without_overflow(criteria)
    return ObjectiveEval(d_value=float(d_value), k_value=float(k_value), entries=entries)
