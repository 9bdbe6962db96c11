"""Scalar root finding: bisection followed by safeguarded secant steps.

The equations in this package are cheap and smooth, so the routine
favors robustness over iteration counts.
"""

from __future__ import annotations

import math


def bisect_then_secant(f, lo, hi, coarse_tol=1e-3, tol=1e-10, max_iter=200):
    """Find a root of f in the sign-changing bracket [lo, hi].

    Bisection narrows the bracket to ``coarse_tol``, then secant steps
    (projected back into the bracket when they escape) polish to ``tol``.
    Returns (root, iterations, converged).  Raises ValueError when the
    bracket does not change sign.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a, 0, True
    if fb == 0.0:
        return b, 0, True
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    it = 0
    while (b - a) > coarse_tol and it < max_iter:
        m = 0.5 * (a + b)
        fm = f(m)
        it += 1
        if fm == 0.0:
            return m, it, True
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = m, fm
        else:
            b, fb = m, fm
    x0, x1, f0, f1 = a, b, fa, fb
    while it < max_iter:
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (a <= x2 <= b):
            x2 = 0.5 * (a + b)  # secant escaped; fall back to bisection
        f2 = f(x2)
        it += 1
        # keep the sign-changing bracket current
        if math.copysign(1.0, f2) == math.copysign(1.0, fa):
            a, fa = x2, f2
        else:
            b, fb = x2, f2
        x0, f0, x1, f1 = x1, f1, x2, f2
        if abs(x1 - x0) <= tol or f2 == 0.0:
            return x1, it, True
    return 0.5 * (a + b), it, (b - a) <= tol
