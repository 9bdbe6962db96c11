"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here, not deferred.

Criterion 2 contains two sub-cases (rate 50 in 1D, rates (10, 30) in 2D)
that assert the published equidistance claim where it is numerically
false: above rate ~7.1566 (1D) / ~9.1780 (per 2D axis) the determinant
objective's maximum provably migrates away from the center (verified
against both the closed-form objective and the definitional dense-solve
information matrix, which agree to 12+ digits).  Those sub-cases are
implemented exactly as stated and marked strict expected-failure rather
than weakened.
"""

import time

import numpy as np
import pytest

from oudesign import (
    Design1D,
    FimEntries1D,
    GridDesign2D,
    McConfig,
    OuParams,
    SheetParams,
    TrendParams,
    collapse_interval,
    d_objective_1d,
    d_objective_2d,
    domain_doubling_limit_d,
    domain_doubling_limit_d_axis,
    domain_doubling_limit_k,
    doubling_ratio_1d,
    doubling_ratio_2d,
    efficiency_curve,
    fim_1d,
    fim_2d,
    fim_entries_1d,
    fim_entries_equidistant_1d,
    fim_entries_equidistant_2d,
    gls_estimate,
    k_objective_1d,
    k_objective_2d,
    nine_point_restricted_2d,
    run_efficiency_2d,
    sample_observations,
    three_point_restricted_1d,
    two_point_k_optimal,
)
from oudesign._reference import fim_definitional_1d, fim_definitional_2d
from helpers import random_design, random_grid, random_pd_matrix

SEED = 7


def report(number, checks, elapsed, budget, extra=""):
    """Print the criterion line and fail with the collected details."""
    bad = [name for name, ok in checks if not ok]
    status = "PASS" if not bad and elapsed < budget else "FAIL"
    print(
        f"\n[criterion {number:2d}] {status}  "
        f"({elapsed:.2f}s / budget {budget:.0f}s, {len(checks)} checks){extra}"
    )
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"
    assert not bad, f"criterion {number} failed checks: {bad}"


def test_criterion_1_critical_roots():
    t0 = time.perf_counter()
    ci = collapse_interval()
    elapsed = time.perf_counter() - t0
    checks = [
        (f"lower root {ci.lower:.6f} within 5e-4 of 0.5718", abs(ci.lower - 0.5718) <= 5e-4),
        (f"upper root {ci.upper:.6f} within 5e-4 of 4.9586", abs(ci.upper - 4.9586) <= 5e-4),
    ]
    report(1, checks, elapsed, 1.0)


def test_criterion_2_d_optimal_equidistance_attainable_cases():
    t0 = time.perf_counter()
    checks = []
    for beta in (0.1, 0.5718, 1.0, 5.0):
        res = three_point_restricted_1d(OuParams(beta), "D")
        checks.append(
            (f"1D rate {beta}: d_opt={res.argopt:.8f}", abs(res.argopt - 0.5) <= 1e-6)
        )
    for beta, gamma in ((1.0, 1.0), (0.2, 0.3)):
        res = nine_point_restricted_2d(SheetParams(beta, gamma), "D")
        d, dl = res.argopt
        checks.append(
            (
                f"2D rates ({beta},{gamma}): ({d:.7f},{dl:.7f})",
                abs(d - 0.5) <= 1e-5 and abs(dl - 0.5) <= 1e-5,
            )
        )
    elapsed = time.perf_counter() - t0
    report(2, checks, elapsed, 10.0, extra="  [attainable sub-cases]")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published equidistance claim is false at these rates: the determinant "
        "maximum provably sits off-center (1D rate 50: argmax 0.0798/0.9202 with "
        "value 1.8197 vs 1.5000 at the center; definitional dense-solve FIM "
        "agrees with the closed form to 12+ digits)"
    ),
)
def test_criterion_2_d_optimal_equidistance_large_rate_cases():
    t0 = time.perf_counter()
    checks = []
    res = three_point_restricted_1d(OuParams(50.0), "D")
    checks.append((f"1D rate 50: d_opt={res.argopt:.8f}", abs(res.argopt - 0.5) <= 1e-6))
    res = nine_point_restricted_2d(SheetParams(10.0, 30.0), "D")
    d, dl = res.argopt
    checks.append(
        (
            f"2D rates (10,30): ({d:.7f},{dl:.7f})",
            abs(d - 0.5) <= 1e-5 and abs(dl - 0.5) <= 1e-5,
        )
    )
    elapsed = time.perf_counter() - t0
    report(2, checks, elapsed, 10.0, extra="  [unattainable sub-cases, see xfail reason]")


def test_criterion_3_fim_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_1d = 0.0
    for _ in range(200):
        params = OuParams(rng.uniform(0.05, 8.0))
        design = random_design(rng, rng.integers(2, 21), start=rng.uniform(-1.0, 1.0))
        a = fim_1d(params, design)
        b = fim_definitional_1d(params, design)
        worst_1d = max(worst_1d, float(np.max(np.abs(a - b) / np.abs(b))))
    worst_2d = 0.0
    for _ in range(50):
        params = SheetParams(rng.uniform(0.05, 6.0), rng.uniform(0.05, 6.0))
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, max(3, 60 // n + 1)))
        grid = random_grid(rng, n, min(m, 60 // n))
        a = fim_2d(params, grid)
        b = fim_definitional_2d(params, grid)
        worst_2d = max(worst_2d, float(np.max(np.abs(a - b) / np.abs(b))))
    elapsed = time.perf_counter() - t0
    checks = [
        (f"200 random 1D designs, worst rel err {worst_1d:.3e}", worst_1d <= 1e-8),
        (f"50 random grids, worst rel err {worst_2d:.3e}", worst_2d <= 1e-8),
    ]
    report(3, checks, elapsed, 30.0)


def test_criterion_4_condition_number_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst2 = 0.0
    for _ in range(1000):
        a = random_pd_matrix(rng, 2, min_rel_gap=1e-3)
        w = np.linalg.eigvalsh(a)
        closed = k_objective_1d(FimEntries1D(a[0, 0], a[0, 1], a[1, 1]))
        worst2 = max(worst2, abs(closed - w[-1] / w[0]) / (w[-1] / w[0]))
    worst3 = 0.0
    for _ in range(1000):
        a = random_pd_matrix(rng, 3, min_rel_gap=1e-3)
        w = np.linalg.eigvalsh(a)
        worst3 = max(worst3, abs(k_objective_2d(a) - w[-1] / w[0]) / (w[-1] / w[0]))
    elapsed = time.perf_counter() - t0
    checks = [
        (f"1000 PD 2x2, worst rel err {worst2:.3e}", worst2 <= 1e-9),
        (f"1000 PD 3x3, worst rel err {worst3:.3e}", worst3 <= 1e-9),
    ]
    report(4, checks, elapsed, 10.0)


def test_criterion_5_closed_form_limits():
    t0 = time.perf_counter()
    tail_k = 0.7397
    cases = [
        ("D(1e-4) -> 2", domain_doubling_limit_d(1e-4), 2.0),
        ("D(1e4) -> 16", domain_doubling_limit_d(1e4), 16.0),
        ("K(1e-4) -> 2", domain_doubling_limit_k(1e-4), 2.0),
        ("K(1e4) -> 0.7397", domain_doubling_limit_k(1e4), tail_k),
        ("Daxis(1e-4) -> 2", domain_doubling_limit_d_axis(1e-4), 2.0),
        ("Daxis(1e4) -> 32", domain_doubling_limit_d_axis(1e4), 32.0),
    ]
    checks = [
        (f"{name}: {value:.6f}", abs(value - target) <= 1e-3 * abs(target))
        for name, value, target in cases
    ]
    betas = np.linspace(1e-4, 5.0, 50_001)
    values = np.array([domain_doubling_limit_k(b) for b in betas])
    x, top = betas[np.argmax(values)], values.max()
    checks.append((f"K max location {x:.5f}", abs(x - 0.2730) <= 1e-3))
    checks.append((f"K max value {top:.5f}", abs(top - 2.3454) <= 1e-3))
    elapsed = time.perf_counter() - t0
    report(5, checks, elapsed, 1.0)


def test_criterion_6_doubling_convergence():
    t0 = time.perf_counter()
    checks = []
    rep = doubling_ratio_1d(OuParams(1.0), 1000, "infill")
    checks.append(
        (f"1D infill det {rep.ratio_det:.5f}", abs(rep.ratio_det - 1.0) <= 1e-2)
    )
    checks.append(
        (f"1D infill cond {rep.ratio_cond:.5f}", abs(rep.ratio_cond - 1.0) <= 1e-2)
    )
    rep = doubling_ratio_1d(OuParams(1.0), 1000, "domain")
    checks.append(
        (
            f"1D domain det {rep.ratio_det:.5f} vs {rep.limit_det:.5f}",
            abs(rep.ratio_det - domain_doubling_limit_d(1.0)) <= 2e-2,
        )
    )
    params = SheetParams(1.0, 2.0)
    for mode in ("infill-both", "infill-one"):
        rep = doubling_ratio_2d(params, 200, 200, mode)
        checks.append(
            (f"2D {mode} det {rep.ratio_det:.5f}", abs(rep.ratio_det - 1.0) <= 1e-2)
        )
        checks.append(
            (f"2D {mode} cond {rep.ratio_cond:.5f}", abs(rep.ratio_cond - 1.0) <= 1e-2)
        )
    rep = doubling_ratio_2d(params, 200, 200, "domain-both")
    target = domain_doubling_limit_d_axis(1.0) * domain_doubling_limit_d_axis(2.0)
    checks.append(
        (f"2D domain-both det {rep.ratio_det:.4f} vs {target:.4f}",
         abs(rep.ratio_det - target) <= 2e-2 * target)
    )
    rep = doubling_ratio_2d(params, 200, 200, "domain-one")
    target = domain_doubling_limit_d_axis(1.0)
    checks.append(
        (f"2D domain-one det {rep.ratio_det:.5f} vs {target:.5f}",
         abs(rep.ratio_det - target) <= 2e-2)
    )
    elapsed = time.perf_counter() - t0
    report(6, checks, elapsed, 60.0)


def raw_two_point_equation(beta, d):
    e = np.exp
    return (
        (d * d - 2) * e(3 * beta * d)
        + 2 * (beta * d + 1) * e(2 * beta * d)
        - (beta * d**3 + d * d + 2 * beta * d - 2) * e(beta * d)
        - 2
    )


def test_criterion_7_two_point_k_design():
    t0 = time.perf_counter()
    checks = []
    for beta in (0.1, 1.0, 10.0):
        res = two_point_k_optimal(OuParams(beta))
        d = np.linspace(1e-4, 2.0, 200_001)
        e = fim_entries_equidistant_1d(OuParams(beta), d, 2)
        l1, l2, l3 = e.l1, e.l2, e.l3
        k_vals = 0.25 * (l1 + l3 + np.sqrt((l1 - l3) ** 2 + 4 * l2 * l2)) ** 2 / (
            l1 * l3 - l2 * l2
        )
        dense = d[int(np.argmin(k_vals))]
        checks.append(
            (f"rate {beta}: root {res.argopt:.6f} vs dense {dense:.6f}",
             abs(res.argopt - dense) <= 1e-4)
        )
        h = 1e-6 * max(1.0, res.argopt)
        sign_ok = (
            raw_two_point_equation(beta, res.argopt - h) < 0
            < raw_two_point_equation(beta, res.argopt + h)
        )
        checks.append((f"rate {beta}: slope sign change - to +", sign_ok))
    elapsed = time.perf_counter() - t0
    report(7, checks, elapsed, 5.0)


SMALL_BLOCK = (0.01, 0.03, 0.05, 0.10, 0.15)


def test_criterion_8_table_reproduction():
    t0 = time.perf_counter()
    config = McConfig(replicates=10_000, seed=SEED)
    checks = []
    for beta, gamma, target in ((10.0, 10.0, 115.33), (30.0, 30.0, 88.90), (0.01, 0.01, 100.88)):
        rep = run_efficiency_2d(SheetParams(beta, gamma), config)
        checks.append(
            (f"eff({beta},{gamma}) = {rep.eff_percent:.2f} vs {target} +-3",
             abs(rep.eff_percent - target) <= 3.0)
        )
    rep = run_efficiency_2d(SheetParams(25.0, 25.0), config)
    checks.append((f"eff(25,25) = {rep.eff_percent:.2f} < 100", rep.eff_percent < 100.0))
    for beta in SMALL_BLOCK:
        for gamma in SMALL_BLOCK:
            rep = run_efficiency_2d(SheetParams(beta, gamma), config)
            checks.append(
                (f"eff({beta},{gamma}) = {rep.eff_percent:.2f} in [95,105]",
                 95.0 <= rep.eff_percent <= 105.0)
            )
    elapsed = time.perf_counter() - t0
    report(8, checks, elapsed, 600.0)


def test_criterion_9_efficiency_curve():
    t0 = time.perf_counter()
    ci = collapse_interval()
    config = McConfig(replicates=10_000, seed=SEED)
    lower = np.linspace(0.02, ci.lower - 0.01, 25)
    rows = efficiency_curve(lower, config)
    checks = [
        (f"lower interval eff range [{min(r.eff_percent for r in rows):.2f}, "
         f"{max(r.eff_percent for r in rows):.2f}] within [95,105]",
         all(95.0 <= r.eff_percent <= 105.0 for r in rows))
    ]
    upper = np.geomspace(ci.upper + 0.05, 100.0, 25)
    rows = efficiency_curve(upper, config)
    high = [r for r in rows if r.beta >= 20.0]
    checks.append(
        (f"upper interval: eff < 100 for all {len(high)} rates >= 20",
         all(r.eff_percent < 100.0 for r in high))
    )
    elapsed = time.perf_counter() - t0
    report(9, checks, elapsed, 600.0)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checks = []

    # determinant monotone increasing in the step size (1D, both axes in 2D)
    d_grid = np.linspace(0.05, 10.0, 400)
    for n in (3, 20):
        det = np.array(
            [d_objective_1d(fim_entries_equidistant_1d(OuParams(0.5), d, n)) for d in d_grid]
        )
        checks.append((f"1D det monotone in step, n={n}", bool(np.all(np.diff(det) > 0))))
    params2 = SheetParams(0.7, 1.3)
    det_d = np.array(
        [d_objective_2d(fim_entries_equidistant_2d(params2, d, 1.0, 4, 3)) for d in d_grid]
    )
    det_dl = np.array(
        [d_objective_2d(fim_entries_equidistant_2d(params2, 1.0, d, 4, 3)) for d in d_grid]
    )
    checks.append(("2D det monotone in first step", bool(np.all(np.diff(det_d) > 0))))
    checks.append(("2D det monotone in second step", bool(np.all(np.diff(det_dl) > 0))))

    # 2x2 condition number: its floor of 1 and the eigensolver's ratio
    ok_floor, ok_link = True, True
    for _ in range(100):
        p = OuParams(rng.uniform(0.05, 10.0))
        design = random_design(rng, rng.integers(2, 10))
        e = fim_entries_1d(p, design)
        k = k_objective_1d(e)
        w = np.linalg.eigvalsh(e.matrix())
        ok_floor &= k >= 1.0
        ok_link &= abs(k - w[-1] / w[0]) <= 1e-9 * k
    checks.append(("2x2 condition number >= 1 on 100 random designs", ok_floor))
    checks.append(("2x2 condition number = eigenvalue ratio to 1e-9 relative", ok_link))

    # scalar invariance of the condition number on design FIMs
    ok_scale = True
    for _ in range(30):
        p2 = SheetParams(rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0))
        d, dl = rng.uniform(0.05, 0.95, 2)
        m = fim_2d(p2, GridDesign2D((0.0, d, 1.0), (0.0, dl, 1.0)))
        k = k_objective_2d(m)
        for c in (1e-6, 3.0, 1e7):
            ok_scale &= abs(k_objective_2d(c * m) - k) <= 1e-12 * k
    checks.append(("condition number scale-invariant to 1e-12 on design FIMs", ok_scale))

    # collapse dichotomy across the swept rate interval
    ci = collapse_interval()
    betas = np.arange(ci.lower - 0.05, ci.upper + 0.05 + 1e-9, 0.01)
    mismatches = 0
    for b in betas:
        res = three_point_restricted_1d(OuParams(float(b)), "K")
        inside = ci.lower <= b <= ci.upper
        if res.collapsed != inside and min(abs(b - ci.lower), abs(b - ci.upper)) > 0.011:
            mismatches += 1
    checks.append(
        (f"collapse dichotomy over {len(betas)} rates (one grid step slack)", mismatches == 0)
    )

    # exchange symmetry, bitwise
    a = nine_point_restricted_2d(SheetParams(12.0, 28.0), "K")
    b = nine_point_restricted_2d(SheetParams(28.0, 12.0), "K")
    checks.append(
        ("exchange symmetry swaps coordinates exactly",
         a.argopt == (b.argopt[1], b.argopt[0]) and a.value == b.value)
    )

    # GLS unbiasedness and MSE vs inverse-FIM theory
    p = OuParams(1.5, sigma=0.5)
    design = Design1D((0.0, 0.4, 1.0))
    trend = TrendParams(1.0, 1.0)
    reps = 10_000
    y = sample_observations(p, design, trend, reps, seed=SEED)
    err = gls_estimate(y, design, p) - trend.coefficients()[None, :]
    se_mean = err.std(axis=0, ddof=1) / np.sqrt(reps)
    checks.append(
        ("GLS unbiased within 3 MC standard errors",
         bool(np.all(np.abs(err.mean(axis=0)) < 3.0 * se_mean)))
    )
    theory = p.stationary_variance * np.diag(np.linalg.inv(fim_1d(p, design)))
    mse = (err**2).mean(axis=0)
    se_mse = (err**2).std(axis=0, ddof=1) / np.sqrt(reps)
    checks.append(
        ("per-parameter MSE within 3 MC standard errors of inverse-FIM theory",
         bool(np.all(np.abs(mse - theory) < 3.0 * se_mse)))
    )

    elapsed = time.perf_counter() - t0
    report(10, checks, elapsed, 300.0)
