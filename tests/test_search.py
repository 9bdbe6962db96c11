import itertools
import math
import warnings

import numpy as np
import pytest

from oudesign import (
    Design1D,
    FimEntries2D,
    NearSingularDesignError,
    NumericalError,
    OuParams,
    SheetParams,
    SingularFimError,
    ValidationError,
    collapse_equation,
    collapse_interval,
    cond_limit_surface_2d,
    d_objective_1d,
    equidistant_d_monotone_check,
    equidistant_k_optimal_1d,
    fim_entries_1d,
    fim_entries_equidistant_1d,
    four_point_grid_k_optimal,
    k_objective_1d,
    kopt_curve_1d,
    kopt_surface_2d,
    nine_point_restricted_2d,
    three_point_limit_objective,
    three_point_restricted_1d,
    two_point_k_optimal,
)
from oudesign import search
from oudesign.fim import _equidistant_entries, _points_entries
from oudesign.objectives import _cond3_from_entries
from oudesign.search import FREE_POINT_CELLS, SCAN_POINTS, TWO_POINT_MIN_RATE
from helpers import TABLE1_CELLS, grid_k_digits, k_60_digits, k_from_r

# positive roots of the collapse equation, 4 decimals
BETA_LOWER = 0.5718
BETA_UPPER = 4.9586


def unit_design_entries(rate, d):
    """Entries of the designs {0, d, 1}, batched over d."""
    return _points_entries(rate, np.stack(np.broadcast_arrays(0.0, np.asarray(d, float), 1.0)))


def grid_cond(s_entries, t_entries):
    return _cond3_from_entries(FimEntries2D(s_entries, t_entries))[0]


def three_point_k(beta, d):
    return k_objective_1d(unit_design_entries(beta, d))


def test_collapse_equation_roots_and_signs():
    # sign brackets around the two positive roots
    assert collapse_equation(0.55) > 0 > collapse_equation(0.59)
    assert collapse_equation(4.95) < 0 < collapse_equation(4.97)
    assert collapse_equation(0.1) > 0
    assert collapse_equation(2.0) == pytest.approx(-2613.50828149, rel=1e-9)  # frozen
    assert collapse_equation(10.0) > 0


def test_collapse_equation_guards():
    with pytest.raises(ValidationError):
        collapse_equation(0.0)
    with pytest.raises(ValidationError):
        collapse_equation(200.0)


def test_collapse_interval_matches_published_roots():
    ci = collapse_interval()
    assert ci.lower == pytest.approx(BETA_LOWER, abs=5e-4)
    assert ci.upper == pytest.approx(BETA_UPPER, abs=5e-4)
    assert 0.0 < ci.lower < ci.upper
    # residuals at the refined roots are tiny on the equation's local scale
    assert abs(collapse_equation(ci.lower)) < 1e-6 * np.exp(4.0 * ci.lower)
    assert abs(collapse_equation(ci.upper)) < 1e-6 * np.exp(4.0 * ci.upper)


def test_collapse_interval_and_bisection_guards():
    with pytest.raises(ValidationError, match="0 < lower < upper"):
        search.CollapseInterval(2.0, 1.0)
    with pytest.raises(ValidationError, match="no sign change"):
        search._bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_collapse_interval_roots_to_the_last_bits():
    # bisection to the end of the sign change: both roots agree with a
    # 50-digit root of the same equation to within its rounding
    mpmath = pytest.importorskip("mpmath")

    def equation(b):
        e = mpmath.exp
        return ((b * b - 6 * b + 4) * e(4 * b) + (6 * b * b + 6 * b - 10) * e(3 * b)
                - (11 * b * b - 10 * b - 2) * e(2 * b) + (2 * b * b - 6 * b + 10) * e(b)
                - 2 * b * b - 4 * b - 6)

    ci = collapse_interval()
    with mpmath.workdps(50):
        for got, bracket in ((ci.lower, (0.5, 0.6)), (ci.upper, (4.9, 5.0))):
            root = float(mpmath.findroot(equation, bracket, solver="anderson"))
            assert got == pytest.approx(root, rel=1e-13)


def test_three_point_k_collapse_follows_the_collapse_equation():
    # 41 rates in root*[0.999, 1.001] around each root: the flag is the
    # interval's, and a collapsed design is the merged {0, 1} found in
    # two evaluations (the design and the margin's point inside); the others
    # are searched, on the sign grid and in at least one bisection
    ci = collapse_interval()
    for root in (ci.lower, ci.upper):
        for beta in root * np.linspace(0.999, 1.001, 41):
            res = three_point_restricted_1d(OuParams(beta), "K")
            assert res.collapsed == ci.contains(beta), beta
            if res.collapsed:
                merged = fim_entries_1d(OuParams(beta), Design1D((0.0, 1.0)))
                assert res.argopt == 0.0
                assert res.value == pytest.approx(k_objective_1d(merged), rel=1e-14)
                assert res.boundary_margin > 0.0
                assert res.iterations == 2
            else:
                assert FREE_POINT_CELLS + 1 < res.iterations < 200


def test_boundary_slope_changes_sign_at_roots():
    # one-sided finite-difference slope of K near d=0 flips sign exactly
    # at the collapse-interval endpoints
    ci = collapse_interval()
    d0, h = 1e-6, 1e-6

    def slope(beta):
        return (three_point_k(beta, d0 + h) - three_point_k(beta, d0)) / h

    assert slope(ci.lower - 0.05) < 0  # interior minimum exists
    assert slope(ci.lower + 0.05) > 0  # boundary is the minimum
    assert slope(ci.upper - 0.05) > 0
    assert slope(ci.upper + 0.05) < 0


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.5718, 1.0, 5.0, 7.0])
def test_three_point_d_optimum_is_equidistant_moderate_rates(beta):
    res = three_point_restricted_1d(OuParams(beta), "D")
    assert res.argopt == 0.5
    assert not res.collapsed
    assert res.converged


@pytest.mark.parametrize(
    "beta,offcenter",
    [(10.0, 0.2798896), (50.0, 0.0797525)],  # frozen from dense scans
)
def test_three_point_d_optimum_migrates_at_large_rates(beta, offcenter):
    # the determinant objective is reflection-symmetric in d <-> 1-d; above
    # rate ~7.1564 the center becomes a local minimum and two symmetric
    # global maxima appear, confirmed by the definitional dense-solve FIM
    res = three_point_restricted_1d(OuParams(beta), "D")
    assert min(res.argopt, 1.0 - res.argopt) == pytest.approx(offcenter, abs=1e-4)
    from oudesign._reference import fim_definitional_1d

    det_opt = np.linalg.det(fim_definitional_1d(OuParams(beta), Design1D((0.0, res.argopt, 1.0))))
    det_mid = np.linalg.det(fim_definitional_1d(OuParams(beta), Design1D((0.0, 0.5, 1.0))))
    assert det_opt > det_mid
    assert res.value == pytest.approx(det_opt, rel=1e-9)


def test_three_point_k_collapses_inside_interval():
    res = three_point_restricted_1d(OuParams(2.0), "K")
    assert res.collapsed
    assert res.argopt in (0.0, 1.0)
    # collapsed value equals the boundary limit
    beta = 2.0
    limit = (3 * np.exp(beta) - 2) ** 2 / (np.exp(2 * beta) - 1)
    assert res.value == pytest.approx(k_from_r(limit), rel=1e-10)


def test_three_point_k_large_rate_small_interior_optimum():
    res = three_point_restricted_1d(OuParams(100.0), "K")
    assert not res.collapsed
    assert 0.0 < res.argopt < 0.05
    assert res.argopt == pytest.approx(0.0184479047, abs=1e-6)  # frozen
    # d_opt decreases toward 0 as the rate grows
    d10 = three_point_restricted_1d(OuParams(10.0), "K").argopt
    d30 = three_point_restricted_1d(OuParams(30.0), "K").argopt
    assert d10 > d30 > res.argopt > 0.0


def test_three_point_k_optimum_below_first_scan_step():
    # at rate 1e7 the interior optimum d ~ 7.7e-7 lies far below the first
    # step of the linear scan; the boundary d = 0 is worse, not collapsed
    res = three_point_restricted_1d(OuParams(1e7), "K")
    assert res.converged and not res.collapsed
    d = np.geomspace(1e-10, 0.5, 200_001)
    k = three_point_k(1e7, d)
    assert res.argopt == pytest.approx(d[np.argmin(k)], rel=1e-3)
    assert res.value == pytest.approx(k.min(), rel=1e-9)
    assert res.value < three_point_k(1e7, 0.0)


def test_three_point_limit_objective_shape():
    # the large-rate limit of K is the paper's r = (d^2+4)^2/(2(d^2-d+1))
    # in K form; its infimum is at d=0, value 3 + 2*sqrt(2) (r = 8)
    d = np.linspace(0.0, 1.0, 100_001)
    vals = three_point_limit_objective(d)
    paper = k_from_r((d * d + 4.0) ** 2 / (2.0 * (d * d - d + 1.0)))
    assert np.allclose(vals, paper, rtol=2e-15, atol=0.0)
    assert int(np.argmin(vals)) == 0
    assert vals[0] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-15)
    # pointwise convergence of the true K to the limit
    assert three_point_k(2000.0, 0.5) == pytest.approx(three_point_limit_objective(0.5), rel=1e-3)
    # the minimum K approaches the limiting infimum from above
    k100 = three_point_restricted_1d(OuParams(100.0), "K").value
    k1000 = three_point_restricted_1d(OuParams(1000.0), "K").value
    assert k100 > k1000 > vals[0]


def test_three_point_k_matches_dense_scan():
    for beta in (0.3, 100.0):
        res = three_point_restricted_1d(OuParams(beta), "K")
        d = np.linspace(0.0, 1.0, 100_001)
        vals = three_point_k(beta, d)
        assert res.argopt == pytest.approx(d[np.argmin(vals)], abs=1e-4)
        # dense scan cannot beat the refined value by more than tolerance
        assert np.min(vals) >= res.value - 1e-8


def test_three_point_first_order_condition():
    res = three_point_restricted_1d(OuParams(0.3), "K")
    h = 1e-4
    grad = (three_point_k(0.3, res.argopt + h) - three_point_k(0.3, res.argopt - h)) / (2 * h)
    assert abs(grad) <= 1e-5 * (1.0 + abs(res.value))


def unit_criteria_digits(mpmath, rate, d):
    """K, D (det) and the nine-point D axis factor l1*det of {0, d, 1} at
    mpmath's working precision, from the textbook closed-form entries."""
    b, d = mpmath.mpf(rate), mpmath.mpf(d)
    l1, l2, l3 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
    for lo, hi in ((0, d), (d, 1)):
        p = mpmath.exp(-b * (hi - lo))
        u = hi - lo * p
        l1, l2, l3 = l1 + (1 - p) / (1 + p), l2 + u / (1 + p), l3 + u * u / (1 - p * p)
    det = l1 * l3 - l2 * l2
    lam_max = (l1 + l3 + mpmath.sqrt((l1 - l3) ** 2 + 4 * l2 * l2)) / 2
    return {"K": lam_max * lam_max / det, "D": det, "axis": l1 * det}


def free_point_search(kind, rate):
    """The search whose free point is the optimum of ``kind``: three-point
    K or D, or nine-point D, whose t axis (rate 1) sits at the center."""
    if kind == "axis":
        return nine_point_restricted_2d(SheetParams(rate, 1.0), "D")
    return three_point_restricted_1d(OuParams(rate), kind)


def free_point(res):
    return res.argopt[0] if isinstance(res.argopt, tuple) else res.argopt


@pytest.mark.parametrize("kind", ["K", "D", "axis"])
def test_free_point_argopt_is_the_60_digit_root(kind):
    # quarter decades 1e-6..1e7 (K outside the collapse interval): the free
    # point against a 60-digit root of the criterion's derivative, found by
    # a bracketing solver on mpmath's numerical derivative (a center optimum
    # against the sign of the 60-digit second derivative there), and the
    # value against the 60-digit optimum, so no value is worse than the
    # optimum beyond the criterion's rounding
    mpmath = pytest.importorskip("mpmath")
    ci = collapse_interval()
    for rate in (10.0 ** (k / 4) for k in range(-24, 29)):
        if kind == "K" and ci.contains(rate):
            continue
        res = free_point_search(kind, rate)
        d = free_point(res)
        with mpmath.workdps(60):
            def f(x):
                return unit_criteria_digits(mpmath, rate, x)[kind]

            if d == 0.5:
                assert mpmath.diff(f, d, 2) < 0, rate
                root = mpmath.mpf(d)
            else:
                bracket = (d * (1 - 1e-6), d * (1 + 1e-6))
                root = mpmath.findroot(lambda x: mpmath.diff(f, x), bracket, solver="anderson")
            t_axis = unit_criteria_digits(mpmath, 1.0, 0.5)["axis"] if kind == "axis" else 1
            optimum = f(root) * t_axis
        assert d == pytest.approx(float(root), rel=1e-12, abs=0.0), rate
        assert res.value == pytest.approx(float(optimum), rel=1e-15), rate


def test_three_point_k_at_rate_1e12_is_the_60_digit_root():
    # the optimum sits at rate*d ~ 13.47, far inside the first cell of any
    # linear scan of the unit interval
    mpmath = pytest.importorskip("mpmath")
    res = three_point_restricted_1d(OuParams(1e12), "K")
    with mpmath.workdps(60):
        def slope(x):
            return mpmath.diff(lambda y: unit_criteria_digits(mpmath, 1e12, y)["K"], x)

        d = res.argopt
        root = mpmath.findroot(slope, (d * (1 - 1e-6), d * (1 + 1e-6)), solver="anderson")
    assert res.converged and not res.collapsed
    assert abs(1e12 * res.argopt - float(1e12 * root)) <= 1e-9
    assert 13.4689 < 1e12 * res.argopt < 13.4690


@pytest.mark.parametrize("kind,split", [("D", 7.15644), ("axis", 9.17778)])
def test_d_optimum_is_the_center_up_to_the_split_and_the_lower_mirror_above(kind, split):
    # the split is the rate where the criterion's second derivative at 1/2
    # vanishes (60 digits); at or below it the optimum is exactly 1/2, above
    # it the one of the two mirror optima below 1/2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        def curvature(rate):
            return mpmath.diff(lambda x: unit_criteria_digits(mpmath, rate, x)[kind], 0.5, 2)

        exact = float(mpmath.findroot(curvature, (split - 0.01, split + 0.01), solver="anderson"))
    assert exact == pytest.approx(split, abs=1e-5)
    for rate in exact * np.array([1e-9, 0.5, 0.99, 1 - 1e-6]):
        assert free_point(free_point_search(kind, rate)) == 0.5, rate
    for rate in [exact * (1 + 1e-4), exact * 1.01, 2 * exact, 1e3, 1e5, 1e7, 1e12, 1.7e308]:
        d = free_point(free_point_search(kind, rate))
        assert 0.0 < d < 0.5, rate


def test_free_point_searches_from_1e_minus_160_to_the_largest_rate():
    # decades 1e-160..1e308 and 1.7e308: each search returns a converged
    # result, with no numpy warning, or raises NumericalError where K
    # overflows (rates below ~5.6e-155); D optima lie at or below 1/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rate in [10.0**k for k in range(-160, 309)] + [1.7e308]:
            for kind in ("K", "D", "axis"):
                try:
                    res = free_point_search(kind, rate)
                except NumericalError:
                    assert kind == "K" and rate < 1e-154, rate
                    continue
                d = free_point(res)
                assert res.converged and 0.0 <= d <= (1.0 if kind == "K" else 0.5), (kind, rate)
                assert 0.0 < res.value < math.inf, (kind, rate)
        for kind in ("K", "D", "axis"):  # every scaled gap of {0, 1/2, 1} underflows to 0
            with pytest.raises(NumericalError):
                free_point_search(kind, 5e-324)


def test_three_point_criterion_validation():
    with pytest.raises(ValidationError):
        three_point_restricted_1d(OuParams(1.0), "A")


def test_restricted_axis_triples_match_public_entries():
    # a merged point (d = 0 or 1) contributes its zero-gap limit, so the
    # kernel reproduces the two-point design {0, 1} exactly
    from oudesign import fim_entries_1d

    for beta in (1e-6, 0.05, 2.0, 20.0, 1e7):
        two = fim_entries_1d(OuParams(beta), Design1D((0.0, 1.0)))
        for d in (0.0, 1.0):
            e = unit_design_entries(beta, d)
            assert (float(e.l1), float(e.l2), float(e.l3)) == (two.l1, two.l2, two.l3)
    # the batched scan path agrees with the public per-design entries
    rng = np.random.default_rng(33)
    betas = rng.uniform(0.05, 20.0, 30)
    ds = rng.uniform(0.01, 0.99, 30)
    batched = unit_design_entries(betas, ds)
    for k, (beta, d) in enumerate(zip(betas, ds)):
        e = fim_entries_1d(OuParams(beta), Design1D((0.0, d, 1.0)))
        assert batched.l1[k] == pytest.approx(e.l1, rel=1e-13)
        assert batched.l2[k] == pytest.approx(e.l2, rel=1e-13)
        assert batched.l3[k] == pytest.approx(e.l3, rel=1e-13)


def test_three_point_value_matches_objective_modules():
    from oudesign import fim_entries_1d, k_objective_1d, d_objective_1d

    res_k = three_point_restricted_1d(OuParams(0.3), "K")
    entries = fim_entries_1d(OuParams(0.3), Design1D((0.0, res_k.argopt, 1.0)))
    assert res_k.value == pytest.approx(k_objective_1d(entries), rel=1e-10)
    res_d = three_point_restricted_1d(OuParams(1.0), "D")
    entries = fim_entries_1d(OuParams(1.0), Design1D((0.0, res_d.argopt, 1.0)))
    assert res_d.value == pytest.approx(d_objective_1d(entries), rel=1e-10)


def raw_two_point_equation(beta, d):
    e = np.exp
    return (
        (d * d - 2) * e(3 * beta * d)
        + 2 * (beta * d + 1) * e(2 * beta * d)
        - (beta * d**3 + d * d + 2 * beta * d - 2) * e(beta * d)
        - 2
    )


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
def test_two_point_root_properties(beta):
    res = two_point_k_optimal(OuParams(beta))
    root = res.argopt
    assert res.converged and not res.collapsed
    # residual of the raw equation, scaled by its largest term
    scale = max(abs(root * root - 2) * np.exp(3 * beta * root), 2.0)
    assert abs(raw_two_point_equation(beta, root)) <= 1e-9 * scale
    # slope of K changes sign from - to + across the root
    h = 1e-6 * max(1.0, root)
    assert raw_two_point_equation(beta, root - h) < 0
    assert raw_two_point_equation(beta, root + h) > 0


def scaled_two_point_equation(beta, d):
    """raw_two_point_equation over exp(3*beta*d), which cannot overflow,
    and the size of its largest term."""
    x = beta * d
    terms = (
        d * d,
        -2.0,
        2 * (x + 1) * np.exp(-x),
        -(beta * d**3 + d * d + 2 * x - 2) * np.exp(-2 * x),
        -2 * np.exp(-3 * x),
    )
    return sum(terms), max(abs(t) for t in terms)


@pytest.mark.parametrize("beta", [10.0**k for k in range(-6, 8)] + [5e-7, 1e-7, 1e-8])
def test_two_point_root_across_rates(beta):
    # the root sits near 2*rate at small rates and tends to sqrt(2)
    res = two_point_k_optimal(OuParams(beta))
    assert res.converged
    residual, scale = scaled_two_point_equation(beta, res.argopt)
    assert abs(residual) <= 1e-9 * scale
    # unvalidated entries: below rate ~7e-7 the root's scaled gap 2*rate^2
    # lies under the coincidence floor of fim_entries_equidistant_1d
    d = np.geomspace(1e-4 * min(1.0, beta), 10.0, 200_001)
    k = k_objective_1d(_equidistant_entries(beta, d, 2))
    assert res.argopt == pytest.approx(d[np.argmin(k)], rel=1e-3)
    assert k.min() >= res.value * (1.0 - 1e-12)


@pytest.mark.parametrize(
    "beta,frozen",
    [(0.1, 0.1943297519), (1.0, 0.9008826195), (10.0, 1.4142058382)],
)
def test_two_point_root_matches_dense_scan(beta, frozen):
    res = two_point_k_optimal(OuParams(beta))
    assert res.argopt == pytest.approx(frozen, abs=1e-8)
    d = np.linspace(1e-4, 2.0, 200_001)
    k = k_objective_1d(fim_entries_equidistant_1d(OuParams(beta), d, 2))
    assert res.argopt == pytest.approx(d[np.argmin(k)], abs=1e-4)



@pytest.mark.parametrize("beta", [1e-75, 1e-40, 1e-6, 0.1, 1.0, 10.0, 1e7])
def test_two_point_root_to_the_last_bits(beta):
    # the bisected root against a high-precision root of the spacing
    # equation d^2/2 = q(rate*d), divided by d^2; q cancels like x^2 in
    # x = rate*d, so the digits grow with 4*log10(1/rate)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + 4 * max(0, -round(math.log10(beta)))):
        b = mpmath.mpf(beta)

        def scaled(d):
            x, e = b * d, mpmath.exp
            num = (1 - (x + 1) * e(-x) + e(-x) * (1 - e(-x))) * (1 - e(-x))
            return 0.5 - num / (1 - (x + 1) * e(-2 * x)) / (d * d)

        root = float(mpmath.findroot(scaled, (b, mpmath.sqrt(2)), solver="anderson"))
    res = two_point_k_optimal(OuParams(beta))
    assert res.converged
    assert res.argopt == pytest.approx(root, rel=1e-13)


def test_two_point_rate_floor():
    res = two_point_k_optimal(OuParams(TWO_POINT_MIN_RATE))
    assert res.converged
    assert res.argopt == pytest.approx(2.0 * TWO_POINT_MIN_RATE, rel=1e-13)
    # below the floor the bracket fails, then a division by zero or NaN
    for beta in (0.5 * TWO_POINT_MIN_RATE, 1e-80, 1e-160, 1e-200):
        with pytest.raises(ValidationError, match=f"{TWO_POINT_MIN_RATE:g}"):
            two_point_k_optimal(OuParams(beta))


@pytest.mark.parametrize(
    "search,rate,n",
    [("two-point", 1e-20, 2), ("two-point", 1e-10, 2), ("two-point", 1e-6, 2),
     ("equidistant", 1e-6, 10), ("equidistant", 1e-5, 3), ("equidistant", 1e-3, 30),
     ("three-point", 30.0, 3)],
)
def test_k_searches_report_k_to_the_last_digits(search, rate, n):
    # the reported K is the condition number at the reported design, to
    # rounding, also where it is within 1e-20 of 1
    mpmath = pytest.importorskip("mpmath")
    if search == "three-point":
        res = three_point_restricted_1d(OuParams(rate), "K")
    elif search == "two-point":
        res = two_point_k_optimal(OuParams(rate))
    else:
        res = equidistant_k_optimal_1d(OuParams(rate), n)
    with mpmath.workdps(60):
        d = mpmath.mpf(res.argopt)
        points = [0, d, 1] if search == "three-point" else [i * d for i in range(n)]
        exact = k_60_digits(mpmath, rate, points)
    assert res.value == pytest.approx(exact, rel=1e-14, abs=0.0)


# every search, and the limit surface, called with a tolerance argument
TOLERANT_SEARCHES = {
    "three-point": lambda tol: three_point_restricted_1d(OuParams(1.0), "K", refine_tol=tol),
    "nine-point": lambda tol: nine_point_restricted_2d(SheetParams(1.0, 2.0), "K", refine_tol=tol),
    "four-point": lambda tol: four_point_grid_k_optimal(SheetParams(1.0, 2.0), tol),
    "equidistant": lambda tol: equidistant_k_optimal_1d(OuParams(1.0), 5, tol),
    "surface": lambda tol: cond_limit_surface_2d([1.0], [1.0], "both", tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("search", TOLERANT_SEARCHES)
def test_searches_reject_bad_tolerances(search, tol):
    # the tolerances are module constants: no call sets one, bad or not
    with pytest.raises(TypeError):
        TOLERANT_SEARCHES[search](tol)


@pytest.mark.parametrize("resolution", [2, 3.5, 41.0, math.nan])
@pytest.mark.parametrize(
    "search,params",
    [(three_point_restricted_1d, OuParams(1.0)), (nine_point_restricted_2d, SheetParams(1.0, 2.0))],
)
def test_searches_reject_bad_grid_resolution(search, params, resolution):
    # so are the scan sizes
    with pytest.raises(TypeError):
        search(params, "K", resolution)

def test_equidistant_k_n2_agrees_with_two_point():
    # two-point is the equidistant search with n = 2
    for beta in (0.2, 1.0, 5.0):
        a = equidistant_k_optimal_1d(OuParams(beta), 2)
        b = two_point_k_optimal(OuParams(beta))
        assert (a.argopt, a.value) == (b.argopt, b.value)


def test_equidistant_k_n2_is_two_point_from_its_floor_to_the_largest_rate():
    for beta in np.geomspace(TWO_POINT_MIN_RATE, 1.7e308, 77):
        a = equidistant_k_optimal_1d(OuParams(beta), 2)
        b = two_point_k_optimal(OuParams(beta))
        assert (a.argopt, a.value) == (b.argopt, b.value), beta


def equidistant_k_digits(mpmath, rate, d, n):
    """Condition number of {0, d, ..., (n-1)d} from the paper's entry sums
    in closed form, at mpmath's working precision; e = 1 - exp(-rate*d)
    keeps the digits of small scaled steps."""
    b, m = mpmath.mpf(rate), n - 1
    e = -mpmath.expm1(-b * d)
    l1 = 1 + m * e / (2 - e)
    l2 = d * (m + e * m * (m - 1) / 2) / (2 - e)  # sum of (i+1) - i*p over the gaps
    squares = m + e * m * (m - 1) + e * e * mpmath.mpf((m - 1) * m * (2 * m - 1)) / 6
    l3 = d * d * squares / -mpmath.expm1(-2 * b * d)
    trace, det = l1 + l3, l1 * l3 - l2 * l2
    lam_max = (trace + mpmath.sqrt((l1 - l3) ** 2 + 4 * l2 * l2)) / 2
    return lam_max * lam_max / det


@pytest.mark.parametrize("n", [2, 3, 10, 30, 100, 300, 1000])
def test_equidistant_k_argopt_is_the_60_digit_root(n):
    # the bisected step against a 60-digit root of dK/d(log d), found by a
    # bracketing solver on mpmath's numerical derivative
    mpmath = pytest.importorskip("mpmath")
    for rate in (10.0**k for k in range(-6, 8)):
        res = equidistant_k_optimal_1d(OuParams(rate), n)
        with mpmath.workdps(60):
            def slope(u):
                return mpmath.diff(lambda v: equidistant_k_digits(mpmath, rate, mpmath.exp(v), n), u)

            u0 = mpmath.log(res.argopt)
            root = float(mpmath.exp(mpmath.findroot(slope, (u0 - 1e-6, u0 + 1e-6),
                                                    solver="anderson")))
        assert res.argopt == pytest.approx(root, rel=1e-13, abs=0.0), rate


@pytest.mark.parametrize("n,limit", [(2, math.sqrt(2.0)), (3, math.sqrt(0.6))])
def test_equidistant_k_argopt_at_large_rates_is_the_uncorrelated_limit(n, limit):
    # from rate 1e12 on the correlation vanishes at the optimum, where the
    # entries make l1 = l3; comparing values of K alone places this
    # quadratic minimum only to about sqrt(eps), the root of dK/du exactly
    res = equidistant_k_optimal_1d(OuParams(1e12), n)
    assert abs(res.argopt - limit) <= 2 * math.ulp(limit)


@pytest.mark.parametrize("search,n", [("two-point", 2), ("equidistant", 2), ("equidistant", 3),
                                      ("equidistant", 1000)])
def test_spacing_searches_at_the_largest_rate_return_the_limit_without_warnings(search, n):
    # rate*d overflows in the criterion's entries there, and the whole
    # search runs under the searches' errstate.  In the limit l1 = l3 = n
    # at d^2 = 6/((n-1)(2n-1)), and l2 = n(n-1)d/2, so K = (n + l2)/(n - l2).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if search == "two-point":
            res = two_point_k_optimal(OuParams(1.7e308))
        else:
            res = equidistant_k_optimal_1d(OuParams(1.7e308), n)
    d = math.sqrt(6.0 / ((n - 1) * (2 * n - 1)))
    l2 = n * (n - 1) * d / 2
    assert res.converged
    assert res.argopt == pytest.approx(d, rel=1e-15)
    assert res.value == pytest.approx((n + l2) / (n - l2), rel=1e-13)


def test_equidistant_k_endpoint_divergence():
    # K blows up for both vanishing and huge steps
    params = OuParams(1.0)
    res = equidistant_k_optimal_1d(params, 5)
    for d_edge in (1e-4, 1e4):
        assert k_objective_1d(fim_entries_equidistant_1d(params, d_edge, 5)) > 10.0 * res.value


def test_equidistant_k_matches_dense_scan():
    params = OuParams(1.0)
    res = equidistant_k_optimal_1d(params, 5)
    d = np.geomspace(1e-2, 1e2, 400_001)
    k = k_objective_1d(fim_entries_equidistant_1d(OuParams(1.0), d, 5))
    assert res.argopt == pytest.approx(d[np.argmin(k)], rel=1e-4)
    assert np.min(k) >= res.value - 1e-8


def test_equidistant_k_small_rate_large_n():
    # the optimal step shrinks like rate/(n-1); the scan window must follow
    res = equidistant_k_optimal_1d(OuParams(0.01), 1000)
    assert res.converged
    assert res.argopt == pytest.approx(2.0014e-5, rel=1e-3)  # frozen vs dense scan


@pytest.mark.parametrize("n", [3, 1000])
def test_equidistant_k_small_rate_below_old_floor(n):
    # at rate 1e-6 the optimal step lies below 1e-11/rate, where the scan
    # window used to end
    beta = 1e-6
    res = equidistant_k_optimal_1d(OuParams(beta), n)
    assert res.converged
    assert res.argopt < 1e-11 / beta
    d = np.geomspace(1e-3 * beta / (n - 1), 1e2, 200_001)
    k = k_objective_1d(_equidistant_entries(beta, d, n))
    assert res.argopt == pytest.approx(d[np.argmin(k)], rel=1e-3)
    assert np.min(k) >= res.value * (1.0 - 1e-12)


@pytest.mark.parametrize("rate", [1e-300, 1e-200, 1e-160])
@pytest.mark.parametrize("n", [2, 5, 1000])
def test_equidistant_k_at_vanishing_rates_raises_singular_fim(rate, n):
    # the entries of the smallest steps overflow there; the library call
    # raises SingularFimError with no numpy warning on the way, as the CLI
    with pytest.raises(SingularFimError, match="singular information matrix"):
        equidistant_k_optimal_1d(OuParams(rate), n)


@pytest.mark.parametrize("search_call", [
    lambda: nine_point_restricted_2d(SheetParams(1e-300, 1.0), "K"),
    lambda: nine_point_restricted_2d(SheetParams(1e-160, 1e-160), "K"),
    lambda: nine_point_restricted_2d(SheetParams(1.0, 1e-320), "D"),
    lambda: nine_point_restricted_2d(SheetParams(1.0, 1e-320), "K"),
    lambda: four_point_grid_k_optimal(SheetParams(1e-300, 1.0)),
    lambda: three_point_restricted_1d(OuParams(1e-300), "K"),
    lambda: three_point_restricted_1d(OuParams(1e-320), "D"),
    lambda: three_point_restricted_1d(OuParams(1e-320), "K"),
], ids=["nine-K-1e-300", "nine-K-1e-160", "nine-D-1e-320", "nine-K-1e-320",
        "four-1e-300", "three-K-1e-300", "three-D-1e-320", "three-K-1e-320"])
def test_searches_at_extreme_rates_raise_without_numpy_warnings(search_call):
    # every criterion evaluation runs under the searches' errstate, so the
    # package's error is the first thing raised (warnings are errors here)
    with pytest.raises((NumericalError, SingularFimError)):
        search_call()


@pytest.mark.parametrize("rate", [1e-300, 1e-200, 1e-160])
def test_singular_fim_message_names_a_number(rate):
    # the ratios of entries that overflowed are nan; the message counts
    # them instead of reporting a nan minimum
    with pytest.raises(SingularFimError) as info:
        equidistant_k_optimal_1d(OuParams(rate), 2)
    assert "nan" not in str(info.value).lower()
    assert "not a number" in str(info.value)


def test_four_point_k_pinned_at_the_window_end_is_not_converged(monkeypatch):
    # windows [1e-3, 1e-2] below the optimum (~(0.59, 0.99) at rates (1, 2)):
    # delta ends at its window's upper end exactly
    log_axis = search._log_axis
    monkeypatch.setattr(search, "_log_axis", lambda lo, hi, points, rate: log_axis(
        lo, 1e-2, points, rate))
    res = four_point_grid_k_optimal(SheetParams(1.0, 2.0))
    assert not res.converged
    assert res.argopt[1] == math.exp(math.log(1e-2))
    assert res.value == grid_cond(*(_equidistant_entries(rate, d, 2)
                                    for rate, d in zip((1.0, 2.0), res.argopt)))


def test_equidistant_d_monotone():
    assert equidistant_d_monotone_check(OuParams(0.5), 3, np.linspace(0.1, 10, 300))
    assert equidistant_d_monotone_check(OuParams(1.0), 2, np.linspace(0.05, 20, 300))
    assert equidistant_d_monotone_check(OuParams(2.0), 20, np.linspace(0.01, 5, 300))
    assert equidistant_d_monotone_check(OuParams(0.5), 3, (10.0, 0.1, 1.0))  # any order


@pytest.mark.parametrize("steps,error", [
    ([0.1, math.nan, 1.0], ValidationError),
    ([0.1, math.inf], ValidationError),
    ([0.1], ValidationError),
    ([1e-300, 1e-200], NearSingularDesignError),  # coincident at rate 1
], ids=["nan", "inf", "one step", "coincident"])
def test_equidistant_d_monotone_rejects_bad_steps(steps, error):
    with pytest.raises(error):
        equidistant_d_monotone_check(OuParams(1.0), 3, steps)


@pytest.mark.parametrize("beta,gamma", [(1.0, 1.0), (0.2, 0.3), (5.0, 8.0)])
def test_nine_point_d_optimum_is_directionally_equidistant(beta, gamma):
    res = nine_point_restricted_2d(SheetParams(beta, gamma), "D")
    d, dl = res.argopt
    assert d == pytest.approx(0.5, abs=1e-5)
    assert dl == pytest.approx(0.5, abs=1e-5)
    assert not res.collapsed


def test_nine_point_d_migrates_at_large_rates():
    # the grid determinant factorizes per axis; each axis factor's argmax
    # leaves the center above rate ~9.1778 (same mechanism as 1D)
    res = nine_point_restricted_2d(SheetParams(10.0, 30.0), "D")
    d, dl = res.argopt

    def axis_argmax(rate):
        grid = np.linspace(0.0, 1.0, 200_001)
        t = unit_design_entries(rate, grid)
        vals = t.l1 * d_objective_1d(t)
        return grid[int(np.argmax(vals))]

    assert min(d, 1.0 - d) == pytest.approx(min(axis_argmax(10.0), 1 - axis_argmax(10.0)), abs=1e-4)
    assert min(dl, 1.0 - dl) == pytest.approx(min(axis_argmax(30.0), 1 - axis_argmax(30.0)), abs=1e-4)


def test_nine_point_k_symmetric_rates():
    # equal rates give a symmetric optimum; the surface is very flat at
    # small rates, so coordinate agreement is limited to ~1e-4
    res = nine_point_restricted_2d(SheetParams(0.05, 0.05), "K")
    d, dl = res.argopt
    assert not res.collapsed
    assert d == pytest.approx(dl, abs=5e-4)


def test_nine_point_k_collapse_region():
    res = nine_point_restricted_2d(SheetParams(2.0, 2.0), "K")
    assert res.collapsed
    assert res.collapsed_axes == (True, True)


def test_nine_point_k_boundary_margin_does_not_depend_on_scan(monkeypatch):
    # the margin compares with the design moved MARGIN_STEP inside, not
    # with the scan's best interior point; abs covers the rounding of a
    # relative difference of two criterion values (~1e-15 each)
    cells = [c for c in TABLE1_CELLS if nine_point_restricted_2d(SheetParams(*c), "K").collapsed]
    assert len(cells) == 20

    def searches(resolution):
        monkeypatch.setattr("oudesign.search.SCAN_POINTS", resolution)
        return [nine_point_restricted_2d(SheetParams(*c), "K") for c in cells + [(2.0, 2.0)]]

    assert SCAN_POINTS == 41
    for coarse, fine in zip(searches(41), searches(201)):
        assert coarse.collapsed_axes == fine.collapsed_axes
        assert coarse.boundary_margin == pytest.approx(fine.boundary_margin, rel=1e-6, abs=1e-14)


def test_nine_point_k_matches_dense_scan():
    res = nine_point_restricted_2d(SheetParams(10.0, 10.0), "K")
    d, dl = res.argopt
    grid = np.linspace(0.0, 1.0, 1001)
    vals = grid_cond(
        unit_design_entries(10.0, grid[:, None]), unit_design_entries(10.0, grid[None, :])
    )
    k = int(np.argmin(vals))
    i, j = divmod(k, grid.size)
    assert d == pytest.approx(grid[i], abs=1.5e-3)
    assert dl == pytest.approx(grid[j], abs=1.5e-3)
    assert np.min(vals) >= res.value - 1e-8


def test_nine_point_first_order_condition():
    res = nine_point_restricted_2d(SheetParams(10.0, 10.0), "K")
    d, dl = res.argopt

    def f(x, y):
        return float(grid_cond(unit_design_entries(10.0, x), unit_design_entries(10.0, y)))

    h = 1e-4
    gx = (f(d + h, dl) - f(d - h, dl)) / (2 * h)
    gy = (f(d, dl + h) - f(d, dl - h)) / (2 * h)
    assert np.hypot(gx, gy) <= 1e-5 * (1.0 + abs(res.value))


def eigvalsh_cond(s_entries, t_entries):
    """Condition numbers of the assembled grid matrices by a generic
    symmetric eigensolver, batched over the entry arrays."""
    matrix = FimEntries2D(s_entries, t_entries).matrix()
    w = np.linalg.eigvalsh(np.moveaxis(matrix, (0, 1), (-2, -1)))
    return w[..., -1] / w[..., 0]


# eigvalsh resolves the smallest eigenvalue to ~eps*lam_max, so at
# condition numbers near 1e6 agreement is limited to ~1e-10 relative
@pytest.mark.parametrize("beta", [1e-6, 1e-5, 1e7])
def test_nine_point_k_large_condition_matches_eigensolver(beta):
    # at rate 1e7 the optimal d ~ 3e-7 lies far below the first scan step
    res = nine_point_restricted_2d(SheetParams(beta, 1.0), "K")
    assert res.converged
    d, dl = res.argopt
    at_opt = eigvalsh_cond(unit_design_entries(beta, d), unit_design_entries(1.0, dl))
    assert res.value == pytest.approx(float(at_opt), rel=1e-9)
    grid = np.linspace(0.0, 1.0, 401)
    dense = eigvalsh_cond(
        unit_design_entries(beta, grid[:, None]), unit_design_entries(1.0, grid[None, :])
    )
    assert np.min(dense) >= res.value * (1.0 - 1e-9)


# At large s-rates the K optimum's d ~ 3/rate lies inside the first scan
# cell and its delta moves with d: a narrow valley across both axes.
@pytest.mark.parametrize("beta", [1e3, 1e4, 1e5])
def test_nine_point_k_narrow_valley_is_optimal_along_each_axis(beta):
    res = nine_point_restricted_2d(SheetParams(beta, 1.0), "K")
    assert res.converged and not res.collapsed
    d, dl = res.argopt
    ds = d * np.exp(np.linspace(-0.05, 0.05, 20_001))
    dls = np.linspace(dl - 0.01, dl + 0.01, 20_001)
    along_d = grid_cond(unit_design_entries(beta, ds), unit_design_entries(1.0, dl))
    along_dl = grid_cond(unit_design_entries(beta, d), unit_design_entries(1.0, dls))
    assert min(np.min(along_d), np.min(along_dl)) >= res.value * (1.0 - 1e-11)


@pytest.mark.parametrize("beta", [1e-6, 1e-4])
def test_four_point_small_rate_converges(beta):
    # the optimal d ~ rate lies below the scan's old fixed floor of 1e-3
    res = four_point_grid_k_optimal(SheetParams(beta, 1.0))
    assert res.converged
    gs = np.geomspace(1e-3 * beta, 1e2, 1201)
    gt = np.geomspace(1e-3, 1e2, 1201)
    dense = grid_cond(
        _equidistant_entries(beta, gs[:, None], 2), _equidistant_entries(1.0, gt[None, :], 2)
    )
    assert np.min(dense) >= res.value * (1.0 - 1e-12)


def test_iterations_count_scan_and_refinement():
    # the free-point searches count the sign evaluations of their grid and
    # bisections, nine-point D those of both axes
    assert FREE_POINT_CELLS + 1 < three_point_restricted_1d(OuParams(0.3), "K").iterations < 200
    assert FREE_POINT_CELLS + 1 < three_point_restricted_1d(OuParams(20.0), "D").iterations < 200
    assert (2 * (FREE_POINT_CELLS + 1)
            <= nine_point_restricted_2d(SheetParams(1.0, 20.0), "D").iterations < 400)
    assert (nine_point_restricted_2d(SheetParams(10.0, 20.0), "K").iterations
            > SCAN_POINTS**2)
    assert (four_point_grid_k_optimal(SheetParams(0.2, 0.3)).iterations
            > SCAN_POINTS**2)
    # the spacing searches count the sign evaluations of one root bisection
    assert 2 < equidistant_k_optimal_1d(OuParams(1.0), 5).iterations < 100
    assert 2 < two_point_k_optimal(OuParams(1.0)).iterations < 100


def test_four_point_k_large_rates_is_positive():
    res = four_point_grid_k_optimal(SheetParams(100.0, 100.0))
    d, dl = res.argopt
    at_opt = eigvalsh_cond(
        fim_entries_equidistant_1d(OuParams(100.0), d, 2),
        fim_entries_equidistant_1d(OuParams(100.0), dl, 2),
    )
    assert res.value > 1.0
    assert res.value == pytest.approx(float(at_opt), rel=1e-9)


def test_exchange_symmetry_bitwise():
    # swapping the rates swaps the optimal coordinates exactly
    a = nine_point_restricted_2d(SheetParams(10.0, 20.0), "K")
    b = nine_point_restricted_2d(SheetParams(20.0, 10.0), "K")
    assert a.argopt == (b.argopt[1], b.argopt[0])
    assert a.value == b.value
    fa = four_point_grid_k_optimal(SheetParams(0.2, 0.3))
    fb = four_point_grid_k_optimal(SheetParams(0.3, 0.2))
    assert fa.argopt == (fb.argopt[1], fb.argopt[0])
    assert fa.value == fb.value


def test_four_point_interior_minimum():
    res = four_point_grid_k_optimal(SheetParams(0.2, 0.3))
    assert res.converged and not res.collapsed
    d, dl = res.argopt
    assert 0.0 < d < 10.0 and 0.0 < dl < 10.0
    # dense 2D scan at ~5e-4 resolution cannot beat the refined optimum;
    # scanned in row blocks to keep memory small, first minimum wins
    grid = np.arange(0.01, 3.0, 5e-4)
    t_entries = fim_entries_equidistant_1d(OuParams(0.3), grid[None, :], 2)
    best, i, j = np.inf, -1, -1
    for start in range(0, grid.size, 128):
        s_entries = fim_entries_equidistant_1d(OuParams(0.2), grid[start:start + 128, None], 2)
        vals = grid_cond(s_entries, t_entries)
        k = int(np.argmin(vals))
        if vals.flat[k] < best:
            best = float(vals.flat[k])
            i, j = start + k // grid.size, k % grid.size
    assert d == pytest.approx(grid[i], abs=1e-3)
    assert dl == pytest.approx(grid[j], abs=1e-3)
    assert best >= res.value - 1e-8


def test_four_point_symmetric_rates():
    res = four_point_grid_k_optimal(SheetParams(0.25, 0.25))
    d, dl = res.argopt
    assert d == pytest.approx(dl, abs=1e-6)


# every unequal pair from a box of rates; the sorted-coordinate tie rule
# makes the swapped search take the swapped path
SWAP_RATES = [10.0**k for k in range(-6, 8)] + [0.03, 0.05, 0.2, 0.3, 2.0, 15.0, 20.0]


@pytest.mark.parametrize("search_k", [
    lambda params: nine_point_restricted_2d(params, "K"), four_point_grid_k_optimal,
], ids=["nine-point", "four-point"])
def test_exchange_symmetry_bitwise_over_a_rate_box(search_k):
    asymmetric = []
    for beta, gamma in itertools.combinations(SWAP_RATES, 2):
        a, b = search_k(SheetParams(beta, gamma)), search_k(SheetParams(gamma, beta))
        if not (a.argopt == (b.argopt[1], b.argopt[0]) and a.value == b.value):
            asymmetric.append((beta, gamma))
    assert asymmetric == []


@pytest.mark.parametrize("rate", [1e-6, 1e-5, 1e-4])
def test_four_point_near_the_identity_keeps_its_digits(rate):
    # both axes at a small rate: the grid matrix is close to a multiple of
    # the identity, where an invariant-based trigonometric root cancels
    mpmath = pytest.importorskip("mpmath")
    res = four_point_grid_k_optimal(SheetParams(rate, rate))
    d, dl = res.argopt
    k = grid_k_digits(mpmath, 80, (rate, rate), (0.0, d), (0.0, dl))
    assert res.value == pytest.approx(k, rel=1e-9)


# the benchmark's design_search pairs, plus two interior optima
FOUR_POINT_PAIRS = ([(10.0**k, 10.0**k) for k in range(-6, 8)]
                    + [(10.0**k, 1.0) for k in range(-6, 8) if k != 0]
                    + [(0.2, 0.3), (0.25, 0.25)])


def test_four_point_41_point_scan_finds_the_241_point_basin(monkeypatch):
    # a scan only has to land in the optimum's basin; the refine sets the
    # precision, so the coarse scan's value is no worse than the fine one's
    coarse = [four_point_grid_k_optimal(SheetParams(*p)) for p in FOUR_POINT_PAIRS]
    monkeypatch.setattr("oudesign.search.SCAN_POINTS", 241)
    for p, res in zip(FOUR_POINT_PAIRS, coarse):
        fine = four_point_grid_k_optimal(SheetParams(*p))
        assert res.value <= fine.value * (1.0 + 1e-12), p
        assert res.converged == fine.converged, p


def test_four_point_far_below_the_rate_box_keeps_its_digits():
    # the 241-point scan led the refine to where the grid kernel errs low
    # (2.4e-8 below the true K at its own argopt); the 41-point one does not
    mpmath = pytest.importorskip("mpmath")
    res = four_point_grid_k_optimal(SheetParams(1e-9, 7.5))
    d, dl = res.argopt
    k = grid_k_digits(mpmath, 80, (1e-9, 7.5), (0.0, d), (0.0, dl))
    assert res.value == pytest.approx(k, rel=1e-12)


def test_table1_nine_point_k_values_match_60_digits():
    # a collapsed coordinate merges two points, which leaves the design
    # without the duplicate
    mpmath = pytest.importorskip("mpmath")
    for beta, gamma in TABLE1_CELLS:
        res = nine_point_restricted_2d(SheetParams(beta, gamma), "K")
        s_points, t_points = (sorted({0.0, c, 1.0}) for c in res.argopt)
        k = grid_k_digits(mpmath, 60, (beta, gamma), s_points, t_points)
        assert res.value == pytest.approx(k, rel=1e-14), (beta, gamma)


def test_kopt_curve_lower_interval():
    ci = collapse_interval()
    betas = np.linspace(0.05, ci.lower - 0.01, 15)
    rows = kopt_curve_1d(betas)
    assert not any(r.collapsed for r in rows)
    d_opts = [r.d_opt for r in rows]
    # continuity: no jumps between adjacent sweep points
    assert max(abs(a - b) for a, b in zip(d_opts, d_opts[1:])) < 0.12
    # approaches the boundary as the rate nears the collapse onset
    assert d_opts[-1] < 0.02


def test_kopt_curve_upper_interval():
    # d_opt starts near 0 at the collapse offset, rises, then decays to 0
    betas = np.geomspace(5.1, 100.0, 12)
    rows = kopt_curve_1d(betas)
    assert not any(r.collapsed for r in rows)
    d_opts = [r.d_opt for r in rows]
    assert d_opts[0] < 0.02          # just past the collapse interval
    assert max(d_opts) > 0.04        # interior hump
    assert d_opts[-1] < 0.03         # vanishes again as the rate grows


def test_kopt_curve_marks_collapse():
    rows = kopt_curve_1d([0.3, 2.0, 10.0])
    assert [r.collapsed for r in rows] == [False, True, False]
    assert rows[1].d_opt in (0.0, 1.0)


def test_kopt_surface_collapse_pattern_matches_table_region():
    # the whole large-rate block supports non-collapsing optima; (2,2)
    # sits inside the 2D collapse region (note: unlike 1D, (5,5) does not
    # collapse; the interior minimum beats the boundary by dense scan)
    rows = kopt_surface_2d([2.0, 5.0, 10.0, 30.0], [2.0, 5.0, 10.0, 30.0])
    by_key = {(r.beta, r.gamma): r for r in rows}
    assert by_key[(2.0, 2.0)].collapsed_s and by_key[(2.0, 2.0)].collapsed_t
    assert not by_key[(5.0, 5.0)].collapsed_s
    assert not by_key[(10.0, 10.0)].collapsed_s
    assert not by_key[(30.0, 30.0)].collapsed_s
    assert not by_key[(10.0, 30.0)].collapsed_s


def test_scan_dispatch():
    rows = kopt_curve_1d([1.0])
    assert rows[0].collapsed
    rows2 = kopt_surface_2d([10.0], [10.0])
    assert rows2[0].d_opt == pytest.approx(rows2[0].delta_opt, abs=1e-6)


def _refine_levels(width, tol, points):
    """Refine levels from the scan spacing down to tol, at 4/(points - 1)
    shrink per level."""
    levels = 0
    while width > tol:
        width, levels = 4 / (points - 1) * width, levels + 1
    return levels


@pytest.mark.parametrize("x0", [0.0, 1.0, 0.3 + 0.5 / 40 * (1 - 1e-9), 0.3 + 1e-12, 0.6 - 1e-12])
def test_refine_keeps_a_minimum_at_a_scan_cell_edge(x0):
    # |x - x0| is unimodal, with its minimum at the edge of the nearest
    # scan point's cell (or on it, or at an end): every level's window must
    # still hold it, and the ends are hit exactly
    tol, points = 1e-10, search.REFINE_POINTS
    axis = np.linspace(0.0, 1.0, 41)
    (x,), _, evaluations = search._scan_refine(lambda x: np.abs(x - x0), (axis,), tol)
    assert abs(x - x0) <= tol
    assert x == x0 or x0 not in (0.0, 1.0)
    assert evaluations == axis.size + _refine_levels(axis[1], tol, points) * points
    y0 = 1.0 - x0
    (x, y), _, evaluations = search._scan_refine(
        lambda x, y: np.abs(x - x0) + np.abs(y - y0), (axis, axis), tol)
    assert abs(x - x0) <= tol and abs(y - y0) <= tol
    assert (x, y) == (x0, y0) or x0 not in (0.0, 1.0)
    assert evaluations == axis.size**2 + _refine_levels(axis[1], tol, points) * points**2
