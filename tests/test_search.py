import math

import numpy as np
import pytest

from oudesign import (
    Design1D,
    FimEntries2D,
    OuParams,
    SheetParams,
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
from oudesign.fim import _equidistant_entries, _points_entries
from oudesign.objectives import _cond3_from_entries
from oudesign.search import (
    NINE_POINT_GRID_RESOLUTION,
    THREE_POINT_GRID_RESOLUTION,
    TWO_POINT_MIN_RATE,
)
from helpers import TABLE1_CELLS, k_60_digits, k_from_r

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
    # two evaluations (the design and the margin's point inside)
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
                assert res.iterations > THREE_POINT_GRID_RESOLUTION


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
    assert res.argopt == pytest.approx(0.5, abs=1e-6)
    assert not res.collapsed
    assert res.converged


@pytest.mark.parametrize(
    "beta,offcenter",
    [(10.0, 0.2798896), (50.0, 0.0797525)],  # frozen from dense scans
)
def test_three_point_d_optimum_migrates_at_large_rates(beta, offcenter):
    # the determinant objective is reflection-symmetric in d <-> 1-d; above
    # rate ~7.1566 the center becomes a local minimum and two symmetric
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
    # localization is sqrt(eps)-limited near the flat minimum, so
    # agreement is 1e-6, not the refinement tolerance
    for beta in (0.2, 1.0, 5.0):
        a = equidistant_k_optimal_1d(OuParams(beta), 2)
        b = two_point_k_optimal(OuParams(beta))
        assert a.argopt == pytest.approx(b.argopt, abs=1e-6)
        assert a.value == pytest.approx(b.value, rel=1e-10)


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


def test_equidistant_d_monotone():
    assert equidistant_d_monotone_check(OuParams(0.5), 3, np.linspace(0.1, 10, 300))
    assert equidistant_d_monotone_check(OuParams(1.0), 2, np.linspace(0.05, 20, 300))
    assert equidistant_d_monotone_check(OuParams(2.0), 20, np.linspace(0.01, 5, 300))


@pytest.mark.parametrize("beta,gamma", [(1.0, 1.0), (0.2, 0.3), (5.0, 8.0)])
def test_nine_point_d_optimum_is_directionally_equidistant(beta, gamma):
    res = nine_point_restricted_2d(SheetParams(beta, gamma), "D")
    d, dl = res.argopt
    assert d == pytest.approx(0.5, abs=1e-5)
    assert dl == pytest.approx(0.5, abs=1e-5)
    assert not res.collapsed


def test_nine_point_d_migrates_at_large_rates():
    # the grid determinant factorizes per axis; each axis factor's argmax
    # leaves the center above rate ~9.178 (same mechanism as 1D)
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
        monkeypatch.setattr("oudesign.search.NINE_POINT_GRID_RESOLUTION", resolution)
        return [nine_point_restricted_2d(SheetParams(*c), "K") for c in cells + [(2.0, 2.0)]]

    assert NINE_POINT_GRID_RESOLUTION == 41
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
    assert three_point_restricted_1d(OuParams(0.3), "K").iterations > THREE_POINT_GRID_RESOLUTION
    assert (nine_point_restricted_2d(SheetParams(10.0, 20.0), "K").iterations
            > NINE_POINT_GRID_RESOLUTION**2)
    # D scans and refines each axis on its own
    assert (nine_point_restricted_2d(SheetParams(1.0, 2.0), "D").iterations
            > 2 * NINE_POINT_GRID_RESOLUTION)
    assert four_point_grid_k_optimal(SheetParams(0.2, 0.3)).iterations > 241**2
    assert equidistant_k_optimal_1d(OuParams(1.0), 5).iterations > 2001
    assert two_point_k_optimal(OuParams(1.0)).iterations > 2


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
