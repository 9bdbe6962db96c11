import math
import pathlib
import re

import numpy as np
import pytest

from oudesign import (
    Design1D,
    OuParams,
    SheetParams,
    ValidationError,
    cond_limit_surface_2d,
    d_objective_1d,
    det_decomposition_factor,
    domain_doubling_limit_d,
    domain_doubling_limit_d_axis,
    domain_doubling_limit_k,
    doubling_ratio_1d,
    doubling_ratio_2d,
    fim_entries_equidistant_1d,
)
from oudesign._reference import fim_definitional_1d
from oudesign.asymptotics import SURFACE_N_SEQUENCE, SURFACE_TOL, _window_entries

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_limit_d_values():
    assert domain_doubling_limit_d(1e-6) == pytest.approx(2.0, rel=1e-5)
    assert domain_doubling_limit_d(1e6) == pytest.approx(16.0, rel=1e-5)
    assert domain_doubling_limit_d(1.0) == pytest.approx(224.0 / 57.0, rel=1e-14)


def test_limit_k_values():
    assert domain_doubling_limit_k(1e-6) == pytest.approx(2.0, rel=1e-5)
    tail = (7.0 + math.sqrt(37.0)) ** 2 / (8.0 + 2.0 * math.sqrt(13.0)) ** 2
    assert domain_doubling_limit_k(1e8) == pytest.approx(tail, rel=1e-7)
    assert tail == pytest.approx(0.7397, abs=5e-5)


def test_limit_k_single_maximum():
    betas = np.linspace(1e-4, 5.0, 50_001)
    values = np.array([domain_doubling_limit_k(b) for b in betas])
    i = int(np.argmax(values))
    assert 0 < i < betas.size - 1
    # one maximum: rising before it, falling after it
    assert np.all(np.diff(values[: i + 1]) > 0) and np.all(np.diff(values[i:]) < 0)
    assert betas[i] == pytest.approx(0.2730, abs=1e-3)
    assert values[i] == pytest.approx(2.3454, abs=1e-3)


def test_limit_d_axis_values():
    assert domain_doubling_limit_d_axis(1e-6) == pytest.approx(2.0, rel=1e-5)
    assert domain_doubling_limit_d_axis(1e6) == pytest.approx(32.0, rel=1e-5)
    assert domain_doubling_limit_d_axis(1.0) == pytest.approx(
        (4.0 / 3.0) * (224.0 / 57.0), rel=1e-14
    )



@pytest.mark.parametrize("beta", [10.0**k for k in range(-300, 301, 20)])
def test_limits_match_mpmath_at_every_rate(beta):
    # b**4 overflowed from about 1e78, and limit_k was nan from 1e44
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        limit_d = 16 * (b + 1) * (b * b + 3 * b + 3) / ((b + 2) * (b * b + 6 * b + 12))
        limit_k = (
            (b + 2) * (b * b + 6 * b + 12)
            * (7 * b * b + 9 * b + 3 + mpmath.sqrt(37 * b**4 + 78 * b**3 + 51 * b * b + 18 * b + 9)) ** 2
            / (4 * (b + 1) * (b * b + 3 * b + 3)
               * (4 * b * b + 9 * b + 3 + mpmath.sqrt(13 * b**4 + 48 * b**3 + 33 * b * b - 18 * b + 9)) ** 2)
        )
        limit_d_axis = 2 * (b + 1) / (b + 2) * limit_d
    assert domain_doubling_limit_d(beta) == pytest.approx(float(limit_d), rel=1e-14)
    assert domain_doubling_limit_k(beta) == pytest.approx(float(limit_k), rel=1e-14)
    assert domain_doubling_limit_d_axis(beta) == pytest.approx(float(limit_d_axis), rel=1e-14)


def test_limits_reach_their_large_rate_values():
    tail = (7.0 + math.sqrt(37.0)) ** 2 / (8.0 + 2.0 * math.sqrt(13.0)) ** 2
    for beta in (1e300, 1.7976931348623157e308):
        assert domain_doubling_limit_d(beta) == pytest.approx(16.0, rel=1e-14)
        assert domain_doubling_limit_d_axis(beta) == pytest.approx(32.0, rel=1e-14)
        assert domain_doubling_limit_k(beta) == pytest.approx(tail, rel=1e-14)


@pytest.mark.parametrize("beta", [5e-324, 1e-320, 1e-309, 2.2e-308])
def test_limits_are_two_at_subnormal_rates(beta):
    # every limit is 2 + O(rate); below 1e-300 the window entries stop
    # being normal, and the limits were nan, 1.99999999999999 or an error
    assert domain_doubling_limit_d(beta) == 2.0
    assert domain_doubling_limit_k(beta) == 2.0
    assert domain_doubling_limit_d_axis(beta) == 2.0

def test_limit_monotonicity():
    betas = np.geomspace(1e-3, 1e3, 200)
    d_vals = [domain_doubling_limit_d(b) for b in betas]
    assert all(a < b for a, b in zip(d_vals, d_vals[1:]))
    da_vals = [domain_doubling_limit_d_axis(b) for b in betas]
    assert all(a < b for a, b in zip(da_vals, da_vals[1:]))


def test_doubling_1d_infill():
    rep = doubling_ratio_1d(OuParams(1.0), 1000, "infill")
    assert rep.limit_det == 1.0 and rep.limit_cond == 1.0
    assert rep.ratio_det == pytest.approx(1.0, abs=1e-2)
    assert rep.ratio_cond == pytest.approx(1.0, abs=1e-2)


def test_doubling_1d_domain():
    rep = doubling_ratio_1d(OuParams(1.0), 1000, "domain")
    assert rep.ratio_det == pytest.approx(domain_doubling_limit_d(1.0), abs=1e-2)
    assert rep.ratio_cond == pytest.approx(domain_doubling_limit_k(1.0), abs=1e-2)


def test_doubling_1d_domain_at_peak_rate():
    # convergence toward the maximal limiting value at the peak rate
    beta = 0.2730
    errs = []
    for n in (50, 100, 200, 400):
        rep = doubling_ratio_1d(OuParams(beta), n, "domain")
        errs.append(abs(rep.ratio_cond - domain_doubling_limit_k(beta)))
    assert errs[-1] < 1e-3
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert doubling_ratio_1d(OuParams(beta), 400, "domain").ratio_cond == pytest.approx(
        2.3454, abs=5e-3
    )


def test_doubling_convergence_monotone_1d_det():
    for mode, beta in (("infill", 1.0), ("domain", 1.0)):
        errs = []
        for n in (50, 100, 200, 400):
            rep = doubling_ratio_1d(OuParams(beta), n, mode)
            errs.append(abs(rep.ratio_det - rep.limit_det))
        assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_doubling_2d_infill_modes():
    params = SheetParams(1.0, 1.0)
    for mode in ("infill-both", "infill-one"):
        rep = doubling_ratio_2d(params, 200, 200, mode)
        assert rep.ratio_det == pytest.approx(1.0, abs=2e-2)
        assert rep.ratio_cond == pytest.approx(1.0, abs=2e-2)
        assert rep.limit_cond == 1.0


def test_doubling_2d_domain_modes():
    params = SheetParams(1.0, 2.0)
    both = doubling_ratio_2d(params, 200, 200, "domain-both")
    target = domain_doubling_limit_d_axis(1.0) * domain_doubling_limit_d_axis(2.0)
    assert both.limit_det == pytest.approx(target, rel=1e-14)
    assert both.ratio_det == pytest.approx(target, abs=2e-2)
    assert both.limit_cond == pytest.approx(1.9238566629781695, rel=1e-14)
    assert both.ratio_cond == pytest.approx(both.limit_cond, abs=2e-2)
    one = doubling_ratio_2d(params, 200, 200, "domain-one")
    assert one.ratio_det == pytest.approx(domain_doubling_limit_d_axis(1.0), abs=2e-2)


def test_doubling_2d_det_domain_factorizes():
    params = SheetParams(1.0, 2.0)
    both = doubling_ratio_2d(params, 200, 200, "domain-both").ratio_det
    one_s = doubling_ratio_2d(params, 200, 200, "domain-one").ratio_det
    swapped = SheetParams(2.0, 1.0)
    one_t = doubling_ratio_2d(swapped, 200, 200, "domain-one").ratio_det
    assert both == pytest.approx(one_s * one_t, rel=4e-2)


def test_doubling_mode_validation():
    with pytest.raises(ValidationError):
        doubling_ratio_1d(OuParams(1.0), 100, "sideways")
    with pytest.raises(ValidationError):
        doubling_ratio_2d(SheetParams(1.0, 1.0), 100, 100, "domain")


def test_cond_limit_surface_dependence_on_second_rate():
    # the one-direction limit depends on both rates, unlike the det one
    cells = cond_limit_surface_2d([1.0], [1.0, 5.0], mode="one")
    assert all(c.converged for c in cells)
    k11, k15 = cells[0].estimate, cells[1].estimate
    assert abs(k11 - k15) > 10.0 * max(c.error_estimate for c in cells)


def test_cond_limit_surface_symmetry_and_corner():
    cells = cond_limit_surface_2d([0.01, 2.0], [0.01, 2.0], mode="both")
    by_key = {(c.beta, c.gamma): c.estimate for c in cells}
    # exchange symmetry of the construction, bit for bit
    assert by_key[(0.01, 2.0)] == by_key[(2.0, 0.01)]
    # small-rate corner continues the 1D small-rate value 2
    assert by_key[(0.01, 0.01)] == pytest.approx(2.0, abs=5e-2)


@pytest.mark.parametrize("mode", ["both", "one"])
def test_cond_limit_surface_matches_per_cell_ratios(mode):
    # the batched surface reproduces Richardson extrapolation of the
    # per-cell doubling ratios, and its error is the distance to the
    # per-cell exact limit
    grid = (1e-3, 0.3, 2.0, 40.0)
    cells = cond_limit_surface_2d(grid, grid[::-1], mode=mode)
    for c in cells:
        params = SheetParams(c.beta, c.gamma)
        r1, r2 = (
            doubling_ratio_2d(params, k, k, "domain-" + mode).ratio_cond
            for k in SURFACE_N_SEQUENCE
        )
        assert c.estimate == pytest.approx(2.0 * r2 - r1, rel=1e-12)
        limit = doubling_ratio_2d(params, 2, 2, "domain-" + mode).limit_cond
        assert c.error_estimate == abs(c.estimate - limit)
        assert c.converged == (c.error_estimate <= SURFACE_TOL)


def test_cond_limit_surface_equals_its_transpose():
    grid = np.geomspace(0.01, 100.0, 9)
    cells = cond_limit_surface_2d(grid, grid, mode="both")
    est = np.array([c.estimate for c in cells]).reshape(9, 9)
    err = np.array([c.error_estimate for c in cells]).reshape(9, 9)
    assert np.array_equal(est, est.T)
    assert np.array_equal(err, err.T)


def test_cond_limit_surface_interior_maximum():
    grid = np.geomspace(0.05, 50.0, 12)
    cells = cond_limit_surface_2d(grid, grid, mode="both")
    est = np.array([c.estimate for c in cells]).reshape(12, 12)
    i, j = np.unravel_index(np.argmax(est), est.shape)
    assert 0 < i < 11 and 0 < j < 11  # maximum away from the grid boundary


def test_cond_limit_surface_validation():
    with pytest.raises(ValidationError, match="mode"):
        cond_limit_surface_2d([1.0], [1.0], mode="domain-both")
    with pytest.raises(ValidationError, match="rate"):
        cond_limit_surface_2d([1.0, 0.0], [1.0])
    with pytest.raises(ValidationError, match="rate"):
        cond_limit_surface_2d([1.0], [math.inf])


def test_cond_limit_surface_flags_nonconvergence():
    # a cell whose extrapolation error exceeds SURFACE_TOL is reported,
    # not silently accepted (its error is about 1.016e-3)
    cells = cond_limit_surface_2d([316.2277660168379], [10.0], mode="one")
    assert not cells[0].converged
    assert cells[0].error_estimate > SURFACE_TOL


def test_det_factor_three_point_closed_form():
    # slope-scale factor at n=3 is x^2/(1 - e^{-2x})
    for x in (0.2, 1.0, 3.5):
        assert det_decomposition_factor("F", 3, x) == pytest.approx(
            x * x / (1.0 - math.exp(-2.0 * x)), rel=1e-12
        )


def test_det_factor_two_point_closed_form():
    for x in (0.2, 1.0, 3.5):
        assert det_decomposition_factor("F", 2, x) == pytest.approx(
            x * x / (2.0 * (1.0 - math.exp(-x))), rel=1e-12
        )


def test_det_factor_intercept_at_least_one():
    rng = np.random.default_rng(30)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        x = float(rng.uniform(1e-3, 20.0))
        assert det_decomposition_factor("J", n, x) >= 1.0


def test_det_factor_f_is_f3_times_g():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        x = float(rng.uniform(0.05, 8.0))
        f3 = det_decomposition_factor("F", 3, x)
        assert det_decomposition_factor("F", n, x) == pytest.approx(
            f3 * det_decomposition_factor("G", n, x), rel=1e-12
        )


def test_det_reconstruction_identity():
    # det objective equals J * (n-1)/beta^2 * F on equidistant designs
    for n in range(2, 11):
        for beta in (0.1, 1.0, 10.0):
            for d in (0.1, 1.0, 5.0):
                entries = fim_entries_equidistant_1d(OuParams(beta), d, n)
                det = d_objective_1d(entries)
                j = det_decomposition_factor("J", n, beta * d)
                f = det_decomposition_factor("F", n, beta * d)
                assert det == pytest.approx(j * (n - 1) / beta**2 * f, rel=1e-10)


def test_det_factor_validation():
    with pytest.raises(ValidationError):
        det_decomposition_factor("Q", 3, 1.0)
    with pytest.raises(ValidationError):
        det_decomposition_factor("J", 1, 1.0)
    with pytest.raises(ValidationError):
        det_decomposition_factor("J", 3, -1.0)


@pytest.mark.parametrize("beta", [0.1, 1.0, 7.0, 50.0])
@pytest.mark.parametrize("window", [1.0, 2.0])
def test_window_entries_are_the_dense_partitions_limit(beta, window):
    # equidistant partitions of [0, T] converge in (beta*T/n)^2; from
    # beta*T/n <= 0.1 on, one extrapolation step leaves about 2e-7
    def partition_entries(n):
        design = Design1D(tuple(np.linspace(0.0, window, n + 1)))
        fim = fim_definitional_1d(OuParams(beta), design)
        return np.array([fim[0, 0], fim[0, 1], fim[1, 1]])

    n = max(64, 8 * math.ceil(1.25 * beta * window))
    limit = (4.0 * partition_entries(2 * n) - partition_entries(n)) / 3.0
    entries = _window_entries(beta, window)
    scale = max(1.0, beta) ** 2 / beta
    assert np.array([entries.l1, entries.l2, entries.l3]) * scale == pytest.approx(limit, rel=1e-6)


def test_window_entries_stay_finite_and_normal_at_every_rate():
    tiny = np.finfo(float).tiny
    for beta in [10.0**k for k in range(-300, 301, 10)] + [1.7976931348623157e308]:
        for window in (1.0, 2.0):
            e = _window_entries(beta, window)
            assert all(tiny <= v < math.inf for v in (e.l1, e.l2, e.l3)), (beta, window)


def _limit_cond_50_digits(mpmath, beta, gamma, mode):
    """The ratio of the grid condition numbers under continuous
    observation of the doubled and the unit window, from 50-digit entries
    and eigenvalues."""
    def entries(rate, window):
        b, w = mpmath.mpf(rate), mpmath.mpf(window)
        return 1 + b * w / 2, w / 2 + b * w**2 / 4, w**2 / 2 + w / (2 * b) + b * w**3 / 6

    def cond(s, t):
        (l1, l2, l3), (m1, m2, m3) = s, t
        fim = mpmath.matrix([[l1 * m1, l2 * m1, l1 * m2],
                             [l2 * m1, l3 * m1, l2 * m2],
                             [l1 * m2, l2 * m2, l1 * m3]])
        w = sorted(mpmath.eigsy(fim, eigvals_only=True))
        return w[-1] / w[0]

    with mpmath.workdps(50):
        t_wide = entries(gamma, 2 if mode == "domain-both" else 1)
        return float(cond(entries(beta, 2), t_wide) / cond(entries(beta, 1), entries(gamma, 1)))


@pytest.mark.parametrize("mode", ["domain-both", "domain-one"])
@pytest.mark.parametrize("rates, rel", [
    ((50.0, 50.0), 1e-14),
    ((1e3, 1e3), 1e-14),
    ((1e4, 1e-2), 1e-14),
    ((1e-2, 1e4), 1e-14),
    ((1e6, 1e6), 1e-14),
    # the three eigenvalues are near-double here (the two smallest differ by
    # about the rate), where the 3x3 kernel keeps only about half its digits:
    # the limits read 1.4e-11 and 1.2e-11 off
    ((1e-6, 1e-6), 1e-10),
])
def test_domain_limit_cond_matches_50_digit_eigenvalues(rates, rel, mode):
    mpmath = pytest.importorskip("mpmath")
    rep = doubling_ratio_2d(SheetParams(*rates), 2, 2, mode)
    assert rep.limit_cond == pytest.approx(_limit_cond_50_digits(mpmath, *rates, mode), rel=rel)


# doubling_ratio_2d rejects rates below 2e-12, whose scaled step 1/2 is
# below MIN_SCALED_GAP
LIMIT_EXPONENTS = (-11, -6, -1, 0, 1, 4, 7, 77, 154, 300)


def test_domain_limit_det_is_the_product_of_the_axis_limits():
    for i in LIMIT_EXPONENTS:
        for j in LIMIT_EXPONENTS:
            beta, gamma = 10.0**i, 10.0**j
            both = doubling_ratio_2d(SheetParams(beta, gamma), 2, 2, "domain-both")
            one = doubling_ratio_2d(SheetParams(beta, gamma), 2, 2, "domain-one")
            axis = domain_doubling_limit_d_axis(beta), domain_doubling_limit_d_axis(gamma)
            assert both.limit_det == pytest.approx(axis[0] * axis[1], rel=1e-14), (beta, gamma)
            assert one.limit_det == pytest.approx(axis[0], rel=1e-14), (beta, gamma)


def test_domain_limits_are_symmetric_in_the_rates_bit_for_bit():
    for i in LIMIT_EXPONENTS:
        for j in LIMIT_EXPONENTS:
            a = doubling_ratio_2d(SheetParams(10.0**i, 10.0**j), 2, 2, "domain-both")
            b = doubling_ratio_2d(SheetParams(10.0**j, 10.0**i), 2, 2, "domain-both")
            assert (a.limit_det, a.limit_cond) == (b.limit_det, b.limit_cond), (i, j)


def test_cond_limit_surface_is_not_converged_on_a_wrong_number():
    # the (200, 400) extrapolant is 1.39e-3 off at (1e3, 1e3); the distance
    # between the last two extrapolants read 7.9e-4 and passed SURFACE_TOL
    (cell,) = cond_limit_surface_2d([1e3], [1e3], mode="both")
    assert cell.error_estimate == pytest.approx(1.387e-3, rel=1e-3)
    assert not cell.converged
    (cell,) = cond_limit_surface_2d([1e4], [1e-2], mode="both")
    assert cell.error_estimate == pytest.approx(1.734e-4, rel=1e-3)


@pytest.mark.parametrize("mode", ["both", "one"])
def test_cond_limit_surface_converges_on_the_cli_default_box(mode):
    grid = np.geomspace(0.05, 50.0, 40)
    cells = cond_limit_surface_2d(grid, grid, mode=mode)
    assert all(c.converged for c in cells)
    assert max(c.error_estimate for c in cells) < 2e-4


def beyond_the_paper_rows():
    """The rows of README's table of exact 2D condition-number limits."""
    text = README.read_text(encoding="utf-8").split("## Beyond the paper", 1)[1]
    rows = re.findall(r"^\| \(([^,]+), ([^)]+)\) \| ([\d.]+) \| ([\d.]+) \| ([\d.e-]+) \|$", text, re.M)
    return [tuple(float(x) for x in row) for row in rows]


def test_readme_exact_limits_beside_the_surface():
    rows = beyond_the_paper_rows()
    assert [row[:2] for row in rows] == [(10.0, 10.0), (50.0, 50.0), (1e3, 1e3)]
    for beta, gamma, exact, estimate, distance in rows:
        limit = doubling_ratio_2d(SheetParams(beta, gamma), 2, 2, "domain-both").limit_cond
        (cell,) = cond_limit_surface_2d([beta], [gamma], mode="both")
        assert round(limit, 7) == exact
        assert round(cell.estimate, 7) == estimate
        assert float(f"{cell.error_estimate:.1e}") == distance
