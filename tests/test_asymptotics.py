import math

import numpy as np
import pytest

from oudesign import (
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
from oudesign.asymptotics import SURFACE_N_SEQUENCE, SURFACE_TOL


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
    assert both.limit_cond is None
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
    # per-cell doubling ratios
    grid = (1e-3, 0.3, 2.0, 40.0)
    cells = cond_limit_surface_2d(grid, grid[::-1], mode=mode)
    for c in cells:
        params = SheetParams(c.beta, c.gamma)
        ratios = [
            doubling_ratio_2d(params, k, k, "domain-" + mode).ratio_cond
            for k in SURFACE_N_SEQUENCE
        ]
        ex = [2.0 * r2 - r1 for r1, r2 in zip(ratios, ratios[1:])]
        assert c.estimate == pytest.approx(ex[-1], rel=1e-12)
        assert c.error_estimate == pytest.approx(abs(ex[-1] - ex[-2]), abs=1e-12 * ex[-1])


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
    # not silently accepted (its error estimate is about 2.3e-3)
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
