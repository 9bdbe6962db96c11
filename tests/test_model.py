import math

import numpy as np
import pytest

from oudesign import (
    Design1D,
    GridDesign2D,
    NearSingularDesignError,
    NumericalError,
    OuParams,
    SheetParams,
    TrendParams,
    ValidationError,
    McConfig,
    collapse_equation,
    cond_limit_surface_2d,
    correlation_matrix_1d,
    det_decomposition_factor,
    domain_doubling_limit_d,
    doubling_ratio_1d,
    doubling_ratio_2d,
    equidistant_d_monotone_check,
    equidistant_k_optimal_1d,
    evaluate_design_1d,
    evaluate_design_2d,
    fim_1d,
    fim_2d,
    fim_entries_1d,
    fim_entries_2d,
    fim_entries_equidistant_1d,
    gls_estimate,
    inv_correlation_matrix_1d,
    inv_correlation_matrix_2d,
    sample_observations,
)
from oudesign._reference import correlation_direct_1d, correlation_direct_2d
from helpers import random_design


def test_params_validation():
    with pytest.raises(ValidationError):
        OuParams(0.0)
    with pytest.raises(ValidationError):
        OuParams(1.0, sigma=-1.0)
    with pytest.raises(ValidationError):
        SheetParams(1.0, 0.0)
    assert OuParams(2.0, 3.0).stationary_variance == pytest.approx(9.0 / 4.0)
    assert SheetParams(2.0, 5.0, 2.0).stationary_variance == pytest.approx(0.1)


def test_stationary_variance_is_inf_past_the_double_range():
    # float ** 2 raises OverflowError there; finite values keep sigma**2's
    # rounding, which differs from sigma * sigma for about one sigma in 1000
    assert OuParams(10.0, 1e200).stationary_variance == math.inf
    assert SheetParams(10.0, 10.0, 1e200).stationary_variance == math.inf
    rng = np.random.default_rng(7)
    for sigma in 10.0 ** rng.uniform(-100, 150, 2000):
        sigma = float(sigma)
        assert OuParams(3.0, sigma).stationary_variance == sigma**2 / (2.0 * 3.0)
        assert SheetParams(3.0, 0.7, sigma).stationary_variance == sigma**2 / (4.0 * 3.0 * 0.7)


@pytest.mark.parametrize(
    "params,design",
    [(OuParams(10.0, 1e200), Design1D((0.0, 1.0))),
     (SheetParams(10.0, 10.0, 1e200), GridDesign2D((0.0, 1.0), (0.0, 1.0)))],
)
def test_sampler_rejects_noise_past_the_double_range(params, design):
    trend = TrendParams(*[0.0] * (1 + len(design.axes)))
    with pytest.raises(NumericalError, match="noise standard deviation overflows"):
        sample_observations(params, design, trend, 3, seed=0)


def test_design_validation_and_sorting():
    with pytest.raises(ValidationError):
        Design1D((0.0,))
    with pytest.raises(ValidationError):
        Design1D((0.0, 0.0))
    with pytest.raises(ValidationError):
        Design1D((0.0, np.inf))
    d = Design1D((1.0, 0.0, 0.5))  # unsorted input is canonicalized
    assert d.points == (0.0, 0.5, 1.0)
    assert d.gaps == (0.5, 0.5)
    assert Design1D.equidistant(0.25, 5).points == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_grid_design():
    g = GridDesign2D((0.0, 1.0), (0.0, 0.5, 1.0))
    assert (g.n, g.m, g.size) == (2, 3, 6)
    s, t = g.flat_coordinates()
    # s-major layout
    assert s.tolist() == [0, 0, 0, 1, 1, 1]
    assert t.tolist() == [0, 0.5, 1, 0, 0.5, 1]


def test_correlation_half_at_unit_gap():
    c = correlation_matrix_1d(OuParams(np.log(2)), Design1D((0.0, 1.0)))
    assert np.allclose(c, [[1.0, 0.5], [0.5, 1.0]])


def test_correlation_product_structure():
    # C[0,2] = C[0,1]*C[1,2] for any rate on a three-point design
    c = correlation_matrix_1d(OuParams(1.7), Design1D((0.0, 0.4, 1.1)))
    assert c[0, 2] == pytest.approx(c[0, 1] * c[1, 2], rel=1e-14)


def test_correlation_matches_direct_pairwise():
    params = OuParams(1.0)
    design = Design1D((0.0, 0.3, 1.0))
    assert np.allclose(
        correlation_matrix_1d(params, design),
        correlation_direct_1d(params, design),
        rtol=1e-14,
    )


def test_correlation_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        design = random_design(rng, rng.integers(2, 30))
        params = OuParams(rng.uniform(0.1, 5.0))
        c = correlation_matrix_1d(params, design)
        assert np.allclose(c, c.T)
        assert np.allclose(np.diag(c), 1.0)
        assert np.all(c > 0.0) and np.all(c <= 1.0)


def test_inverse_two_point_closed_form():
    inv = inv_correlation_matrix_1d(OuParams(np.log(2)), Design1D((0.0, 1.0)))
    assert np.allclose(inv, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]])


def test_inverse_against_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        design = random_design(rng, rng.integers(2, 50))
        params = OuParams(rng.uniform(0.2, 3.0))
        c = correlation_matrix_1d(params, design)
        inv = inv_correlation_matrix_1d(params, design)
        assert np.max(np.abs(c @ inv - np.eye(design.n))) < 1e-10


def test_inverse_middle_entry_formula():
    # interior diagonal entry is 1/(1-p2^2) + p1^2/(1-p1^2)
    params = OuParams(2.0)
    design = Design1D((0.0, 0.5, 1.5))
    p1, p2 = np.exp(-2.0 * 0.5), np.exp(-2.0 * 1.0)
    expected = 1.0 / (1.0 - p2**2) + p1**2 / (1.0 - p1**2)
    inv = inv_correlation_matrix_1d(params, design)
    assert inv[1, 1] == pytest.approx(expected, rel=1e-12)
    dense = np.linalg.inv(correlation_direct_1d(params, design))
    assert inv[1, 1] == pytest.approx(dense[1, 1], rel=1e-10)


def test_inverse_exactly_tridiagonal():
    rng = np.random.default_rng(2)
    design = random_design(rng, 12)
    inv = inv_correlation_matrix_1d(OuParams(0.7), design)
    beyond = np.triu(inv, 2)
    assert np.all(beyond == 0.0)


def test_inverse_near_singularity_guard():
    params = OuParams(1.0)
    design = Design1D((0.0, 1e-13, 1.0))
    with pytest.raises(NearSingularDesignError):
        inv_correlation_matrix_1d(params, design)


def _kron_correlation(params, g):
    # the sheet correlation as the Kronecker product of the axis ones
    return np.kron(
        correlation_matrix_1d(OuParams(params.beta), g.s),
        correlation_matrix_1d(OuParams(params.gamma), g.t),
    )


def test_cov2d_separability_trivial():
    g = GridDesign2D((0.0, 1.0), (0.0, 1.0))
    params = SheetParams(np.log(2), np.log(2))
    c = _kron_correlation(params, g)
    assert np.allclose(c, correlation_direct_2d(params, g), rtol=1e-14, atol=0)
    # entry for ((0,0),(1,1)) = 0.5*0.5
    assert c[0, 3] == pytest.approx(0.25, rel=1e-14)


def test_cov2d_matches_direct_kernel():
    rng = np.random.default_rng(3)
    g = GridDesign2D(random_design(rng, 3), random_design(rng, 3))
    params = SheetParams(0.8, 1.4)
    assert np.allclose(
        _kron_correlation(params, g),
        correlation_direct_2d(params, g),
        rtol=0,
        atol=1e-12,
    )


def test_cov2d_inverse_is_kron_of_axis_inverses():
    rng = np.random.default_rng(4)
    g = GridDesign2D(random_design(rng, 3), random_design(rng, 2))
    params = SheetParams(0.5, 2.0)
    c = correlation_direct_2d(params, g)
    inv = inv_correlation_matrix_2d(params, g)
    assert np.max(np.abs(c @ inv - np.eye(g.size))) < 1e-10


def test_cov2d_size_cap():
    g = GridDesign2D(
        Design1D.equidistant(0.1, 101), Design1D.equidistant(0.1, 101)
    )
    with pytest.raises(ValidationError):
        inv_correlation_matrix_2d(SheetParams(1.0, 1.0), g)


def test_sampler_degenerate_noise_hits_trend():
    params = OuParams(1.0, sigma=1e-12)
    design = Design1D((0.0, 0.5, 1.0))
    trend = TrendParams(2.0, -1.0)
    y = sample_observations(params, design, trend, 4, seed=0)
    assert np.max(np.abs(y - trend.mean(design)[None, :])) < 1e-9


def test_sampler_seed_determinism():
    params = SheetParams(1.0, 2.0, 0.5)
    design = GridDesign2D((0.0, 0.4, 1.0), (0.0, 1.0))
    trend = TrendParams(1.0, 1.0, 1.0)
    a = sample_observations(params, design, trend, 7, seed=123)
    b = sample_observations(params, design, trend, 7, seed=123)
    assert np.array_equal(a, b)
    c = sample_observations(params, design, trend, 7, seed=124)
    assert not np.array_equal(a, c)


def test_sampler_empirical_covariance():
    params = OuParams(1.0, sigma=1.0)
    design = Design1D((0.0, 1.0))
    trend = TrendParams(0.0, 0.0)
    n_samples = 100_000
    y = sample_observations(params, design, trend, n_samples, seed=5)
    emp = np.cov(y.T)
    target = params.stationary_variance * correlation_matrix_1d(params, design)
    # moment standard error of a covariance entry is ~ var*sqrt(2/n)
    se = params.stationary_variance * np.sqrt(2.0 / n_samples)
    assert np.max(np.abs(emp - target)) < 3.0 * se


def test_sampler_mean_2d():
    params = SheetParams(2.0, 3.0, sigma=1e-12)
    design = GridDesign2D((0.0, 1.0), (0.0, 2.0))
    trend = TrendParams(1.0, 2.0, -1.0)
    y = sample_observations(params, design, trend, 1, seed=0)
    assert np.allclose(y[0], trend.mean(design), atol=1e-9)


def test_sampler_validation():
    with pytest.raises(ValidationError):
        sample_observations(
            OuParams(1.0), Design1D((0.0, 1.0)), TrendParams(0.0, 0.0), 0, seed=0
        )
    with pytest.raises(ValidationError):
        sample_observations(
            OuParams(1.0),
            GridDesign2D((0.0, 1.0), (0.0, 1.0)),
            TrendParams(0.0, 0.0, 0.0),
            1,
            seed=0,
        )


# Every count argument, as a call of one value, with the least it accepts.
COUNT_CALLS = {
    "Design1D.equidistant n": (lambda v: Design1D.equidistant(0.5, v), 2),
    "sample_observations count": (lambda v: sample_observations(
        OuParams(1.0), Design1D((0.0, 1.0)), TrendParams(0.0, 0.0), v, seed=0), 1),
    "McConfig replicates": (lambda v: McConfig(replicates=v), 1),
    "McConfig seed": (lambda v: McConfig(seed=v), 0),
    "fim_entries_equidistant_1d n": (
        lambda v: fim_entries_equidistant_1d(OuParams(1.0), 0.5, v), 2),
    "equidistant_k_optimal_1d n": (lambda v: equidistant_k_optimal_1d(OuParams(1.0), v), 2),
    "equidistant_d_monotone_check n": (
        lambda v: equidistant_d_monotone_check(OuParams(1.0), v, [0.1, 0.2]), 2),
    "doubling_ratio_1d n": (lambda v: doubling_ratio_1d(OuParams(1.0), v, "infill"), 2),
    "doubling_ratio_2d n": (
        lambda v: doubling_ratio_2d(SheetParams(1.0, 2.0), v, 3, "infill-both"), 2),
    "doubling_ratio_2d m": (
        lambda v: doubling_ratio_2d(SheetParams(1.0, 2.0), 3, v, "infill-both"), 2),
    "det_decomposition_factor n": (lambda v: det_decomposition_factor("J", v, 1.0), 2),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, "below"])
@pytest.mark.parametrize("site", COUNT_CALLS)
def test_counts_must_be_whole_numbers_at_least_their_minimum(site, bad):
    call, minimum = COUNT_CALLS[site]
    call(minimum)
    with pytest.raises(ValidationError, match="must be an integer >= "):
        call(minimum - 1 if bad == "below" else bad)


# Every positive real checked outside the parameter types, as a call of
# one value, with the name its message gives.
POSITIVE_CALLS = {
    "domain_doubling_limit_d rate": (lambda v: domain_doubling_limit_d(v), "rate"),
    "cond_limit_surface_2d rate": (lambda v: cond_limit_surface_2d([1.0], [v]), "rate"),
    "det_decomposition_factor x": (lambda v: det_decomposition_factor("J", 3, v), "x"),
    "McConfig sigma": (lambda v: McConfig(sigma=v), "sigma"),
    "collapse_equation rate": (lambda v: collapse_equation(v), "rate"),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("site", POSITIVE_CALLS)
def test_positive_reals_share_one_check(site, bad):
    call, name = POSITIVE_CALLS[site]
    call(1.0)
    with pytest.raises(ValidationError, match=f"^{name} must be a positive finite real"):
        call(bad)


# Every site that applies the coincidence floor, as a call of one rate; at
# rate 1e-13 each has a scaled gap or step below 1e-12.
COINCIDENCE_CALLS = {
    "fim_entries_1d": lambda v: fim_entries_1d(OuParams(v), Design1D((0.0, 0.5, 1.0))),
    "fim_entries_equidistant_1d": lambda v: fim_entries_equidistant_1d(OuParams(v), 0.5, 3),
    "sample_observations": lambda v: sample_observations(
        OuParams(v), Design1D((0.0, 0.5, 1.0)), TrendParams(0.0, 0.0), 1, seed=0),
    "gls_estimate": lambda v: gls_estimate(np.zeros(3), Design1D((0.0, 0.5, 1.0)), OuParams(v)),
    "doubling_ratio_1d": lambda v: doubling_ratio_1d(OuParams(v), 2, "infill"),
    "doubling_ratio_2d": lambda v: doubling_ratio_2d(SheetParams(1.0, v), 2, 2, "infill-both"),
    "cond_limit_surface_2d": lambda v: cond_limit_surface_2d([1.0], [v]),
    "equidistant_d_monotone_check": lambda v: equidistant_d_monotone_check(
        OuParams(v), 3, [0.1, 0.2]),
}


@pytest.mark.parametrize("site", COINCIDENCE_CALLS)
def test_coincident_points_and_steps_share_one_check(site):
    call = COINCIDENCE_CALLS[site]
    call(1.0)
    message = (r"^scaled gap beta\*d below 1e-12; design points are numerically coincident "
               "at this length-scale$")
    with pytest.raises(NearSingularDesignError, match=message):
        call(1e-13)


def test_sampler_rejects_near_coincident_points():
    # the floor that GLS and the information entries apply; at rate 1e-300
    # beta*d underflows to zero at the first gap
    for beta, design in ((1.0, (0.0, 1e-14, 1.0)), (1e-300, (0.0, 1e-30, 1.0))):
        with pytest.raises(NearSingularDesignError):
            sample_observations(OuParams(beta), Design1D(design), TrendParams(0.0, 0.0), 2, 0)


def test_trend_arity_must_match_design():
    line = Design1D((0.0, 0.5, 1.0))
    grid = GridDesign2D((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValidationError):
        TrendParams(1.0, 1.0, 5.0).mean(line)
    with pytest.raises(ValidationError):
        TrendParams(1.0, 1.0).mean(grid)
    with pytest.raises(ValidationError):
        sample_observations(OuParams(1.0), line, TrendParams(1.0, 1.0, 5.0), 2, 0)
    with pytest.raises(ValidationError):
        sample_observations(SheetParams(1.0, 1.0), grid, TrendParams(1.0, 1.0), 2, 0)


@pytest.mark.parametrize("call,message", [
    (lambda: Design1D((0.0, "half")), "design points must be reals"),
    (lambda: Design1D((0.0, 1j)), "design points must be reals"),
    (lambda: TrendParams(math.nan, 1.0), "alpha0 must be finite"),
    (lambda: TrendParams(1.0, 1.0, -math.inf), "alpha2 must be finite"),
    (lambda: sample_observations(OuParams(1.0), (0.0, 1.0), TrendParams(0.0, 0.0), 1, seed=0),
     "unsupported design type tuple"),
], ids=["design-str", "design-complex", "trend-nan", "trend-inf", "sampler-tuple-design"])
def test_malformed_inputs_raise_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_trend_mean_evaluation_order():
    grid = GridDesign2D((0.0, 0.3, 1.0), (0.1, 0.7))
    trend = TrendParams(0.1, 0.7, -1.3)
    s, t = grid.flat_coordinates()
    assert np.array_equal(trend.mean(grid), 0.1 + 0.7 * s + -1.3 * t)
    line = Design1D((0.2, 0.9))
    assert np.array_equal(TrendParams(0.1, 0.7).mean(line), 0.1 + 0.7 * line.as_array())


def _dense_sample(params, design, mean, corr, count, seed):
    # the sampler's draws through a dense Cholesky factor of the covariance
    z = np.random.Generator(np.random.Philox(seed)).standard_normal((count, mean.size))
    factor = np.sqrt(params.stationary_variance) * np.linalg.cholesky(corr)
    return mean[None, :] + z @ factor.T


def test_sampler_matches_dense_cholesky_1d():
    rng = np.random.default_rng(60)
    design = random_design(rng, 200)
    params = OuParams(1.3, sigma=0.7)
    trend = TrendParams(0.5, -2.0)
    y = sample_observations(params, design, trend, 16, seed=21)
    dense = _dense_sample(
        params, design, trend.mean(design), correlation_direct_1d(params, design), 16, 21
    )
    assert np.max(np.abs(y - dense)) < 1e-12 * np.sqrt(params.stationary_variance)


def test_sampler_matches_dense_cholesky_2d():
    rng = np.random.default_rng(61)
    design = GridDesign2D(random_design(rng, 12), random_design(rng, 9))
    params = SheetParams(0.9, 1.6, sigma=0.4)
    trend = TrendParams(1.0, 0.5, -1.5)
    y = sample_observations(params, design, trend, 16, seed=22)
    dense = _dense_sample(
        params, design, trend.mean(design), correlation_direct_2d(params, design), 16, 22
    )
    assert np.max(np.abs(y - dense)) < 1e-12 * np.sqrt(params.stationary_variance)


PROCESS_ENTRY_POINTS = (fim_entries_1d, fim_1d, evaluate_design_1d, correlation_matrix_1d,
                        inv_correlation_matrix_1d)
SHEET_ENTRY_POINTS = (fim_entries_2d, fim_2d, evaluate_design_2d, inv_correlation_matrix_2d)
# The grid is above the dense builder's cap, which is checked after the pairing.
MISMATCHED = {
    "process-params-grid": lambda own: (OuParams(1.0), GridDesign2D.equidistant(0.1, 0.1, 101, 101)),
    "sheet-params-line": lambda own: (SheetParams(1.0, 2.0), Design1D((0.0, 0.5, 1.0))),
    "tuple-design": lambda own: (own, (0.0, 0.5, 1.0)),
}


@pytest.mark.parametrize("case", MISMATCHED)
@pytest.mark.parametrize(
    "entry_point, own_params",
    [(f, OuParams(1.0)) for f in PROCESS_ENTRY_POINTS]
    + [(f, SheetParams(1.0, 2.0)) for f in SHEET_ENTRY_POINTS],
    ids=lambda v: getattr(v, "__name__", type(v).__name__),
)
def test_mismatched_params_and_design_raise_validation_error(entry_point, own_params, case):
    # every entry point pairs rates with axes through model._axes, whose
    # messages name the mismatch; none answers for the beta process
    params, design = MISMATCHED[case](own_params)
    with pytest.raises(ValidationError, match="designs require|unsupported design type"):
        entry_point(params, design)
