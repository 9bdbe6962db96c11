import json
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from oudesign import (
    CollapsedDesignError,
    Design1D,
    GridDesign2D,
    McConfig,
    NumericalError,
    OuParams,
    SheetParams,
    TrendParams,
    ValidationError,
    collapse_interval,
    efficiency_curve,
    fim_1d,
    fim_2d,
    gls_estimate,
    run_efficiency_1d,
    run_efficiency_2d,
    sample_observations,
)
from oudesign._reference import gls_dense
from oudesign.cli import main
from oudesign.mc import _design_stream, _gls_map, _simulated_mse
from helpers import TABLE1_CELLS, random_design


def test_gls_noiseless_recovers_trend():
    design = Design1D((0.0, 0.3, 0.7, 1.0))
    trend = TrendParams(2.0, -3.0)
    y = trend.mean(design)
    est = gls_estimate(y, design, OuParams(1.2))
    assert np.allclose(est, [2.0, -3.0], atol=1e-10)


def test_gls_noiseless_recovers_trend_2d():
    design = GridDesign2D((0.0, 0.5, 1.0), (0.0, 1.0))
    trend = TrendParams(1.0, 2.0, -0.5)
    y = trend.mean(design)
    est = gls_estimate(y, design, SheetParams(1.0, 2.0))
    assert np.allclose(est, [1.0, 2.0, -0.5], atol=1e-10)


@pytest.mark.parametrize("n", [5, 300])
def test_gls_matches_dense_solve(n):
    rng = np.random.default_rng(50)
    design = random_design(rng, n)
    params = OuParams(0.8)
    y = rng.standard_normal((7, design.n))
    assert np.allclose(
        gls_estimate(y, design, params), gls_dense(y, design, params), rtol=1e-9
    )


@pytest.mark.parametrize("n, m", [(3, 3), (15, 12)])
def test_gls_matches_dense_solve_2d(n, m):
    rng = np.random.default_rng(51)
    design = GridDesign2D(random_design(rng, n), random_design(rng, m))
    params = SheetParams(1.1, 0.6)
    y = rng.standard_normal((4, design.size))
    assert np.allclose(
        gls_estimate(y, design, params), gls_dense(y, design, params), rtol=1e-9
    )


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8, 1e-10])
def test_gls_keeps_its_digits_at_near_coincident_points(gap):
    # against a 50-digit dense GLS; the scaled gaps go down to 1e-10
    mpmath = pytest.importorskip("mpmath")
    design = Design1D((0.0, gap, 0.5, 0.5 + gap, 1.0))
    y = np.random.default_rng(53).standard_normal((4, design.n))
    with mpmath.workdps(50):
        s = [mpmath.mpf(x) for x in design.points]
        corr = mpmath.matrix([[mpmath.exp(-abs(a - b)) for b in s] for a in s])
        basis = mpmath.matrix([[1] * len(s), s])
        weighted = basis * mpmath.inverse(corr)
        gls = mpmath.inverse(weighted * basis.T) * weighted
        exact = [[float(v) for v in gls * mpmath.matrix(row.tolist())] for row in y]
    np.testing.assert_allclose(gls_estimate(y, design, OuParams(1.0)), exact, rtol=1e-13, atol=0)


def test_gls_scale_invariance_in_noise_level():
    # the estimator only needs the correlation; sigma plays no role
    rng = np.random.default_rng(52)
    design = random_design(rng, 4)
    y = rng.standard_normal(design.n)
    a = gls_estimate(y, design, OuParams(1.0, sigma=1.0))
    b = gls_estimate(y, design, OuParams(1.0, sigma=17.0))
    assert np.array_equal(a, b)


def test_gls_unbiased_and_covariance_matches_fim():
    params = OuParams(1.5, sigma=0.5)
    design = Design1D((0.0, 0.4, 1.0))
    trend = TrendParams(1.0, 1.0)
    reps = 10_000
    y = sample_observations(params, design, trend, reps, seed=11)
    est = gls_estimate(y, design, params)
    err = est - trend.coefficients()[None, :]
    # unbiasedness within 3 MC standard errors
    se_mean = err.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(err.mean(axis=0)) < 3.0 * se_mean)
    # per-parameter MSE matches stationary_variance * FIM^{-1} diagonal
    theory = params.stationary_variance * np.diag(np.linalg.inv(fim_1d(params, design)))
    mse = (err**2).mean(axis=0)
    se_mse = (err**2).std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mse - theory) < 3.0 * se_mse)


def test_gls_estimator_covariance_matches_theory():
    # full estimator covariance over 1e5 replicates against
    # stationary-variance * inverse FIM, elementwise within 3 moment SEs
    params = OuParams(1.0, sigma=1.0)
    design = Design1D((0.0, 1.0))
    trend = TrendParams(0.5, -0.5)
    reps = 100_000
    y = sample_observations(params, design, trend, reps, seed=13)
    err = gls_estimate(y, design, params) - trend.coefficients()[None, :]
    emp = (err.T @ err) / reps
    theory = params.stationary_variance * np.linalg.inv(fim_1d(params, design))
    se = np.sqrt(
        (np.outer(np.diag(theory), np.diag(theory)) + theory**2) / reps
    )
    assert np.all(np.abs(emp - theory) < 3.0 * se)


def test_gls_unbiased_2d():
    params = SheetParams(2.0, 1.0, sigma=0.5)
    design = GridDesign2D((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
    trend = TrendParams(1.0, 1.0, 1.0)
    reps = 10_000
    y = sample_observations(params, design, trend, reps, seed=12)
    est = gls_estimate(y, design, params)
    err = est - trend.coefficients()[None, :]
    se_mean = err.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(err.mean(axis=0)) < 3.0 * se_mean)
    theory = params.stationary_variance * np.diag(np.linalg.inv(fim_2d(params, design)))
    mse = (err**2).mean(axis=0)
    se_mse = (err**2).std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mse - theory) < 3.0 * se_mse)


def test_gls_shape_validation():
    with pytest.raises(ValidationError):
        gls_estimate(np.zeros(3), Design1D((0.0, 1.0)), OuParams(1.0))
    with pytest.raises(ValidationError):
        gls_estimate(np.zeros(2), Design1D((0.0, 1.0)), SheetParams(1.0, 1.0))


def test_eff_design_against_itself_is_exactly_100():
    d = Design1D((0.0, 0.5, 1.0))
    config = McConfig(replicates=500, seed=3, design_pair=(d, d))
    rep = run_efficiency_1d(OuParams(0.3), config)
    assert rep.eff_percent == 100.0
    assert rep.mse_k == rep.mse_d


@pytest.mark.parametrize(
    "run,params,design",
    [(run_efficiency_1d, OuParams(0.3), Design1D((0.0, 0.5, 1.0))),
     (run_efficiency_2d, SheetParams(0.3, 0.3), GridDesign2D((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))],
)
def test_eff_design_against_itself_is_exactly_100_for_every_seed(run, params, design):
    # 100 * x / x rounds away from 100 for about one x in eight
    for seed in range(40):
        rep = run(params, McConfig(replicates=500, seed=seed, design_pair=(design, design)))
        assert rep.eff_percent == 100.0, seed


def test_efficiency_1d_small_rate_near_parity():
    rep = run_efficiency_1d(OuParams(0.3), McConfig(replicates=10_000, seed=3))
    assert 95.0 <= rep.eff_percent <= 105.0


def test_efficiency_1d_large_rate_k_superior():
    rep = run_efficiency_1d(OuParams(50.0), McConfig(replicates=10_000, seed=3))
    assert rep.eff_percent < 100.0


def test_efficiency_1d_collapse_error():
    with pytest.raises(CollapsedDesignError):
        run_efficiency_1d(OuParams(2.0), McConfig(replicates=10))


@pytest.mark.parametrize("run,params", [
    (run_efficiency_1d, lambda sigma: OuParams(20.0, sigma=sigma)),
    (run_efficiency_2d, lambda sigma: SheetParams(10.0, 10.0, sigma=sigma)),
], ids=["1d", "2d"])
def test_efficiency_simulates_at_the_config_sigma_not_the_params(run, params):
    # McConfig.sigma replaces the params' sigma: the report is the same
    # bit for bit whatever the params say, and moves with the config
    config = McConfig(replicates=500, seed=3)
    report = run(params(1.0), config)
    assert run(params(2.0), config) == report
    assert run(params(1.0), replace(config, sigma=0.5)).mse_k != report.mse_k


def test_efficiency_determinism():
    config = McConfig(replicates=2000, seed=9)
    a = run_efficiency_1d(OuParams(20.0), config)
    b = run_efficiency_1d(OuParams(20.0), config)
    assert a == b


def test_efficiency_mc_se_scales_with_replicates():
    a = run_efficiency_1d(OuParams(10.0), McConfig(replicates=4000, seed=5))
    b = run_efficiency_1d(OuParams(10.0), McConfig(replicates=8000, seed=5))
    ratio = b.mc_standard_error / a.mc_standard_error
    assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.2)


def test_efficiency_2d_collapse_error():
    with pytest.raises(CollapsedDesignError):
        run_efficiency_2d(SheetParams(2.0, 2.0), McConfig(replicates=10))


def test_efficiency_2d_immaterial_collapse_uses_merged_design():
    # at small asymmetric rates the boundary optimum wins by ~1e-10
    # relative (undetectable in practice); the comparison must still run,
    # on the merged grid, and land near parity
    from oudesign import nine_point_restricted_2d
    from oudesign.mc import MATERIAL_COLLAPSE_RTOL

    params = SheetParams(0.01, 0.03)
    res = nine_point_restricted_2d(params, "K")
    assert res.collapsed
    assert res.boundary_margin < MATERIAL_COLLAPSE_RTOL
    rep = run_efficiency_2d(params, McConfig(replicates=5000, seed=2))
    assert 95.0 <= rep.eff_percent <= 105.0
    # material collapse carries a margin well above the threshold
    material = nine_point_restricted_2d(SheetParams(2.0, 2.0), "K")
    assert material.boundary_margin > MATERIAL_COLLAPSE_RTOL


def test_efficiency_2d_runs_on_every_table1_cell():
    # each Table 1 cell is interior or collapses immaterially; a material
    # collapse still raises
    config = McConfig(replicates=2)
    for cell in TABLE1_CELLS:
        run_efficiency_2d(SheetParams(*cell), config)
    with pytest.raises(CollapsedDesignError):
        run_efficiency_2d(SheetParams(2.0, 2.0), config)


def test_efficiency_2d_matches_theory_within_mc_error():
    # expected efficiency equals the trace ratio of the inverse FIMs
    from oudesign import nine_point_restricted_2d

    params = SheetParams(10.0, 10.0)
    rep = run_efficiency_2d(params, McConfig(replicates=20_000, seed=4))
    d, dl = nine_point_restricted_2d(params, "K").argopt
    fim_k = fim_2d(params, GridDesign2D((0.0, d, 1.0), (0.0, dl, 1.0)))
    fim_d = fim_2d(params, GridDesign2D((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))
    theory = 100.0 * np.trace(np.linalg.inv(fim_k)) / np.trace(np.linalg.inv(fim_d))
    assert rep.eff_percent == pytest.approx(theory, abs=3.5 * rep.mc_standard_error)


@pytest.mark.parametrize(
    "params,design,coefficients",
    [
        (OuParams(30.0), Design1D((0.0, 0.3, 1.0)), (100.0, -3.0)),
        (SheetParams(10.0, 10.0), GridDesign2D((0.0, 0.4, 1.0), (0.0, 0.6, 1.0)),
         (100.0, -3.0, 7.0)),
    ],
)
def test_gls_error_does_not_depend_on_trend(params, design, coefficients):
    # GLS is linear and reproduces any trend exactly, so the estimation
    # error of the same noise is the same under every trend; efficiency
    # runs therefore simulate all-ones coefficients only
    ones = TrendParams(*[1.0] * len(coefficients))
    other = TrendParams(*coefficients)
    noise = sample_observations(params, design, ones, 200, seed=3) - ones.mean(design)
    err_ones = gls_estimate(noise + ones.mean(design), design, params) - ones.coefficients()
    err_other = gls_estimate(noise + other.mean(design), design, params) - other.coefficients()
    scale = max(map(abs, coefficients))
    np.testing.assert_allclose(err_other, err_ones, rtol=0, atol=1e-12 * scale)


def test_efficiency_curve_marks_collapse_region():
    rows = efficiency_curve([0.3, 2.0, 20.0], McConfig(replicates=2000, seed=6))
    assert [r.collapsed for r in rows] == [False, True, False]
    assert np.isnan(rows[1].eff_percent)
    assert rows[0].eff_percent > 0 and rows[2].eff_percent > 0


def test_efficiency_curve_determinism():
    config = McConfig(replicates=1000, seed=8)
    a = efficiency_curve([0.2, 30.0], config)
    b = efficiency_curve([0.2, 30.0], config)
    assert a == b


def test_mcconfig_validation():
    with pytest.raises(ValidationError):
        McConfig(replicates=0)
    with pytest.raises(ValidationError):
        McConfig(sigma=-0.1)
    line, grid = Design1D((0.0, 0.5, 1.0)), GridDesign2D((0.0, 1.0), (0.0, 1.0))
    for pair in [(line,), ("x", "y"), (line, grid), (line, line, line), line]:
        with pytest.raises(ValidationError, match="design_pair"):
            McConfig(design_pair=pair)
    assert McConfig(design_pair=(grid, grid)).design_pair == (grid, grid)


def test_sampler_and_gls_memory_is_linear_in_grid_size():
    # a dense 6400x6400 covariance alone would take 328 MB
    import tracemalloc

    params = SheetParams(2.0, 3.0, sigma=0.5)
    design = GridDesign2D.equidistant(1.0 / 79, 1.0 / 79, 80, 80)
    tracemalloc.start()
    try:
        y = sample_observations(params, design, TrendParams(1.0, 1.0, 1.0), 8, seed=1)
        gls_estimate(y, design, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_efficiency_2d_runs_above_dense_grid_cap():
    from oudesign.model import MAX_GRID_POINTS

    params = SheetParams(5.0, 5.0)
    design = GridDesign2D.equidistant(1.0 / 119, 1.0 / 119, 120, 120)
    assert design.size > MAX_GRID_POINTS
    rep = run_efficiency_2d(params, McConfig(replicates=4, seed=1, design_pair=(design, design)))
    assert rep.eff_percent == 100.0 and np.isfinite(rep.mse_k)
    trend = TrendParams(1.0, -2.0, 0.5)
    est = gls_estimate(trend.mean(design), design, params)
    assert np.allclose(est, [1.0, -2.0, 0.5], atol=1e-10)


def test_efficiency_reproduces_recorded_mse():
    # same-seed outputs recorded with the sampler and GLS of version 0.1.0;
    # any change in the draws, the recursion or the solve shows here.  Both
    # halves pin the K design searched when these were recorded, so the
    # search's last bits (which key the stream) stay out
    cfg = McConfig(replicates=2000, seed=3)
    mid = Design1D((0.0, 0.5, 1.0))
    pair = Design1D((0.0, 0.038222221016883835, 1.0)), mid
    rep = run_efficiency_1d(OuParams(30.0), replace(cfg, design_pair=pair))
    assert rep.mse_k == pytest.approx(0.001218223190750217, rel=1e-13)
    assert rep.mse_d == pytest.approx(0.0014831472367997924, rel=1e-13)
    k_axis = Design1D((0.0, 0.0783571457862854, 1.0)), Design1D((0.0, 0.07835715293884277, 1.0))
    pair = GridDesign2D(*k_axis), GridDesign2D(mid, mid)
    rep = run_efficiency_2d(SheetParams(10.0, 10.0), replace(cfg, design_pair=pair))
    assert rep.mse_k == pytest.approx(0.00010856766676256632, rel=1e-13)
    assert rep.mse_d == pytest.approx(9.28309051937752e-05, rel=1e-13)


def test_simulated_mse_matches_40_digit_gls_of_the_same_draws():
    # the long way round at 40 digits: the stream's normals colored by the
    # AR(1) recursion, then GLS through the tridiagonal inverse correlation
    mpmath = pytest.importorskip("mpmath")
    n, reps, rate = 300, 64, 3.0
    design = Design1D(tuple(0.5 - 0.5 * np.cos(np.pi * np.arange(n) / (n - 1))))
    config = McConfig(replicates=reps, seed=5, design_pair=(design, design))
    mse = run_efficiency_1d(OuParams(rate), config).mse_k
    z = np.random.Generator(np.random.Philox(_design_stream(config.seed, design)))
    z = z.standard_normal((reps, n))
    with mpmath.workdps(40):
        s = [mpmath.mpf(x) for x in design.points]
        p = [mpmath.exp(-rate * (b - a)) for a, b in zip(s, s[1:])]
        inv = [1 / (1 - pk * pk) for pk in p]
        diag = [inv[0]] + [inv[k] + p[k - 1] ** 2 * inv[k - 1] for k in range(1, n - 1)] + [inv[-1]]
        off = [-pk * ik for pk, ik in zip(p, inv)] + [0]  # the 0 closes both ends

        def precision(v):
            return [diag[i] * v[i] + off[i] * v[(i + 1) % n] + off[i - 1] * v[i - 1]
                    for i in range(n)]

        weighted = [precision([mpmath.mpf(1)] * n), precision(s)]
        fim = mpmath.matrix([[mpmath.fdot(w, b) for b in ([1] * n, s)] for w in weighted])
        gls = mpmath.sqrt(mpmath.mpf(config.sigma) ** 2 / (2 * rate)) * mpmath.inverse(fim)
        total = 0
        for row in z:
            x = [mpmath.mpf(row[0])]
            for k in range(1, n):
                x.append(p[k - 1] * x[-1] + mpmath.sqrt(1 - p[k - 1] ** 2) * row[k])
            err = gls * mpmath.matrix([mpmath.fdot(w, x) for w in weighted])
            total += err[0] ** 2 + err[1] ** 2
        exact = float(total / (2 * reps))
    assert mse == pytest.approx(exact, rel=1e-13)


def test_mc_memory_is_the_draws_and_one_error_buffer():
    # a (replicates, n_points) matrix of normals and one (replicates, p)
    # buffer for the errors, nothing more of either size
    import tracemalloc

    reps = 10_000
    design = GridDesign2D((0.0, 0.4, 1.0), (0.0, 0.6, 1.0))
    config = McConfig(replicates=reps, seed=1, design_pair=(design, design))
    tracemalloc.start()
    try:
        run_efficiency_2d(SheetParams(2.0, 3.0), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * reps * (design.size + 3)


@pytest.mark.parametrize(
    "run,params",
    [(run_efficiency_1d, OuParams(1e100)), (run_efficiency_2d, SheetParams(1e100, 1.0))],
)
def test_vanishing_noise_raises_numerical_error(run, params):
    # noise of ~1e-51 vanishes against the unit trend: both MSEs come out 0
    with pytest.raises(NumericalError, match="simulated MSE"):
        run(params, McConfig(replicates=20))


def _row_major_mse(params, design, replicates, seed):
    """The simulated MSE and SE as computed with one row per replicate and a
    trend vector of ones; each row's mean is written out as its sum in
    coefficient order over p, which fixes its rounding on any numpy."""
    gls_map = _gls_map(params, design)
    rng = np.random.Generator(np.random.Philox(_design_stream(seed, design)))
    err = rng.standard_normal((replicates, gls_map.shape[1])) @ gls_map.T
    coef = np.ones(len(gls_map))
    err *= math.sqrt(params.stationary_variance)
    err += coef
    err -= coef
    e = np.square(err).T
    per_replicate = ((e[0] + e[1]) + e[2] if len(e) == 3 else e[0] + e[1]) / len(e)
    se = per_replicate.std(ddof=1) / math.sqrt(replicates) if replicates > 1 else math.nan
    return float(per_replicate.mean()), float(se)


@pytest.mark.parametrize("replicates", [1, 2, 777])
@pytest.mark.parametrize(
    "params,design",
    [(OuParams(20.0, sigma=0.25), Design1D((0.0, 0.3, 1.0))),
     (SheetParams(10.0, 15.0, sigma=0.25), GridDesign2D((0.0, 0.4, 1.0), (0.0, 0.6, 1.0))),
     (SheetParams(0.05, 3.0, sigma=0.25), GridDesign2D((0.0, 0.2, 0.5, 1.0), (0.0, 0.7, 1.0)))],
    ids=["3-point", "3x3", "4x3"],
)
def test_simulated_mse_equals_the_row_major_expression(params, design, replicates):
    # one row per coefficient changes the memory order, not a single bit
    for seed in range(10):
        mse, se = _simulated_mse(params, design, replicates, seed)
        ref_mse, ref_se = _row_major_mse(params, design, replicates, seed)
        assert mse == ref_mse, seed
        assert se == ref_se or (replicates == 1 and math.isnan(se) and math.isnan(ref_se)), seed


def test_simulated_se_is_finite_where_squared_deviations_overflow():
    # at sigma 1e80 the MSE is near 4e158: the squared errors are finite, the
    # squared deviations behind its SE are not, and the SE is taken relative
    # to the MSE instead; it is the unit-noise SE of the same draws, scaled
    design = Design1D((0.0, 0.3, 1.0))
    mse, se = _simulated_mse(OuParams(20.0, sigma=1e80), design, 100, 0)
    unit_mse, unit_se = _simulated_mse(OuParams(20.0, sigma=1.0), design, 100, 0)
    assert 0.0 < se < math.inf
    assert se / mse == pytest.approx(unit_se / unit_mse, rel=1e-12)
    report = run_efficiency_1d(OuParams(20.0), McConfig(replicates=100, sigma=1e80))
    assert 0.0 < report.mc_standard_error < math.inf


def test_table1_rows_equal_the_per_cell_runs():
    runner = CliRunner()

    def rows(*argv):
        result = runner.invoke(main, ["--format", "json", "simulate", *argv,
                                      "--reps", "300", "--seed", "7"])
        assert result.exit_code == 0, result.output
        return json.loads(result.output)["rows"]

    table = rows("table1")
    assert [tuple(row[1:3]) for row in table] == list(TABLE1_CELLS)
    for row in table:
        (cell,) = rows("eff", "--beta", repr(row[1]), "--gamma", repr(row[2]))
        assert cell == row[1:]


def test_efficiency_curve_collapses_exactly_on_the_collapse_interval():
    betas = np.linspace(0.3, 6.0, 40)
    rows = efficiency_curve(betas, McConfig(replicates=2, seed=1))
    interval = collapse_interval()
    assert [r.collapsed for r in rows] == [interval.contains(b) for b in betas]
    assert 0 < sum(r.collapsed for r in rows) < len(rows)
