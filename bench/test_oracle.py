"""Tests of the benchmark's oracle.

    PYTHONPATH=src python -m pytest -q bench/test_oracle.py

The oracle must agree with the definitional reference kept in the package
on small designs, stay within its own error model against 50-digit
arithmetic, pass correct search results, and flag each of the faults
F1-F4 that the design_search workload keeps as failed operations.
"""

import numpy as np
import pytest

import oracle
from oudesign import (
    Design1D,
    GridDesign2D,
    OuParams,
    SheetParams,
    equidistant_k_optimal_1d,
    four_point_grid_k_optimal,
    nine_point_restricted_2d,
    three_point_restricted_1d,
    two_point_k_optimal,
)
from oudesign._reference import fim_definitional_1d, fim_definitional_2d
from oudesign.exceptions import ValidationError


@pytest.mark.parametrize("beta", [1e-3, 0.5, 7.0, 300.0])
def test_fim_1d_matches_reference(beta):
    rng = np.random.default_rng(3)
    for n in (2, 3, 7):
        pts = np.sort(rng.uniform(-2.0, 5.0, n))
        ref = fim_definitional_1d(OuParams(beta), Design1D(tuple(pts)))
        np.testing.assert_allclose(oracle.fim_1d(beta, pts), ref, rtol=1e-10)


@pytest.mark.parametrize("beta,gamma", [(0.1, 2.0), (5.0, 5.0), (30.0, 0.7)])
def test_grid_fim_matches_reference(beta, gamma):
    s, t = (0.0, 0.3, 1.0), (0.0, 0.8, 1.5, 2.0)
    ref = fim_definitional_2d(SheetParams(beta, gamma), GridDesign2D(Design1D(s), Design1D(t)))
    got = oracle.fim_grid(oracle.fim_1d(beta, np.array(s)), oracle.fim_1d(gamma, np.array(t)))
    np.testing.assert_allclose(got, ref, rtol=1e-10)


def test_error_model_against_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for beta, pts in [(1.0, (0.0, 1e-9, 1.0)), (1e-6, (0.0, 0.5, 1.0)), (1e7, (0.0, 3e-7, 1.0))]:
        s = [mp.mpf(x) for x in pts]
        corr = mp.matrix([[mp.exp(-beta * abs(a - b)) for b in s] for a in s])
        x0 = mp.lu_solve(corr, mp.matrix([1] * len(s)))
        x1 = mp.lu_solve(corr, mp.matrix(s))
        f = mp.matrix([[sum(x0), sum(a * b for a, b in zip(s, x0))],
                       [sum(a * b for a, b in zip(s, x0)), sum(a * b for a, b in zip(s, x1))]])
        exact = float(max(mp.eigsy(f)[0]) / min(mp.eigsy(f)[0]))
        got = float(oracle.cond(oracle.fim_1d(beta, np.array(pts))))
        x_min = beta * min(np.diff(pts))
        assert oracle.matches(got, exact, x_min), (beta, pts, got, exact)


@pytest.mark.parametrize("beta,crit", [(0.3, "K"), (50.0, "K"), (2.0, "D"), (20.0, "D")])
def test_correct_three_point_passes(beta, crit):
    res = three_point_restricted_1d(OuParams(beta), crit)
    assert oracle.check_three_point(beta, crit, res.argopt, res.value)


def test_correct_searches_pass():
    res = nine_point_restricted_2d(SheetParams(20.0, 15.0), "K")
    assert oracle.check_nine_point(20.0, 15.0, "K", *res.argopt, res.value)
    res = two_point_k_optimal(OuParams(0.1))
    assert oracle.check_two_point(0.1, res.argopt, res.value)
    res = four_point_grid_k_optimal(SheetParams(0.2, 0.3))
    assert oracle.check_four_point(0.2, 0.3, *res.argopt, res.value)
    res = equidistant_k_optimal_1d(OuParams(1.0), 10)
    assert oracle.check_equidistant(1.0, 10, res.argopt, res.value, res.converged,
                                    oracle.EquidistantScan())


def test_flags_f1_collapse_at_large_rate():
    res = three_point_restricted_1d(OuParams(1e7), "K")
    verdict = oracle.check_three_point(1e7, "K", res.argopt, res.value)
    assert not verdict and "scan beats" in verdict.why
    res = nine_point_restricted_2d(SheetParams(1e7, 1.0), "K")
    assert not oracle.check_nine_point(1e7, 1.0, "K", *res.argopt, res.value)


def test_flags_f2_negative_condition_number():
    res = four_point_grid_k_optimal(SheetParams(100.0, 100.0))
    verdict = oracle.check_four_point(100.0, 100.0, *res.argopt, res.value)
    assert not verdict and "!= oracle" in verdict.why


def test_flags_f3_two_point_small_rate():
    # The search cannot return an answer at all, so nothing can be verified.
    with pytest.raises(ValidationError):
        two_point_k_optimal(OuParams(1e-5))


def test_flags_f4_equidistant_window_floor():
    res = equidistant_k_optimal_1d(OuParams(1e-6), 3)
    verdict = oracle.check_equidistant(1e-6, 3, res.argopt, res.value, res.converged,
                                       oracle.EquidistantScan())
    assert not verdict and "beat" in verdict.why


def test_mc_moments_match_sampling():
    rng = np.random.default_rng(5)
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    e = rng.multivariate_normal(np.zeros(2), cov, size=200_000)
    per_rep = (e**2).mean(axis=1)
    mean, var = oracle._mse_moments(cov)
    assert abs(per_rep.mean() - mean) < 5 * np.sqrt(var / per_rep.size)
    assert abs(per_rep.var() / var - 1.0) < 0.02


def test_eff_se_matches_sampling():
    rng = np.random.default_rng(6)
    reps, runs = 400, 4000
    k_cov, d_cov = np.diag([1.0, 0.2]), np.array([[2.0, 0.5], [0.5, 1.0]])
    effs = []
    for cov in (k_cov, d_cov):
        e = rng.multivariate_normal(np.zeros(2), cov, size=(runs, reps))
        effs.append((e**2).mean(axis=2).mean(axis=1))
    eff = 100.0 * effs[0] / effs[1]
    se = oracle.eff_se(oracle._mse_moments(k_cov), oracle._mse_moments(d_cov), reps)
    assert abs(eff.std() / se - 1.0) < 0.05
