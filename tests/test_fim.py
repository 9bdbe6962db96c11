import numpy as np
import pytest

from oudesign import (
    Design1D,
    GridDesign2D,
    OuParams,
    SheetParams,
    ValidationError,
    fim_1d,
    fim_2d,
    fim_entries_1d,
    fim_entries_2d,
    fim_entries_equidistant_1d,
    fim_entries_equidistant_2d,
)
from oudesign._reference import fim_definitional_1d, fim_definitional_2d
from helpers import random_design


def two_point_entries(beta, d):
    p = np.exp(-beta * d)
    return 2.0 / (1.0 + p), d / (1.0 + p), d * d / (1.0 - p * p)


def test_two_point_single_gap_forms():
    beta, d = 1.3, 0.7
    e = fim_entries_1d(OuParams(beta), Design1D((0.0, d)))
    l1, l2, l3 = two_point_entries(beta, d)
    assert e.l1 == pytest.approx(l1, rel=1e-14)
    assert e.l2 == pytest.approx(l2, rel=1e-14)
    assert e.l3 == pytest.approx(l3, rel=1e-14)


def test_equidistant_matches_general_design():
    beta, d, n = 1.0, 0.5, 4
    eq = fim_entries_equidistant_1d(OuParams(beta), d, n)
    gen = fim_entries_1d(OuParams(beta), Design1D.equidistant(d, n))
    assert eq.l1 == pytest.approx(gen.l1, rel=1e-12)
    assert eq.l2 == pytest.approx(gen.l2, rel=1e-12)
    assert eq.l3 == pytest.approx(gen.l3, rel=1e-12)


def test_equidistant_matches_general_design_random():
    rng = np.random.default_rng(10)
    for _ in range(20):
        beta = rng.uniform(0.05, 8.0)
        d = rng.uniform(0.05, 3.0)
        n = int(rng.integers(2, 25))
        eq = fim_entries_equidistant_1d(OuParams(beta), d, n)
        gen = fim_entries_1d(OuParams(beta), Design1D.equidistant(d, n))
        for a, b in zip((eq.l1, eq.l2, eq.l3), (gen.l1, gen.l2, gen.l3)):
            assert a == pytest.approx(b, rel=1e-12)


def test_equidistant_reduces_to_two_point_forms():
    beta, d = 0.9, 1.4
    eq = fim_entries_equidistant_1d(OuParams(beta), d, 2)
    l1, l2, l3 = two_point_entries(beta, d)
    assert (eq.l1, eq.l2, eq.l3) == pytest.approx((l1, l2, l3), rel=1e-14)


def test_equidistant_l2_proportional_to_l1():
    # l2 = d*(n-1)/2 * l1 identically for equidistant designs
    rng = np.random.default_rng(11)
    for _ in range(10):
        beta, d, n = rng.uniform(0.1, 5), rng.uniform(0.1, 2), int(rng.integers(2, 15))
        e = fim_entries_equidistant_1d(OuParams(beta), d, n)
        assert e.l2 == pytest.approx(0.5 * d * (n - 1) * e.l1, rel=1e-14)


def test_uncorrelated_limit():
    # wide spacing: correlations vanish, l1 -> n
    e = fim_entries_equidistant_1d(OuParams(1.0), 500.0, 7)
    assert e.l1 == pytest.approx(7.0, rel=1e-12)


RATES = tuple(10.0**k for k in range(-6, 8))


def assert_near_dense(fim, dense, x, rate):
    """The dense solve's error model: relative to the largest entry, it
    loses 1e-14/x, where x is the smallest scaled gap rate*d."""
    err = np.max(np.abs(fim - dense)) / np.max(np.abs(dense))
    assert err <= 1e-9 + 1e-14 / x, f"rate {rate:g}: relative error {err:.3g}"


def test_fim_1d_matches_definitional_product():
    rng = np.random.default_rng(12)
    design = random_design(rng, 6)
    gap = np.min(np.diff(design.as_array()))
    for rate in RATES:
        params = OuParams(rate)
        assert_near_dense(fim_1d(params, design), fim_definitional_1d(params, design),
                          rate * gap, rate)


def test_fim_1d_two_point_explicit():
    m = fim_1d(OuParams(np.log(2)), Design1D((0.0, 1.0)))
    l1, l2, l3 = two_point_entries(np.log(2), 1.0)
    assert np.allclose(m, [[l1, l2], [l2, l3]], rtol=1e-14)


def test_fim_1d_positive_definite_random():
    rng = np.random.default_rng(13)
    for _ in range(30):
        params = OuParams(rng.uniform(0.05, 10.0))
        design = random_design(rng, rng.integers(2, 15), start=rng.uniform(-2, 2))
        m = fim_1d(params, design)
        assert np.linalg.det(m) > 0.0
        assert np.min(np.linalg.eigvalsh(m)) > 0.0


def test_fim_relabeling_invariance():
    params = OuParams(0.8)
    a = fim_1d(params, Design1D((0.0, 0.3, 1.0)))
    b = fim_1d(params, Design1D((1.0, 0.0, 0.3)))  # same point set, shuffled
    assert np.array_equal(a, b)


def test_fim_general_start_point():
    # definitional oracle validates the entries for designs anchored away from 0
    params = OuParams(2.2)
    design = Design1D((-1.5, -0.2, 0.7, 3.0))
    assert np.allclose(
        fim_1d(params, design), fim_definitional_1d(params, design), rtol=1e-9
    )


def test_nine_point_axis_forms_match_explicit_display():
    # axis entries of {0, d, 1}: explicit restricted forms
    beta, d = 1.7, 0.35
    e = fim_entries_1d(OuParams(beta), Design1D((0.0, d, 1.0)))
    q1, q2 = np.exp(-beta * d), np.exp(-beta * (1 - d))
    assert e.l1 == pytest.approx(2 / (1 + q1) + (1 - q2) / (1 + q2), rel=1e-12)
    assert e.l2 == pytest.approx(d / (1 + q1) + (1 - d * q2) / (1 + q2), rel=1e-12)
    assert e.l3 == pytest.approx(
        d * d / (1 - q1**2) + (1 - d * q2) ** 2 / (1 - q2**2), rel=1e-12
    )


def test_fim_2d_symmetric_model_has_equal_axis_triples():
    params = SheetParams(1.1, 1.1)
    g = GridDesign2D((0.0, 0.4, 1.0), (0.0, 0.4, 1.0))
    e = fim_entries_2d(params, g)
    assert e.s_entries == e.t_entries


def test_fim_2d_matches_definitional_product():
    rng = np.random.default_rng(14)
    g = GridDesign2D(random_design(rng, 4), random_design(rng, 3))
    gaps = [np.min(np.diff(axis.as_array())) for axis in (g.s, g.t)]
    for rate in RATES:
        params = SheetParams(rate, 2.0 * rate)
        x = min(rate * gaps[0], 2.0 * rate * gaps[1])
        assert_near_dense(fim_2d(params, g), fim_definitional_2d(params, g), x, rate)


def test_fim_2d_2x2_grid_definitional():
    params = SheetParams(1.0, 1.0)
    g = GridDesign2D((0.0, 1.0), (0.0, 1.0))
    assert np.allclose(fim_2d(params, g), fim_definitional_2d(params, g), rtol=1e-10)


def test_fim_2d_determinant_factorization():
    rng = np.random.default_rng(15)
    params = SheetParams(0.6, 2.3)
    g = GridDesign2D(random_design(rng, 4), random_design(rng, 4))
    e = fim_entries_2d(params, g)
    s, t = e.s_entries, e.t_entries
    factored = (s.l1 * t.l1) * (s.l1 * s.l3 - s.l2**2) * (t.l1 * t.l3 - t.l2**2)
    assert np.linalg.det(e.matrix()) == pytest.approx(factored, rel=1e-9)


def test_fim_2d_top_left_entry_is_product_of_l1s():
    params = SheetParams(1.0, 2.0)
    g = GridDesign2D((0.0, 0.5, 1.0), (0.0, 0.25, 1.0))
    e = fim_entries_2d(params, g)
    assert fim_2d(params, g)[0, 0] == e.s_entries.l1 * e.t_entries.l1


def test_fim_equidistant_2d_matches_general_grid():
    params = SheetParams(0.2, 0.3)
    eq = fim_entries_equidistant_2d(params, 1.0, 1.0, 3, 3).matrix()
    gen = fim_2d(params, GridDesign2D(Design1D.equidistant(1.0, 3), Design1D.equidistant(1.0, 3)))
    assert np.allclose(eq, gen, rtol=1e-12)


def test_fim_equidistant_2d_m_block_two_point():
    params = SheetParams(1.0, 0.8)
    e = fim_entries_equidistant_2d(params, 0.5, 1.2, 3, 2)
    l1, l2, l3 = two_point_entries(0.8, 1.2)
    assert (e.t_entries.l1, e.t_entries.l2, e.t_entries.l3) == pytest.approx(
        (l1, l2, l3), rel=1e-14
    )


def test_equidistant_validation():
    with pytest.raises(ValidationError):
        fim_entries_equidistant_1d(OuParams(1.0), -0.5, 3)
    with pytest.raises(ValidationError):
        fim_entries_equidistant_1d(OuParams(1.0), 0.5, 1)
