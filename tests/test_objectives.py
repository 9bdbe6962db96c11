import numpy as np
import pytest

from oudesign import (
    Design1D,
    FimEntries1D,
    FimEntries2D,
    NumericalError,
    OuParams,
    SheetParams,
    SingularFimError,
    d_objective_1d,
    d_objective_2d,
    evaluate_design_1d,
    evaluate_design_2d,
    fim_2d,
    fim_entries_1d,
    fim_entries_2d,
    k_objective_1d,
    k_objective_2d,
)
from oudesign import GridDesign2D
from helpers import (
    cond3_closed,
    eigen3_closed,
    k_60_digits,
    k_from_r,
    random_design,
    random_grid,
    random_pd_matrix,
)


def test_d_objective_two_point_det_oracle():
    e = fim_entries_1d(OuParams(0.9), Design1D((0.0, 0.8)))
    assert d_objective_1d(e) == pytest.approx(np.linalg.det(e.matrix()), rel=1e-12)


def test_d_objective_collapsing_two_point():
    # the two-point determinant vanishes like d/(2*beta) as the design collapses
    vals = [
        d_objective_1d(fim_entries_1d(OuParams(1.0), Design1D((0.0, d))))
        for d in (1e-2, 1e-4, 1e-6)
    ]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] == pytest.approx(1e-6 / 2.0, rel=1e-3)


def test_d_objective_three_point_display():
    # explicit three-point determinant at d = 1/2, rate 1
    beta, d = 1.0, 0.5
    e = np.exp
    display = (
        2
        * (
            (1 - e(-beta * d))
            + d * (e(-beta * d) - e(-beta * (1 - d)))
            - d * (1 - d) * (1 - e(-beta))
        )
        / ((1 - e(-2 * beta * d)) * (1 - e(-2 * beta * (1 - d))))
    )
    entries = fim_entries_1d(OuParams(beta), Design1D((0.0, d, 1.0)))
    assert d_objective_1d(entries) == pytest.approx(display, rel=1e-12)


def test_r_objective_two_point_display():
    # the paper's r = ((d^2+2) e^{bd} - 2)^2 / (d^2 (e^{2bd} - 1))
    beta, d = 0.7, 1.3
    e = fim_entries_1d(OuParams(beta), Design1D((0.0, d)))
    display = ((d * d + 2) * np.exp(beta * d) - 2) ** 2 / (
        d * d * (np.exp(2 * beta * d) - 1)
    )
    assert k_objective_1d(e) == pytest.approx(k_from_r(display), rel=1e-12)


def test_r_objective_three_point_boundary_limit():
    # the paper's r of the three-point design at the collapsing boundary
    beta = 1.7
    limit = k_from_r((3 * np.exp(beta) - 2) ** 2 / (np.exp(2 * beta) - 1))
    two_point = k_objective_1d(fim_entries_1d(OuParams(beta), Design1D((0.0, 1.0))))
    assert two_point == pytest.approx(limit, rel=1e-12)
    near = k_objective_1d(fim_entries_1d(OuParams(beta), Design1D((0.0, 1e-7, 1.0))))
    assert near == pytest.approx(limit, rel=1e-5)


def test_r_objective_singular_guard():
    # a singular matrix has no finite condition number
    with pytest.raises(SingularFimError):
        k_objective_1d(FimEntries1D(1.0, 1.0, 1.0))


def test_k_objective_has_no_absolute_det_floor():
    # det is ~1e-15 here, but det/(l1*l3) = 0.77: a well-posed design
    e = fim_entries_1d(OuParams(1e7), Design1D((0.0, 3e-8, 6e-8)))
    assert d_objective_1d(e) < 1e-14
    k = evaluate_design_1d(OuParams(1e7), Design1D((0.0, 3e-8, 6e-8))).k_value
    assert k == pytest.approx(np.linalg.cond(e.matrix()), rel=1e-6)


def test_k_objective_identity_like():
    assert k_objective_1d(FimEntries1D(1.0, 0.0, 1.0)) == pytest.approx(1.0)


def test_k_objective_1d_matches_eigensolver():
    rng = np.random.default_rng(21)
    for _ in range(200):
        params = OuParams(rng.uniform(0.05, 10.0))
        design = random_design(rng, rng.integers(2, 12))
        e = fim_entries_1d(params, design)
        w = np.linalg.eigvalsh(e.matrix())
        assert k_objective_1d(e) == pytest.approx(w[-1] / w[0], rel=1e-9)


def test_eigen3_identity_branch():
    assert eigen3_closed(np.eye(3)) == pytest.approx((1.0, 1.0, 1.0))
    unit = FimEntries1D(1.0, 0.0, 1.0)
    assert k_objective_2d(FimEntries2D(unit, unit)) == pytest.approx(1.0)
    assert k_objective_2d(FimEntries2D(FimEntries1D(7.3, 0.0, 7.3), unit)) == pytest.approx(1.0)


def test_eigen3_diagonal():
    assert eigen3_closed(np.diag([3.0, 2.0, 1.0])) == pytest.approx((3.0, 2.0, 1.0), rel=1e-12)


def test_eigen3_matches_eigensolver():
    rng = np.random.default_rng(22)
    for _ in range(200):
        a = random_pd_matrix(rng, 3)
        res = eigen3_closed(a)
        w = np.linalg.eigvalsh(a)[::-1]
        assert np.allclose(res, w, rtol=1e-10, atol=1e-12 * np.max(w))
        prod = np.prod(res)
        assert prod == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_k_objective_2d_rejects_non_pd():
    # an indefinite s-axis triple makes the grid matrix indefinite
    indefinite = FimEntries2D(FimEntries1D(1.0, 2.0, 1.0), FimEntries1D(1.0, 0.0, 1.0))
    with pytest.raises(NumericalError):
        k_objective_2d(indefinite)
    with pytest.raises(NumericalError):  # one indefinite design in a batch
        k_objective_2d(FimEntries2D(
            FimEntries1D(np.array([1.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 1.0])),
            FimEntries1D(1.0, 0.0, 1.0),
        ))


def test_k_objective_2d_matches_eigensolver():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = random_pd_matrix(rng, 3)
        w = np.linalg.eigvalsh(a)
        assert cond3_closed(a) == pytest.approx(w[-1] / w[0], rel=1e-9)


def test_k_objective_2d_example_grid():
    params = SheetParams(1.0, 1.0)
    g = GridDesign2D((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
    e = fim_entries_2d(params, g)
    w = np.linalg.eigvalsh(fim_2d(params, g))
    assert k_objective_2d(e) == pytest.approx(w[-1] / w[0], rel=1e-10)


def test_k_objective_2d_takes_grid_entries_batched():
    # matches the eigensolver on grid designs, and broadcasts over batched
    # entries like d_objective_2d
    rng = np.random.default_rng(27)
    singles, ratios = [], []
    for _ in range(25):
        params = SheetParams(rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0))
        e = fim_entries_2d(params, random_grid(rng, rng.integers(2, 6), rng.integers(2, 6)))
        w = np.linalg.eigvalsh(e.matrix())
        assert k_objective_2d(e) == pytest.approx(w[-1] / w[0], rel=1e-10)
        singles.append(e)
        ratios.append(k_objective_2d(e))
    s = FimEntries1D(*(np.array([getattr(e.s_entries, f) for e in singles])[:, None]
                       for f in ("l1", "l2", "l3")))
    t = FimEntries1D(*(np.array([getattr(e.t_entries, f) for e in singles])[None, :]
                       for f in ("l1", "l2", "l3")))
    batched = k_objective_2d(FimEntries2D(s, t))
    assert batched.shape == (25, 25)
    assert np.array_equal(np.diag(batched), ratios)


def test_k_objective_2d_scale_invariance_design_fims():
    # the 1e-12 drift bound holds on information matrices of actual grid
    # designs, whose spectra have healthy gaps; scaling one axis triple
    # by c scales the grid matrix by c
    rng = np.random.default_rng(24)
    for _ in range(50):
        params = SheetParams(rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0))
        d, dl = rng.uniform(0.05, 0.95, 2)
        e = fim_entries_2d(params, GridDesign2D((0.0, d, 1.0), (0.0, dl, 1.0)))
        k = k_objective_2d(e)
        s = e.s_entries
        for c in (1e-6, 0.5, 3.0, 1e7):
            scaled = FimEntries2D(FimEntries1D(c * s.l1, c * s.l2, c * s.l3), e.t_entries)
            assert k_objective_2d(scaled) == pytest.approx(k, rel=1e-12)


def test_k_objective_2d_scale_invariance_general():
    # arbitrary PD matrices can have near-degenerate eigenvalue pairs,
    # where any invariants-based formula amplifies rounding like
    # eps/sqrt(gap); the drift stays below 1e-8 even then
    rng = np.random.default_rng(24)
    for _ in range(100):
        a = random_pd_matrix(rng, 3)
        k = cond3_closed(a)
        for c in (1e-6, 0.5, 3.0, 1e7):
            assert cond3_closed(c * a) == pytest.approx(k, rel=1e-8)


def test_k_objective_1d_scale_invariance():
    rng = np.random.default_rng(25)
    for _ in range(50):
        params = OuParams(rng.uniform(0.1, 5.0))
        design = random_design(rng, 5)
        e = fim_entries_1d(params, design)
        k = k_objective_1d(e)
        for c in (1e-4, 2.0, 1e5):
            scaled = FimEntries1D(c * e.l1, c * e.l2, c * e.l3)
            assert k_objective_1d(scaled) == pytest.approx(k, rel=1e-12)


def test_d_objective_2d_symmetric_axes_squares():
    params = SheetParams(0.8, 0.8)
    g = GridDesign2D((0.0, 0.3, 1.0), (0.0, 0.3, 1.0))
    e = fim_entries_2d(params, g)
    s = e.s_entries
    axis_factor = s.l1 * (s.l1 * s.l3 - s.l2**2)
    assert d_objective_2d(e) == pytest.approx(axis_factor**2, rel=1e-12)


def test_d_objective_2d_matches_determinant():
    rng = np.random.default_rng(26)
    for _ in range(25):
        params = SheetParams(rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0))
        g = random_grid(rng, rng.integers(2, 6), rng.integers(2, 6))
        e = fim_entries_2d(params, g)
        assert d_objective_2d(e) == pytest.approx(np.linalg.det(e.matrix()), rel=1e-9)


def test_evaluate_design_consistency():
    ev = evaluate_design_1d(OuParams(1.0), Design1D((0.0, 0.4, 1.0)))
    assert ev.k_value == pytest.approx(k_objective_1d(ev.entries), rel=1e-12)
    assert ev.d_value == pytest.approx(d_objective_1d(ev.entries), rel=1e-12)
    assert ev.d_value > 0
    ev2 = evaluate_design_2d(SheetParams(1.0, 2.0), GridDesign2D((0.0, 1.0), (0.0, 1.0)))
    assert ev2.k_value >= 1.0
    assert ev2.d_value > 0


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5, 1e7])
def test_d_value_is_shift_invariant(offset):
    # the determinant does not change under a shift of the design, so it
    # must equal the determinant of the same float points moved to 0
    design = Design1D((offset, offset + 0.3, offset + 1.0))
    pts = design.points
    shifted = Design1D(tuple(p - pts[0] for p in pts))
    expected = d_objective_1d(fim_entries_1d(OuParams(1.0), shifted))
    assert evaluate_design_1d(OuParams(1.0), design).d_value == pytest.approx(expected, rel=1e-12)
    grid = GridDesign2D(design, Design1D((offset, offset + 0.5, offset + 2.0)))
    shifted_grid = GridDesign2D(shifted, Design1D((0.0, 0.5, 2.0)))
    expected_2d = d_objective_2d(fim_entries_2d(SheetParams(1.0, 2.0), shifted_grid))
    got_2d = evaluate_design_2d(SheetParams(1.0, 2.0), grid).d_value
    assert got_2d == pytest.approx(expected_2d, rel=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5, 1e7, 3e7, 1e8, 1e10])
def test_k_value_keeps_its_digits_off_the_origin(offset):
    # 60-digit H C^{-1} H^T of the same float points; far from the origin
    # l1*l3 - l2^2 of the raw entries cancels, the shifted one does not,
    # and the singularity check follows the shifted entries
    mpmath = pytest.importorskip("mpmath")
    design = Design1D((offset, offset + 0.3, offset + 1.0))
    k = k_60_digits(mpmath, 1.0, design.points)
    assert evaluate_design_1d(OuParams(1.0), design).k_value == pytest.approx(k, rel=1e-12)
