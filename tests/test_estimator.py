"""Ridge fits, RKHS norms/distances, GP posterior equivalence, and
objective optimality."""

import contextlib

import numpy as np
import pytest

from rkhsreg.estimator import (
    Dataset,
    KernelExpansion,
    _clamp_nonneg,
    _ridge_factor,
    empirical_objective,
    evaluate_batch,
    fit_ridge,
    gp_posterior_band,
    rkhs_dist_sq,
    rkhs_norm_sq,
)
from rkhsreg.fredholm import DesignMeasure, GridOperator, build_grid
from rkhsreg.kernels import KernelSpec, cross_gram, gram, kernel_eval
from rkhsreg.linalg import NotPositiveDefiniteError

GAUSS = KernelSpec("gaussian", 1.0, 1)
NORM_SQ_TWO_POINT = 0.7869386805747332  # 2 - 2 exp(-1/2) at unit separation


def _dataset(rng, n, noise=0.2):
    xs = rng.uniform(0, 1, size=(n, 1))
    fs = np.sin(2 * np.pi * xs[:, 0]) + noise * rng.standard_normal(n)
    return Dataset(xs, fs)


def test_single_point_ridge_closed_form():
    data = Dataset(np.array([[0.0]]), np.array([5.0]))
    fhat = fit_ridge(GAUSS, data, 0.25)
    # (lam + 1) w = f, so the prediction at the center is f / (1 + lam).
    assert evaluate_batch(fhat, 0.0)[0] == pytest.approx(4.0, abs=1e-12)


def test_single_point_interpolates_at_lam_zero():
    data = Dataset(np.array([[0.0]]), np.array([5.0]))
    fhat = fit_ridge(GAUSS, data, 0.0)
    assert evaluate_batch(fhat, 0.0)[0] == pytest.approx(5.0, abs=1e-12)


def test_duplicate_point_shrinks_to_mean_over_one_plus_lam():
    data = Dataset(np.zeros((2, 1)), np.array([1.0, 2.0]))
    fhat = fit_ridge(GAUSS, data, 0.5)
    # Duplicates average first: fhat(0) = mean(f) / (1 + lam) = 1.0.
    assert evaluate_batch(fhat, 0.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_duplicate_point_lam_zero_consistent_jitter_limit():
    # Duplicated points make the Gram singular; conflicting duplicates
    # cannot meet the residual check at lam = 0 and must raise instead
    # of silently averaging.
    conflicting = Dataset(np.zeros((2, 1)), np.array([1.0, 2.0]))
    with pytest.raises(NotPositiveDefiniteError):
        fit_ridge(GAUSS, conflicting, 0.0)


def test_fit_matches_direct_linear_solve():
    rng = np.random.default_rng(11)
    data = _dataset(rng, 3)
    lam = 0.3
    fhat = fit_ridge(GAUSS, data, lam)
    from rkhsreg.kernels import gram

    K = gram(GAUSS, data.xs)
    w = np.linalg.solve(lam * np.eye(3) + K / 3, data.fs)
    np.testing.assert_allclose(np.asarray(fhat.coeffs), w / 3, atol=1e-10)


def test_fit_negative_lam_raises():
    data = Dataset(np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_ridge(GAUSS, data, -0.1)


def test_evaluate_empty_expansion():
    zero = KernelExpansion.zero(GAUSS)
    assert evaluate_batch(zero, 0.3)[0] == 0.0
    np.testing.assert_array_equal(evaluate_batch(zero, [0.1, 0.2]), np.zeros(2))
    assert rkhs_norm_sq(zero) == 0.0


def test_evaluate_batch_matches_single():
    f = KernelExpansion(GAUSS, [[0.0], [1.0]], [0.5, -0.25])
    pts = np.linspace(-1, 2, 7)
    batch = evaluate_batch(f, pts)
    singles = [
        sum(c * kernel_eval(GAUSS, x, center) for c, center in zip(f.coeffs, f.centers))
        for x in pts
    ]
    np.testing.assert_allclose(batch, singles, atol=1e-14)


def test_interpolation_at_lam_zero():
    # Well-separated points with the sharper Laplace profile stress the
    # conditioning; interpolation must still hit the data.
    xs = np.linspace(0, 1, 5).reshape(-1, 1)
    fs = np.array([0.0, 1.0, -1.0, 0.5, 2.0])
    data = Dataset(xs, fs)
    for spec in (KernelSpec("laplace", 0.7, 1), KernelSpec("gaussian", 0.25, 1)):
        fhat = fit_ridge(spec, data, 0.0)
        np.testing.assert_allclose(evaluate_batch(fhat, xs), fs, atol=1e-7)


def test_rkhs_norm_literal():
    f = KernelExpansion(GAUSS, [[0.0], [1.0]], [1.0, -1.0])
    assert rkhs_norm_sq(f) == pytest.approx(NORM_SQ_TWO_POINT, abs=1e-12)


def test_clamp_behavior():
    assert _clamp_nonneg(-1e-12) == 0.0
    assert _clamp_nonneg(2.5) == 2.5
    with pytest.raises(ArithmeticError):
        _clamp_nonneg(-1.0)


def test_dist_trivial_cases():
    f = KernelExpansion(GAUSS, [[0.0], [1.0]], [1.0, -1.0])
    assert rkhs_dist_sq(f, f) == pytest.approx(0.0, abs=1e-12)
    zero = KernelExpansion.zero(GAUSS)
    assert rkhs_dist_sq(f, zero) == pytest.approx(rkhs_norm_sq(f), abs=1e-14)
    assert rkhs_dist_sq(f, zero) == pytest.approx(rkhs_dist_sq(zero, f), abs=1e-14)
    assert rkhs_dist_sq(zero, zero) == 0.0


def test_dist_kernel_mismatch_raises():
    f = KernelExpansion(GAUSS, [[0.0]], [1.0])
    g = KernelExpansion(KernelSpec("laplace", 1.0, 1), [[0.0]], [1.0])
    with pytest.raises(ValueError):
        rkhs_dist_sq(f, g)


def test_gp_mean_equals_ridge_prediction():
    rng = np.random.default_rng(15)
    data = _dataset(rng, 20)
    lam = 0.3
    fhat = fit_ridge(GAUSS, data, lam)
    pts = (0.0, 0.31, 0.77, 1.0)
    mean, _ = gp_posterior_band(GAUSS, data, data.n * lam, pts)
    for i, x in enumerate(pts):
        assert mean[i] == pytest.approx(evaluate_batch(fhat, x)[0], abs=1e-9)


def test_gp_var_single_point_closed_form():
    data = Dataset(np.array([[0.0]]), np.array([1.0]))
    lam_gp = 0.5
    x = 0.4
    kx = kernel_eval(GAUSS, x, 0.0)
    expected = 1.0 - kx**2 / (1.0 + lam_gp)
    _, var = gp_posterior_band(GAUSS, data, lam_gp, x)
    assert var[0] == pytest.approx(expected, abs=1e-12)


def test_gp_var_far_point_approaches_prior():
    rng = np.random.default_rng(16)
    data = _dataset(rng, 10)
    spec = KernelSpec("gaussian", 0.1, 1)
    _, var = gp_posterior_band(spec, data, 1.0, 10.0)
    assert var[0] == pytest.approx(1.0, abs=1e-6)


def test_gp_var_near_zero_at_data_with_tiny_noise():
    rng = np.random.default_rng(17)
    data = _dataset(rng, 8)
    _, var = gp_posterior_band(GAUSS, data, 1e-8, data.xs[3])
    assert var[0] <= 1e-6


def test_gp_band_matches_pointwise():
    rng = np.random.default_rng(18)
    data = _dataset(rng, 12)
    lam_gp = 2.0
    pts = np.linspace(0, 1, 9)
    mean, var = gp_posterior_band(GAUSS, data, lam_gp, pts)
    # Dense reference: k(x,X) A^-1 f and k(x,x) - k(x,X) A^-1 k(X,x)
    # with A = K + lam_gp I, solved point by point.
    A = gram(GAUSS, data.xs) + lam_gp * np.eye(data.n)
    for i, x in enumerate(pts):
        kx = cross_gram(GAUSS, x, data.xs)[0]
        expected_mean = kx @ np.linalg.solve(A, data.fs)
        expected_var = kernel_eval(GAUSS, x, x) - kx @ np.linalg.solve(A, kx)
        assert mean[i] == pytest.approx(expected_mean, abs=1e-10)
        assert var[i] == pytest.approx(expected_var, abs=1e-10)


def test_gp_band_factors_once(cho_factor_calls):
    # Mean and variance share one factorization of K + lam_gp*I.
    rng = np.random.default_rng(19)
    data = _dataset(rng, 15)
    gp_posterior_band(GAUSS, data, 1.5, np.linspace(0, 1, 7))
    assert cho_factor_calls == [(15, 15)]


def _nystrom_factor(kernel, xs):
    """The unit-interval grid operator's Nystrom extension L to xs, None below its threshold."""
    op = GridOperator(kernel, build_grid(DesignMeasure.uniform(0.0, 1.0), 256))
    coeffs = op.nystrom_coefficients(len(xs))
    return None if coeffs is None else op.at_points(xs, coeffs)


@pytest.mark.parametrize("family", ["gaussian", "rational_quadratic"])
def test_low_rank_gp_band_matches_the_dense_band(cho_factor_calls, family):
    # At n = 800 the grid rank (16 and 32) is far below n / 10, so the
    # band factors only an r x r matrix; the dense band is the reference.
    kernel = KernelSpec(family, 0.25, 1)
    data = _dataset(np.random.default_rng(22), 800)
    pts = np.linspace(0.0, 1.0, 201)
    L = _nystrom_factor(kernel, data.xs)
    mean, var = gp_posterior_band(kernel, data, 800 * 0.2, pts, L)
    r = L.shape[1]
    assert cho_factor_calls == [(r, r)]
    dense_mean, dense_var = gp_posterior_band(kernel, data, 800 * 0.2, pts)
    assert cho_factor_calls[1:] == [(800, 800)]
    np.testing.assert_allclose(mean, dense_mean, rtol=1e-12)
    np.testing.assert_allclose(var, dense_var, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "family, bandwidth", [("gaussian", 0.25), ("gaussian", 0.05), ("rational_quadratic", 0.25)]
)
def test_low_rank_ridge_factor_matches_the_dense_solve(cho_factor_calls, family, bandwidth):
    # Grid ranks 16, 56 and 32 sit far below n = 800 / 10, so the factor
    # starts on the Woodbury rung on the grid's Nystrom factor, refined
    # once against K, and never factors an n x n matrix.
    kernel = KernelSpec(family, bandwidth, 1)
    rng = np.random.default_rng(20)
    data = _dataset(rng, 800)
    K = gram(kernel, data.xs)
    B = np.column_stack([data.fs, rng.standard_normal(800)])
    low = _ridge_factor(K, 0.2, _nystrom_factor(kernel, data.xs)).solve(B)
    assert cho_factor_calls and (800, 800) not in cho_factor_calls
    dense = _ridge_factor(K, 0.2).solve(B)
    assert cho_factor_calls[-1] == (800, 800)
    # Column by column in norm: single entries near 0 differ by roundoff.
    gap = np.linalg.norm(low - dense, axis=0)
    assert np.all(gap <= 1e-12 * np.linalg.norm(dense, axis=0))


@pytest.mark.parametrize(
    "n, family, lam",
    [(50, "gaussian", 0.2), (800, "laplace", 0.2), (800, "gaussian", 0.0)],
    ids=["small-n", "laplace-full-rank", "interpolation"],
)
def test_ridge_factor_stays_dense(cho_factor_calls, n, family, lam):
    # Below 10 times the grid rank (n = 50, and the full-rank Laplace
    # grid's 2560) no low-rank form is given; at lam = 0 one is given,
    # but the Woodbury form would divide by the zero shift.
    kernel = KernelSpec(family, 0.25, 1)
    data = _dataset(np.random.default_rng(21), n)
    L = _nystrom_factor(kernel, data.xs)
    assert (L is not None) == (lam == 0)
    # Only the dense Cholesky is tried; at lam = 0 the singular K/n has none.
    singular = pytest.raises(NotPositiveDefiniteError) if lam == 0 else contextlib.nullcontext()
    with singular:
        _ridge_factor(gram(kernel, data.xs), lam, L)
    assert cho_factor_calls and set(cho_factor_calls) == {(n, n)}


def test_gp_nonpositive_lam_gp_raises():
    data = Dataset(np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        gp_posterior_band(GAUSS, data, 0.0, [0.0])


def test_objective_zero_function_is_mean_square():
    rng = np.random.default_rng(19)
    data = _dataset(rng, 15)
    zero = KernelExpansion.zero(GAUSS)
    assert empirical_objective(zero, data, 0.7) == pytest.approx(
        float(np.mean(data.fs**2)), abs=1e-14
    )


def test_objective_optimality_under_perturbations():
    rng = np.random.default_rng(20)
    data = _dataset(rng, 10)
    lam = 0.3
    fhat = fit_ridge(GAUSS, data, lam)
    base = empirical_objective(fhat, data, lam)
    coeffs = np.asarray(fhat.coeffs)
    for _ in range(100):
        perturbed = KernelExpansion(
            GAUSS, data.xs, coeffs + 1e-2 * rng.standard_normal(10)
        )
        assert base <= empirical_objective(perturbed, data, lam) + 1e-12


def test_objective_ball_bound():
    # Minimizing beats the zero function, so lam ||fhat||^2 <= mean f^2.
    rng = np.random.default_rng(21)
    for lam in (0.05, 0.3, 2.0):
        data = _dataset(rng, 25)
        fhat = fit_ridge(GAUSS, data, lam)
        mean_sq = float(np.mean(data.fs**2))
        assert lam * rkhs_norm_sq(fhat) <= mean_sq * (1 + 1e-9) + 1e-12


def test_rkhs_distance_certifies_grid_max():
    # |f(x) - g(x)| <= ||f - g||_k sqrt(k(x, x)), and k(x, x) = 1.
    rng = np.random.default_rng(22)
    for _ in range(5):
        f = KernelExpansion(GAUSS, rng.uniform(0, 1, (6, 1)), rng.standard_normal(6))
        g = KernelExpansion(GAUSS, rng.uniform(0, 1, (4, 1)), rng.standard_normal(4))
        grid = np.linspace(-0.5, 1.5, 500)
        gap = np.abs(evaluate_batch(f, grid) - evaluate_batch(g, grid))
        assert float(np.max(gap)) <= float(np.sqrt(rkhs_dist_sq(f, g))) + 1e-12
