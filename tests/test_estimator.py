"""Ridge and generalized fits, RKHS norms/distances, GP posterior
equivalence, objective optimality, and the KernelRidge front end."""

import numpy as np
import pytest

from rkhsreg.estimator import (
    Dataset,
    KernelExpansion,
    _clamp_nonneg,
    empirical_objective,
    evaluate_batch,
    fit_generalized,
    fit_ridge,
    gp_posterior_band,
    rkhs_dist_sq,
    rkhs_norm_sq,
    sup_error_bound,
)
from rkhsreg.kernels import KernelSpec, cross_gram, gram, kernel_eval
from rkhsreg.model import KernelRidge

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
    # Singular Gram with a consistent right-hand side solves through the
    # jitter ladder; conflicting duplicates cannot meet the residual
    # check at lam = 0 and must raise instead of silently averaging.
    data = Dataset(np.zeros((2, 1)), np.array([1.5, 1.5]))
    fhat = fit_ridge(GAUSS, data, 0.0)
    assert evaluate_batch(fhat, 0.0)[0] == pytest.approx(1.5, abs=1e-6)
    from rkhsreg.linalg import NotPositiveDefiniteError

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


def test_generalized_scalar_matches_ridge():
    data = Dataset(np.array([[0.2]]), np.array([3.0]))
    fhat = fit_generalized(GAUSS, data, np.array([[0.5]]))
    # Lam = [[c]] gives w = f / (1 + c), same as ridge at lam = c.
    assert evaluate_batch(fhat, 0.2)[0] == pytest.approx(2.0, abs=1e-12)


def test_generalized_lam_identity_reproduces_ridge():
    # Laplace keeps the Gram well conditioned; the generalized route
    # squares K, so a nearly singular Gram would test conditioning, not
    # the algebraic identity.
    rng = np.random.default_rng(12)
    data = _dataset(rng, 6)
    spec = KernelSpec("laplace", 0.5, 1)
    lam = 0.4
    ridge = fit_ridge(spec, data, lam)
    general = fit_generalized(spec, data, lam * np.eye(6))
    np.testing.assert_allclose(
        np.asarray(general.coeffs), np.asarray(ridge.coeffs), atol=1e-9
    )


def test_generalized_diagonal_matches_direct_formula():
    rng = np.random.default_rng(13)
    data = _dataset(rng, 4)
    Lam = np.diag([0.1, 0.2, 0.4, 0.8])
    fhat = fit_generalized(GAUSS, data, Lam)
    from rkhsreg.kernels import gram

    K = gram(GAUSS, data.xs)
    Li = np.linalg.inv(Lam)
    w = 4 * np.linalg.solve(K @ Li @ K + 4 * K, K @ Li @ data.fs)
    np.testing.assert_allclose(np.asarray(fhat.coeffs), w / 4, atol=1e-9)


def test_generalized_validation():
    rng = np.random.default_rng(14)
    data = _dataset(rng, 3)
    with pytest.raises(ValueError):
        fit_generalized(GAUSS, data, np.eye(4))  # wrong order
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        fit_generalized(GAUSS, data, bad)  # asymmetric
    with pytest.raises(np.linalg.LinAlgError):
        fit_generalized(GAUSS, data, np.zeros((3, 3)))  # singular


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
    # conditioning; jittered interpolation must still hit the data.
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
    with pytest.raises(ValueError):
        _clamp_nonneg(-1.0)


def test_dist_trivial_cases():
    f = KernelExpansion(GAUSS, [[0.0], [1.0]], [1.0, -1.0])
    assert rkhs_dist_sq(f, f) == pytest.approx(0.0, abs=1e-12)
    zero = KernelExpansion.zero(GAUSS)
    assert rkhs_dist_sq(f, zero) == pytest.approx(rkhs_norm_sq(f), abs=1e-14)
    assert rkhs_dist_sq(f, zero) == pytest.approx(rkhs_dist_sq(zero, f), abs=1e-14)


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


def test_sup_error_bound_certifies_grid_max():
    rng = np.random.default_rng(22)
    for _ in range(5):
        f = KernelExpansion(GAUSS, rng.uniform(0, 1, (6, 1)), rng.standard_normal(6))
        g = KernelExpansion(GAUSS, rng.uniform(0, 1, (4, 1)), rng.standard_normal(4))
        grid = np.linspace(-0.5, 1.5, 500)
        gap = np.abs(evaluate_batch(f, grid) - evaluate_batch(g, grid))
        assert float(np.max(gap)) <= sup_error_bound(f, g, 1.0) + 1e-12


def test_kernel_ridge_params_protocol():
    est = KernelRidge(family="laplace", bandwidth=0.5, alpha=0.2)
    params = est.get_params()
    assert params == {"family": "laplace", "bandwidth": 0.5, "alpha": 0.2}
    clone = KernelRidge(**params)
    assert clone.get_params() == params
    est.set_params(alpha=0.9)
    assert est.alpha == 0.9
    with pytest.raises(ValueError):
        est.set_params(gamma=1.0)


def test_kernel_ridge_fit_predict():
    rng = np.random.default_rng(23)
    X = rng.uniform(0, 1, (30, 1))
    y = np.sin(2 * np.pi * X[:, 0]) + 0.1 * rng.standard_normal(30)
    est = KernelRidge(family="gaussian", bandwidth=0.25, alpha=0.05).fit(X, y)
    preds = est.predict(X)
    assert preds.shape == (30,)
    assert est.n_features_in_ == 1
    assert est.score(X, y) > 0.8
    preds2, std = est.predict(X, return_std=True)
    np.testing.assert_array_equal(preds, preds2)
    assert std.shape == (30,)
    assert np.all(std >= 0)


def test_kernel_ridge_flat_input_and_unfitted():
    with pytest.raises(RuntimeError):
        KernelRidge().predict([[0.0]])
    rng = np.random.default_rng(24)
    x = rng.uniform(0, 1, 12)
    y = x**2
    est = KernelRidge(family="laplace", alpha=0.0, bandwidth=0.4).fit(x, y)
    # alpha = 0 interpolates, so R^2 is 1 and the posterior width is 0.
    assert est.score(x, y) == pytest.approx(1.0, abs=1e-9)
    _, std = est.predict(x, return_std=True)
    np.testing.assert_array_equal(std, np.zeros(12))


def test_kernel_ridge_matches_functional_api():
    rng = np.random.default_rng(25)
    X = rng.uniform(0, 1, (15, 1))
    y = np.cos(X[:, 0])
    est = KernelRidge(family="gaussian", bandwidth=0.5, alpha=0.3).fit(X, y)
    fhat = fit_ridge(KernelSpec("gaussian", 0.5, 1), Dataset(X, y), 0.3)
    grid = np.linspace(0, 1, 11).reshape(-1, 1)
    np.testing.assert_allclose(est.predict(grid), evaluate_batch(fhat, grid), atol=1e-12)
