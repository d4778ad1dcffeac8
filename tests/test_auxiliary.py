"""Auxiliary estimator: weights, residual identities, the bridge
quadratic form, and the closed-form risk."""

import numpy as np
import pytest

import rkhsreg.experiments as exp
from rkhsreg.auxiliary import (
    AuxiliaryFit,
    auxiliary_residuals,
    bridge_distance_sq,
    fit_auxiliary,
    theoretical_tilde_risk,
)
from rkhsreg.estimator import (
    Dataset,
    KernelExpansion,
    evaluate_batch,
    fit_ridge,
    rkhs_dist_sq,
    rkhs_norm_sq,
)
from rkhsreg.experiments import canonical_scenario, continuous_solution, flambda_values, sample_dataset
from rkhsreg.fredholm import DesignMeasure, GridOperator, build_grid, solve_coefficient
from rkhsreg.fredholm import flambda_expansion
from rkhsreg.kernels import KernelSpec, gram

GAUSS = KernelSpec("gaussian", 0.25, 1)
LAM = 0.2
SCENARIO = canonical_scenario()


def _flam():
    return flambda_expansion(continuous_solution(SCENARIO, LAM))


def test_data_on_flambda_gives_zero_tilde():
    flam = _flam()
    xs = np.linspace(0.1, 0.9, 9).reshape(-1, 1)
    data = Dataset(xs, evaluate_batch(flam, xs))
    aux = fit_auxiliary(data, flam, LAM)
    np.testing.assert_array_equal(aux.tilde_w, np.zeros(9))
    assert rkhs_norm_sq(aux.tilde) == 0.0


def test_single_point_closed_form():
    flam = KernelExpansion(GAUSS, [[0.3]], [0.4])
    data = Dataset(np.array([[0.0]]), np.array([2.0]))
    aux = fit_auxiliary(data, flam, 0.5)
    fl0 = evaluate_batch(flam, 0.0)[0]
    w_expected = (2.0 - fl0) / 0.5
    assert aux.tilde_w[0] == pytest.approx(w_expected, abs=1e-12)
    # r = f - lam w - K w / n with K = [[1]], n = 1
    assert aux.residuals[0] == pytest.approx(2.0 - 0.5 * w_expected - w_expected, abs=1e-12)
    assert evaluate_batch(aux.tilde, 0.0)[0] == pytest.approx(w_expected, abs=1e-12)


def test_tilde_weights_match_manual_formula_bitwise():
    flam = _flam()
    data = sample_dataset(SCENARIO, 20, 0)
    aux = fit_auxiliary(data, flam, LAM)
    manual = (data.fs - evaluate_batch(flam, data.xs)) / LAM
    np.testing.assert_array_equal(aux.tilde_w, manual)


def test_residuals_equal_smoothing_gap():
    # The lemma r = f_lambda(X) - K w~ / n, against each K assembled in
    # full: for one fit, and for the stacked call of a replication chunk
    # (26 datasets at n = 50, each K its upper triangle, as _run_chunk
    # makes it).
    flam = _flam()
    data = sample_dataset(SCENARIO, 25, 1)
    aux = fit_auxiliary(data, flam, LAM)
    one = (data.xs, evaluate_batch(flam, data.xs), aux.tilde_w, aux.residuals)
    dctx, lctx = exp._design_context(SCENARIO), exp._lambda_context(SCENARIO, LAM)
    (xs, fs), at_xs = exp._sample_at_nodes(SCENARIO, dctx, 50, range(26), LAM, lctx.node_coeffs)
    fl = at_xs[..., 1]
    tilde_w, _, residuals = auxiliary_residuals(fs, fl, gram(GAUSS, xs, upper=True), LAM)
    chunk = (xs, fl, tilde_w, residuals)
    for points, fl_at_xs, w, r in (one, chunk):
        K = gram(GAUSS, points)
        expected = fl_at_xs - (K @ w[..., None])[..., 0] / points.shape[-2]
        np.testing.assert_allclose(r, expected, atol=1e-10)


def test_fit_auxiliary_validation():
    flam = _flam()
    data = sample_dataset(SCENARIO, 5, 2)
    with pytest.raises(ValueError):
        fit_auxiliary(data, flam, 0.0)


def test_bridge_identity_against_direct_distance():
    # The residual quadratic form reproduces ||fhat - ftilde||_k^2
    # computed from the merged expansions, replication after replication.
    flam = _flam()
    for index in range(50):
        data = sample_dataset(SCENARIO, 25, index, lambda_key=LAM)
        fhat = fit_ridge(GAUSS, data, LAM)
        aux = fit_auxiliary(data, flam, LAM)
        direct = rkhs_dist_sq(fhat, aux.tilde)
        bridge = bridge_distance_sq(aux)
        assert abs(bridge - direct) <= 1e-8 * (1.0 + direct)


def test_bridge_bounded_by_residual_quarter_lambda():
    # ||fhat - ftilde||_k^2 <= r'r / (4 lam n): the sandwich eigenvalue
    # bound applied to the bridge form.
    flam = _flam()
    for index in range(25):
        data = sample_dataset(SCENARIO, 30, index, lambda_key=LAM)
        aux = fit_auxiliary(data, flam, LAM)
        bridge = bridge_distance_sq(aux)
        rhs = float(aux.residuals @ aux.residuals) / (4.0 * LAM * data.n)
        assert bridge <= rhs * (1 + 1e-9) + 1e-12


def test_theory_noise_only_closed_form():
    # Zero target: E ||ftilde - f_lambda||_k^2 = sigma^2 / (lam^2 n)
    # for any kernel with k(x, x) = 1.
    grid = build_grid(DesignMeasure.uniform(0.0, 1.0), 32)
    sol = solve_coefficient(GridOperator(KernelSpec("constant", dim=1), grid), np.zeros(32), 0.5)
    sigma_sq = 0.04
    for n in (1, 10, 400):
        risk = theoretical_tilde_risk(sol, np.full(32, sigma_sq), n)
        assert risk == pytest.approx(sigma_sq / (0.5**2 * n), rel=1e-12)


@pytest.mark.parametrize("mu", [0.7, -1.3])
@pytest.mark.parametrize("lam", [0.05, 0.5])
def test_theory_constant_kernel_nonzero_target(mu, lam):
    # k = 1 and the constant target mu give f_lambda = mu/(1 + lam). The
    # bias integral mu^2 lam^2/(1 + lam)^2 over lam^2 n is cancelled
    # exactly by -||f_lambda||^2/n, leaving sigma^2/(lam^2 n); a risk
    # formula without that term is off by mu^2/((1 + lam)^2 n).
    m = 32
    grid = build_grid(DesignMeasure.uniform(0.0, 1.0), m)
    sol = solve_coefficient(GridOperator(KernelSpec("constant", dim=1), grid), np.full(m, mu), lam)
    sigma_sq = 0.04
    assert sol.flambda_norm_sq == pytest.approx((mu / (1.0 + lam)) ** 2, rel=1e-12)
    for n in (1, 10, 400):
        risk = theoretical_tilde_risk(sol, np.full(m, sigma_sq), n)
        expected = sigma_sq / (lam**2 * n)
        assert risk == pytest.approx(expected, rel=1e-12)
        without_norm_term = risk + sol.flambda_norm_sq / n
        assert abs(without_norm_term - expected) > 0.02 * expected


def test_theory_linearity_in_conditional_variance():
    sol = continuous_solution(SCENARIO, LAM)
    m = sol.grid.m
    c1 = np.full(m, 0.04)
    c2 = 0.04 + 0.01 * np.sin(sol.grid.nodes[:, 0])
    n = 50
    v1 = theoretical_tilde_risk(sol, c1, n)
    v2 = theoretical_tilde_risk(sol, c2, n)
    kdiag = np.ones(m)
    expected_gap = float(sol.grid.weights @ ((c1 - c2) * kdiag)) / (LAM**2 * n)
    assert v1 - v2 == pytest.approx(expected_gap, abs=1e-14)


def test_theory_scales_as_one_over_n():
    sol = continuous_solution(SCENARIO, LAM)
    condvar = np.full(sol.grid.m, 0.04)
    v50 = theoretical_tilde_risk(sol, condvar, 50)
    v100 = theoretical_tilde_risk(sol, condvar, 100)
    assert 50 * v50 == pytest.approx(100 * v100, rel=1e-12)


def test_pointwise_unbiasedness_quick():
    # E ftilde(x) = f_lambda(x): Monte Carlo mean at a probe point within
    # four standard errors (deterministic given the scenario seed).
    flam = _flam()
    probe = 0.3
    R, n = 600, 30
    values = np.empty(R)
    for index in range(R):
        data = sample_dataset(SCENARIO, n, index, lambda_key=LAM)
        aux = fit_auxiliary(data, flam, LAM)
        values[index] = evaluate_batch(aux.tilde, probe)[0]
    target = float(flambda_values(SCENARIO, LAM, [probe])[0])
    se = float(values.std(ddof=1) / np.sqrt(R))
    assert abs(values.mean() - target) <= 4.0 * se


def test_empirical_risk_halves_when_n_doubles():
    from rkhsreg.experiments import monte_carlo

    agg30 = monte_carlo(SCENARIO, 30, LAM, 2000)
    agg60 = monte_carlo(SCENARIO, 60, LAM, 2000)
    ratio = agg30.means["dist_tilde_flambda_sq"] / agg60.means["dist_tilde_flambda_sq"]
    assert 1.7 <= ratio <= 2.35


def test_theory_validation():
    sol = continuous_solution(SCENARIO, LAM)
    with pytest.raises(ValueError):
        theoretical_tilde_risk(sol, np.full(sol.grid.m, 0.04), 0)
    with pytest.raises(ValueError):
        theoretical_tilde_risk(sol, np.full(3, 0.04), 10)


def test_auxiliary_fit_arrays_frozen():
    flam = _flam()
    data = sample_dataset(SCENARIO, 6, 4)
    aux = fit_auxiliary(data, flam, LAM)
    assert isinstance(aux, AuxiliaryFit)
    with pytest.raises(ValueError):
        aux.tilde_w[0] = 1.0
