"""Auxiliary estimator: weights, residual identities, the bridge
quadratic form, and the closed-form risk."""

import numpy as np
import pytest

from rkhsreg.auxiliary import (
    AuxiliaryFit,
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
from rkhsreg.fredholm import DesignMeasure, build_grid, solve_coefficient
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
    aux = fit_auxiliary(GAUSS, data, flam, LAM)
    np.testing.assert_array_equal(aux.tilde_w, np.zeros(9))
    assert rkhs_norm_sq(aux.tilde) == 0.0


def test_single_point_closed_form():
    flam = KernelExpansion(GAUSS, [[0.3]], [0.4])
    data = Dataset(np.array([[0.0]]), np.array([2.0]))
    aux = fit_auxiliary(GAUSS, data, flam, 0.5)
    fl0 = evaluate_batch(flam, 0.0)[0]
    w_expected = (2.0 - fl0) / 0.5
    assert aux.tilde_w[0] == pytest.approx(w_expected, abs=1e-12)
    # r = f - lam w - K w / n with K = [[1]], n = 1
    assert aux.residuals[0] == pytest.approx(2.0 - 0.5 * w_expected - w_expected, abs=1e-12)
    assert evaluate_batch(aux.tilde, 0.0)[0] == pytest.approx(w_expected, abs=1e-12)


def test_tilde_weights_match_manual_formula_bitwise():
    flam = _flam()
    data = sample_dataset(SCENARIO, 20, 0)
    aux = fit_auxiliary(GAUSS, data, flam, LAM)
    manual = (data.fs - evaluate_batch(flam, data.xs)) / LAM
    np.testing.assert_array_equal(aux.tilde_w, manual)


def test_residuals_equal_smoothing_gap():
    flam = _flam()
    data = sample_dataset(SCENARIO, 25, 1)
    aux = fit_auxiliary(GAUSS, data, flam, LAM)
    K = gram(GAUSS, data.xs)
    expected = evaluate_batch(flam, data.xs) - (K @ aux.tilde_w) / data.n
    np.testing.assert_allclose(aux.residuals, expected, atol=1e-10)


def test_fit_auxiliary_validation():
    flam = _flam()
    data = sample_dataset(SCENARIO, 5, 2)
    with pytest.raises(ValueError):
        fit_auxiliary(GAUSS, data, flam, 0.0)
    with pytest.raises(ValueError):
        fit_auxiliary(KernelSpec("laplace", 0.25, 1), data, flam, LAM)


def test_bridge_identity_against_direct_distance():
    # The residual quadratic form reproduces ||fhat - ftilde||_k^2
    # computed from the merged expansions, replication after replication.
    flam = _flam()
    for index in range(50):
        data = sample_dataset(SCENARIO, 25, index, lambda_key=LAM)
        fhat = fit_ridge(GAUSS, data, LAM)
        aux = fit_auxiliary(GAUSS, data, flam, LAM)
        direct = rkhs_dist_sq(fhat, aux.tilde)
        bridge = bridge_distance_sq(aux, GAUSS)
        assert abs(bridge - direct) <= 1e-8 * (1.0 + direct)


def test_bridge_bounded_by_residual_quarter_lambda():
    # ||fhat - ftilde||_k^2 <= r'r / (4 lam n): the sandwich eigenvalue
    # bound applied to the bridge form.
    flam = _flam()
    for index in range(25):
        data = sample_dataset(SCENARIO, 30, index, lambda_key=LAM)
        aux = fit_auxiliary(GAUSS, data, flam, LAM)
        bridge = bridge_distance_sq(aux, GAUSS)
        rhs = float(aux.residuals @ aux.residuals) / (4.0 * LAM * data.n)
        assert bridge <= rhs * (1 + 1e-9) + 1e-12


def test_bridge_kernel_mismatch_raises():
    flam = _flam()
    data = sample_dataset(SCENARIO, 5, 3)
    aux = fit_auxiliary(GAUSS, data, flam, LAM)
    with pytest.raises(ValueError):
        bridge_distance_sq(aux, KernelSpec("laplace", 0.25, 1))


def test_theory_noise_only_closed_form():
    # Zero target: E ||ftilde - f_lambda||_k^2 = sigma^2 / (lam^2 n)
    # for any kernel with k(x, x) = 1.
    grid = build_grid(DesignMeasure.uniform(0.0, 1.0), 32)
    sol = solve_coefficient(KernelSpec("constant", dim=1), grid, np.zeros(32), 0.5)
    sigma_sq = 0.04
    for n in (1, 10, 400):
        risk = theoretical_tilde_risk(
            KernelSpec("constant", dim=1), sol, np.full(32, sigma_sq), n
        )
        assert risk.value == pytest.approx(sigma_sq / (0.5**2 * n), rel=1e-12)
        assert risk.c1 == pytest.approx(0.5**2 * n * risk.value, rel=1e-12)


def test_theory_linearity_in_conditional_variance():
    sol = continuous_solution(SCENARIO, LAM)
    m = sol.grid.m
    c1 = np.full(m, 0.04)
    c2 = 0.04 + 0.01 * np.sin(sol.grid.nodes[:, 0])
    n = 50
    v1 = theoretical_tilde_risk(GAUSS, sol, c1, n).value
    v2 = theoretical_tilde_risk(GAUSS, sol, c2, n).value
    kdiag = np.ones(m)
    expected_gap = float(sol.grid.weights @ ((c1 - c2) * kdiag)) / (LAM**2 * n)
    assert v1 - v2 == pytest.approx(expected_gap, abs=1e-14)


def test_theory_scales_as_one_over_n():
    sol = continuous_solution(SCENARIO, LAM)
    condvar = np.full(sol.grid.m, 0.04)
    v50 = theoretical_tilde_risk(GAUSS, sol, condvar, 50)
    v100 = theoretical_tilde_risk(GAUSS, sol, condvar, 100)
    assert 50 * v50.value == pytest.approx(100 * v100.value, rel=1e-12)
    assert v50.c1 == pytest.approx(v100.c1, rel=1e-12)


def test_pointwise_unbiasedness_quick():
    # E ftilde(x) = f_lambda(x): Monte Carlo mean at a probe point within
    # four standard errors (deterministic given the scenario seed).
    flam = _flam()
    probe = 0.3
    R, n = 600, 30
    values = np.empty(R)
    for index in range(R):
        data = sample_dataset(SCENARIO, n, index, lambda_key=LAM)
        aux = fit_auxiliary(GAUSS, data, flam, LAM)
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
        theoretical_tilde_risk(GAUSS, sol, np.full(sol.grid.m, 0.04), 0)
    with pytest.raises(ValueError):
        theoretical_tilde_risk(GAUSS, sol, np.full(3, 0.04), 10)


def test_auxiliary_fit_arrays_frozen():
    flam = _flam()
    data = sample_dataset(SCENARIO, 6, 4)
    aux = fit_auxiliary(GAUSS, data, flam, LAM)
    assert isinstance(aux, AuxiliaryFit)
    with pytest.raises(ValueError):
        aux.tilde_w[0] = 1.0
