"""End-to-end acceptance suite.

Each test checks one verification target at its stated tolerance and
prints a single pass line (visible with pytest -s); the pytest verdict
itself is the pass/fail record. Every randomized check is keyed by the
package seed scheme, so the whole file is deterministic.
"""

import numpy as np
import pytest

from rkhsreg.auxiliary import bridge_distance_sq, fit_auxiliary
from rkhsreg.estimator import (
    Dataset,
    evaluate_batch,
    fit_ridge,
    gp_posterior_band,
    rkhs_dist_sq,
)
from rkhsreg.experiments import (
    ScenarioSpec,
    canonical_scenario,
    continuous_solution,
    flambda_values,
    monotonicity_check,
    monte_carlo,
    rate_fit,
    rate_scenario,
    sample_dataset,
)
from rkhsreg.fredholm import (
    DesignMeasure,
    GridOperator,
    bias_norm_sq,
    build_grid,
    f0_in_range,
    flambda_expansion,
    solve_coefficient,
)
from rkhsreg.kernels import KernelSpec, gram
from rkhsreg.linalg import loewner_leq, sandwich, sym_eig

CANON = canonical_scenario()
GAUSS = CANON.kernel


def test_acceptance_01_sandwich_bound_randomized_suite():
    # 1000 random PSD matrices (dim <= 20) x 4 lambdas: the resolvent
    # sandwich never exceeds 1/(4 lam) in the Loewner order beyond 1e-8
    # relative tolerance, and the scalar equality case is exact to 1e-12.
    rng = np.random.default_rng(20260815)
    lambdas = (1e-3, 1e-1, 1.0, 10.0)
    violations = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 21))
        eigs = rng.uniform(0.0, 100.0, dim)
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        K = (Q * eigs) @ Q.T
        K = 0.5 * (K + K.T)
        for lam in lambdas:
            if not loewner_leq(sandwich(K, lam), np.eye(dim) / (4.0 * lam), 1e-8):
                violations += 1
    assert violations == 0
    scalar_margin = max(
        abs(float(sandwich(np.array([[lam]]), lam)[0, 0]) - 1.0 / (4.0 * lam))
        for lam in lambdas
    )
    assert scalar_margin <= 1e-12
    print(
        "\n[PASS] criterion 01: sandwich bound, 1000 matrices x 4 lambdas, "
        f"0 violations, scalar margin {scalar_margin:.2e}"
    )


def test_acceptance_02_bridge_identity_200_replications():
    # The residual quadratic form equals the directly computed
    # ||fhat - ftilde||_k^2 to 1e-8 relative on 200 replications.
    lam = 0.2
    flam = flambda_expansion(continuous_solution(CANON, lam))
    worst = 0.0
    for index in range(200):
        data = sample_dataset(CANON, 40, index, lambda_key=lam)
        fhat = fit_ridge(GAUSS, data, lam)
        aux = fit_auxiliary(data, flam, lam)
        direct = rkhs_dist_sq(fhat, aux.tilde)
        bridge = bridge_distance_sq(aux)
        rel = abs(bridge - direct) / (1.0 + direct)
        worst = max(worst, rel)
        assert rel <= 1e-8
    print(f"\n[PASS] criterion 02: bridge identity, 200 replications, worst {worst:.2e}")


def test_acceptance_03_auxiliary_risk_matches_theory():
    # Canonical scenario, n in {50, 200}, R = 2000: the Monte Carlo mean
    # of ||ftilde - f_lambda||_k^2 lies within 3 SE of the closed form.
    lam = 0.2
    lines = []
    for n in (50, 200):
        agg = monte_carlo(CANON, n, lam, 2000)
        mean = agg.means["dist_tilde_flambda_sq"]
        se = agg.stderrs["dist_tilde_flambda_sq"]
        z = (mean - agg.theoretical_tilde_risk) / se
        assert abs(z) <= 3.0
        lines.append(f"n={n} z={z:+.2f}")
    print(f"\n[PASS] criterion 03: auxiliary risk vs theory, {', '.join(lines)}")


def test_acceptance_03_auxiliary_risk_matches_theory_on_the_cube():
    # The closed form does not depend on d given k(x, x) = 1: Gaussian
    # h=0.25 on the unit cube, 8 nodes per axis, n = 50, R = 1000.
    scen = ScenarioSpec(KernelSpec("gaussian", 0.25, 3),
                        DesignMeasure.uniform((0.0,) * 3, (1.0,) * 3), grid_m=512)
    agg = monte_carlo(scen, 50, 0.2, 1000)
    mean = agg.means["dist_tilde_flambda_sq"]
    se = agg.stderrs["dist_tilde_flambda_sq"]
    z = (mean - agg.theoretical_tilde_risk) / se
    assert agg.n_failed == 0
    assert abs(z) <= 3.0
    print(f"\n[PASS] criterion 03 at d=3: auxiliary risk vs theory, n=50 z={z:+.2f}")


def test_acceptance_04_pointwise_unbiasedness():
    # At 5 probe points the R = 2000, n = 50 Monte Carlo mean of
    # ftilde(x) is within 3 SE of f_lambda(x).
    lam, n, R = 0.2, 50, 2000
    probes = np.array([0.05, 0.3, 0.55, 0.7, 0.95])
    flam = flambda_expansion(continuous_solution(CANON, lam))
    targets = flambda_values(CANON, lam, probes)
    values = np.empty((R, probes.shape[0]))
    for index in range(R):
        data = sample_dataset(CANON, n, index, lambda_key=lam)
        aux = fit_auxiliary(data, flam, lam)
        values[index] = evaluate_batch(aux.tilde, probes)
    zs = []
    for j in range(probes.shape[0]):
        se = float(values[:, j].std(ddof=1) / np.sqrt(R))
        z = (float(values[:, j].mean()) - float(targets[j])) / se
        assert abs(z) <= 3.0
        zs.append(f"{z:+.2f}")
    print(f"\n[PASS] criterion 04: unbiasedness at 5 probes, z = {', '.join(zs)}")


def test_acceptance_05_objective_monotone_toward_ceiling():
    # Mean empirical objective is nondecreasing in n within 3-SE slack
    # and never exceeds the continuous objective by more than 3 SE.
    report = monotonicity_check(CANON, 0.2, [10, 20, 40, 80, 160], R=2000)
    assert report.ok, report.violations
    means = " -> ".join(f"{mean:.5f}" for _, mean, _ in report.rows)
    print(
        f"\n[PASS] criterion 05: objective {means} "
        f"<= ceiling {report.theta_star:.5f}"
    )


def test_acceptance_06_bias_decays_linearly_in_lambda():
    # Quadrature-only check on the rank-one (constant-kernel) operator:
    # log-log slope of ||f0 - f_lambda||_k against lambda is 1.0 +/- 0.1
    # over 13 log-spaced lambdas in [1e-3, 1].
    kernel = KernelSpec("constant", dim=1)
    grid = build_grid(DesignMeasure.uniform(0.0, 1.0), 128)
    op = GridOperator(kernel, grid)
    w0 = grid.nodes[:, 0] ** 3
    f0, c0 = f0_in_range(op, w0)
    lams = np.logspace(-3, 0, 13)
    biases = []
    for lam in lams:
        sol = solve_coefficient(op, f0, lam)
        bias = float(np.sqrt(bias_norm_sq(sol, w0)))
        assert bias <= c0 * lam * (1 + 1e-9) + 1e-12
        biases.append(bias)
    slope = float(np.polyfit(np.log(lams), np.log(biases), 1)[0])
    assert 0.9 <= slope <= 1.1
    print(f"\n[PASS] criterion 06: bias rate slope {slope:.3f} in [0.9, 1.1]")


def test_acceptance_07_estimation_error_rate():
    # lam_n = n^(-1/5), ns = (20,...,320), R = 1000: the fitted log-log
    # slope of mean ||f0 - fhat||_k^2 is at most -0.3.
    scenario = rate_scenario()
    ns = [20, 40, 80, 160, 320]
    means = []
    for n in ns:
        lam = float(n) ** (-0.2)
        agg = monte_carlo(scenario, n, lam, 1000)
        assert agg.n_failed == 0
        means.append(agg.means["dist_hat_f0_sq"])
    slope, _ = rate_fit(ns, means)
    assert slope <= -0.3
    print(f"\n[PASS] criterion 07: estimation error rate slope {slope:.3f} <= -0.3")


def test_acceptance_08_per_sample_bounds_never_violated():
    # lam ||fhat||^2 <= mean f^2 and the residual bound on
    # ||fhat - ftilde||^2 hold on every replication of a fresh sweep.
    lam = 0.2
    total = 0
    for n in (20, 100):
        agg = monte_carlo(CANON, n, lam, 1500)
        assert agg.ball_violations == 0
        assert agg.residual_violations == 0
        assert agg.n_failed == 0
        total += agg.R
    print(f"\n[PASS] criterion 08: ball and residual bounds, 0 violations in {total} replications")


def test_acceptance_09_gp_equivalence_and_interpolation():
    # Posterior mean with lam_gp = n lam equals the ridge prediction to
    # 1e-9 on 100 random datasets; lam = 0 interpolates to 1e-7.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 41))
        lam = float(rng.uniform(0.05, 1.0))
        xs = rng.uniform(0, 1, (n, 1))
        fs = np.sin(2 * np.pi * xs[:, 0]) + 0.2 * rng.standard_normal(n)
        data = Dataset(xs, fs)
        fhat = fit_ridge(GAUSS, data, lam)
        x = float(rng.uniform(0, 1))
        mean, _ = gp_posterior_band(GAUSS, data, n * lam, x)
        gap = abs(mean[0] - evaluate_batch(fhat, x)[0])
        worst = max(worst, gap)
        assert gap <= 1e-9
    xs = np.linspace(0, 1, 8).reshape(-1, 1)
    fs = np.cos(3 * xs[:, 0])
    for spec in (KernelSpec("laplace", 0.7, 1), KernelSpec("gaussian", 0.3, 1)):
        fhat = fit_ridge(spec, Dataset(xs, fs), 0.0)
        interp_gap = float(np.max(np.abs(evaluate_batch(fhat, xs) - fs)))
        assert interp_gap <= 1e-7
    print(f"\n[PASS] criterion 09: GP equivalence worst gap {worst:.2e}, interpolation ok")


def test_acceptance_10_rank_one_fredholm_oracle():
    # Constant kernel: w = f0 / (lam + 1) to 1e-10, and the node identity
    # f0 - f_lambda = lam w is satisfied to 1e-9 on every solve.
    kernel = KernelSpec("constant", dim=1)
    grid = build_grid(DesignMeasure.uniform(0.0, 1.0), 64)
    op = GridOperator(kernel, grid)
    worst = 0.0
    for lam in (1e-3, 0.1, 1.0, 10.0):
        for c in (1.0, -2.0, 0.5):
            f0 = np.full(grid.m, c)
            sol = solve_coefficient(op, f0, lam)
            gap = float(np.max(np.abs(sol.w_values - c / (lam + 1.0))))
            worst = max(worst, gap)
            assert gap <= 1e-10
            assert sol.residual_max <= 1e-9
    print(f"\n[PASS] criterion 10: rank-one Fredholm oracle, worst gap {worst:.2e}")
