"""Seeded-fault matrix: plant a plausible wiring fault, see which detector fires.

Each case plants one fault by monkeypatch and runs `rkhsreg run` on the
canonical scenario (Gaussian kernel h = 0.25 on Uniform[0, 1],
w0 = sin 2 pi x, homoscedastic noise) at n = 50, lam = 0.2 and R = 400;
a fault in the per-axis factors of the grid operator runs the same
kernel on a 2-d box instead (BOX_2D), and a fault in the Gram-free
data side runs n = 200, where each replication runs alone on the
Woodbury rung with no Gram. A runtime detector is a broken
invariant: the run stops with exit 3 and names it on stderr. A statistical detector lets the run finish and
moves the auxiliary risk's z statistic, (mean - theory) / stderr of
dist_tilde_flambda_sq, beyond Z_LIMIT. test_no_detector_fires_without_a_fault
runs the same configurations unplanted. Every draw is keyed by the
package seed scheme, so each z below is a fixed number.
"""

import dataclasses
import json
import types

import numpy as np
import pytest

import rkhsreg.experiments as exp
import rkhsreg.linalg as linalg
from rkhsreg.cli import main

Z_LIMIT = 4.0
R = 400
SIGMA = 0.2
# At SIGMA the missing -||f_lambda||^2/n term of the tilde-risk theory is
# 1.4 standard errors at R = 400; lower noise makes it the larger part.
LOW_SIGMA = 0.02


@pytest.fixture(autouse=True)
def _fresh_contexts():
    # The design and lambda contexts are cached per scenario: a planted
    # fault must neither reuse nor leave behind a context of another case.
    caches = (exp._design_context, exp._lambda_context)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


# The canonical kernel on a 2-d box with unequal sides, 16 nodes per axis.
BOX_2D = {
    "kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 2},
    "design": {"kind": "uniform", "low": [0.0, 0.0], "high": [1.0, 2.0]},
}


def _run(tmp_path, sigma, scenario=(), ns=(50,)):
    """Runs the canonical configuration at noise sigma and sample sizes ns,
    with the scenario fields in scenario replaced; returns (exit code,
    results)."""
    out_dir = tmp_path / "out"
    cfg = {
        "scenario": {
            "kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 1},
            "design": {"kind": "uniform", "low": 0.0, "high": 1.0},
            "w0": "sin2pi",
            "noise": {"kind": "homoscedastic", "sigma": sigma},
            "grid_m": 256,
            "base_seed": 20260815,
            **dict(scenario),
        },
        "ns": list(ns),
        "lambda_rule": {"kind": "fixed", "value": 0.2},
        "R": R,
        "outputs": str(out_dir),
        "emit_plots": False,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", str(path)])
    results = out_dir / "results.json"
    return code, json.loads(results.read_text())["results"] if results.exists() else None


def _tilde_risk_z(results):
    (agg,) = results
    mean = agg["means"]["dist_tilde_flambda_sq"]
    return (mean - agg["theoretical_tilde_risk"]) / agg["stderrs"]["dist_tilde_flambda_sq"]


def _wider_kernel(spec):
    return dataclasses.replace(spec, bandwidth=1.1 * spec.bandwidth)


def _data_gram_bandwidth(monkeypatch):
    orig = exp.gram
    monkeypatch.setattr(
        exp, "gram", lambda spec, xs, **kwargs: orig(_wider_kernel(spec), xs, **kwargs)
    )


def _grid_operator_bandwidth(monkeypatch):
    orig = exp.GridOperator
    monkeypatch.setattr(exp, "GridOperator", lambda kernel, grid: orig(_wider_kernel(kernel), grid))


def _grid_factors_reversed(monkeypatch):
    # The per-axis factors of a product-grid operator in reversed order,
    # G_2 kron G_1 in place of G_1 kron G_2: on a box with unequal sides
    # every product with G puts the second axis's kernel on the first.
    orig = exp.GridOperator

    def reversed_factors(kernel, grid):
        op = orig(kernel, grid)
        object.__setattr__(op, "factors", op.factors[::-1])
        return op

    monkeypatch.setattr(exp, "GridOperator", reversed_factors)


def _ridge_factor_at_twice_lam(monkeypatch):
    orig = exp._ridge_factor
    monkeypatch.setattr(
        exp, "_ridge_factor", lambda K, lam, low_rank=None: orig(K, 2.0 * lam, low_rank)
    )


def _f0_at_data_scaled(monkeypatch):
    # The replication's f0(X) (first column) is 5% high; the noisy
    # responses were drawn from the true values.
    orig = exp._sample_at_nodes

    def scaled(*args):
        data, values = orig(*args)
        return data, values * np.array([1.05, 1.0])

    monkeypatch.setattr(exp, "_sample_at_nodes", scaled)


def _data_nan(column):
    """A plant that puts one NaN into the first dataset of each chunk: into
    its responses f (column None), f0(X) (column 0) or f_lambda(X)
    (column 1).

    A NaN in f or f_lambda(X) fails the member's solve; f0(X) is not
    read by the solve, so a quadratic form turns NaN first. Either way
    the NaN, not a numerical failure, is what stops the run.
    """

    def plant(monkeypatch):
        orig = exp._sample_at_nodes

        def with_nan(*args):
            (xs, fs), values = orig(*args)
            (fs[0] if column is None else values[0, :, column])[0] = np.nan
            return (xs, fs), values

        monkeypatch.setattr(exp, "_sample_at_nodes", with_nan)

    return plant


def _data_gram_nan(monkeypatch):
    # One NaN in the upper triangle of the first data Gram of each chunk.
    orig = exp.gram

    def with_nan(spec, xs, **kwargs):
        K = orig(spec, xs, **kwargs)
        K.reshape(-1, *K.shape[-2:])[0, 0, 1] = np.nan
        return K

    monkeypatch.setattr(exp, "gram", with_nan)


def _gram_free_product_nan(monkeypatch):
    # One NaN in every product K V that a Gram-free data operator forms
    # (a replication run alone at n >= 182): each solve of its member
    # fails, and the non-finite scan reads the products in place of a Gram.
    orig = linalg.MatrixFreeOperator.product

    def with_nan(self, Vt):
        KV = orig(self, Vt)
        KV[..., 0] = np.nan
        return KV

    monkeypatch.setattr(linalg.MatrixFreeOperator, "product", with_nan)


def _flambda_on_sup_grid_nan(monkeypatch):
    # One NaN in f_lambda on the sup-norm grid: every fit passes its
    # solve and its inputs are finite, so only the sup-norm bound sees it.
    orig = exp._lambda_context

    def with_nan(scenario, lam):
        ctx = orig(scenario, lam)
        flam_eval = ctx.flam_eval.copy()
        flam_eval[0] = np.nan
        return dataclasses.replace(ctx, flam_eval=flam_eval)

    monkeypatch.setattr(exp, "_lambda_context", with_nan)


def _grid_spectrum_scaled(monkeypatch):
    # The grid operator's spectrum nu 1% high: the spectral solve then
    # solves another system than the operator G W that checks it.
    orig = exp.GridOperator

    def scaled_spectrum(kernel, grid):
        op = orig(kernel, grid)
        nu, Vs = op.spectrum
        object.__setattr__(op, "spectrum", (1.01 * nu, Vs))
        return op

    monkeypatch.setattr(exp, "GridOperator", scaled_spectrum)


def _fredholm_right_hand_side_scaled(monkeypatch):
    orig = exp.f0_in_range

    def scaled(op, w0_values):
        f0, c0 = orig(op, w0_values)
        return 1.001 * f0, c0

    monkeypatch.setattr(exp, "f0_in_range", scaled)


def _grid_solve_right_hand_side_scaled(monkeypatch):
    # The grid solve handed 1.001 * f0: it solves that system exactly,
    # so only the comparison with the design context's f0 can see it.
    orig = exp.solve_coefficient
    monkeypatch.setattr(
        exp, "solve_coefficient", lambda op, f0_values, lam: orig(op, 1.001 * f0_values, lam)
    )


def _grid_operator_negated(monkeypatch):
    # G W applied with the wrong sign: the target's squared RKHS norm
    # w0' W G W w0, the first quadratic form a run computes, is negative.
    orig = exp.GridOperator

    def negated(kernel, grid):
        op = orig(kernel, grid)
        apply = op.apply
        object.__setattr__(op, "apply", lambda v: -apply(v))
        return op

    monkeypatch.setattr(exp, "GridOperator", negated)


def _solutions_shifted(column, c):
    """A plant that adds c times solution column `column`, and its product
    with K, to both columns [a | u] of every ridge solve.

    u and a - t shift by the same vector, so the residual bridge holds
    and only the ball or residual bound can see the corrupted fit.
    """

    def plant(monkeypatch):
        orig = exp._ridge_factor

        def shifted(K, lam, low_rank=None):
            factor = orig(K, lam, low_rank)

            def solve_with_product(B):
                X, KX, errors = factor.solve_with_product(B)
                return X + c * X[..., [column]], KX + c * KX[..., [column]], errors

            return types.SimpleNamespace(solve_with_product=solve_with_product)

        monkeypatch.setattr(exp, "_ridge_factor", shifted)

    return plant


def _auxiliary_fit_at_twice_lam(monkeypatch):
    # The replications' auxiliary weights and residuals, which
    # auxiliary_residuals forms for a whole chunk at once.
    orig = exp.auxiliary_residuals
    monkeypatch.setattr(
        exp, "auxiliary_residuals", lambda fs, fl, K, lam: orig(fs, fl, K, 2.0 * lam)
    )


def _flambda_at_larger_lam(monkeypatch):
    # Every experiments-level caller of the lambda context gets f_lambda
    # solved at 1.1 * lam.
    orig = exp._lambda_context
    monkeypatch.setattr(exp, "_lambda_context", lambda scenario, lam: orig(scenario, 1.1 * lam))


class _WideNoise:
    """A generator whose standard normal draws have scale 1.5.

    The noise is drawn in place with standard_normal(out=...) and then
    scaled by the model's sigma, so the draws come out 1.5 times wider.
    """

    def __init__(self, rng):
        self.rng = rng

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        draws = self.rng.standard_normal(*args, **kwargs)
        draws *= 1.5
        return draws


def _noise_scaled(monkeypatch):
    # The draws are noisier than the model the theory reads sigma from.
    orig = exp._rng_for
    monkeypatch.setattr(exp, "_rng_for", lambda *key: _WideNoise(orig(*key)))


def _theory_without_norm_term(monkeypatch):
    orig = exp.theoretical_tilde_risk
    monkeypatch.setattr(
        exp,
        "theoretical_tilde_risk",
        lambda sol, condvar, n: orig(sol, condvar, n) + sol.flambda_norm_sq / n,
    )


@pytest.mark.parametrize(
    "plant, message, run_args",
    [
        # Replication 0 breaks the sup-norm certificate before any
        # quadratic form turns negative.
        (_data_gram_bandwidth, "sup-norm bound violated at n=50, replication 0", {}),
        (_grid_operator_bandwidth, "Fredholm right-hand side is off the target f0", {}),
        # Caught by comparing the Kronecker product G W w0 with the
        # target expansion summed by the 2-d kernel itself.
        (
            _grid_factors_reversed,
            "Fredholm right-hand side is off the target f0",
            {"scenario": BOX_2D},
        ),
        (_ridge_factor_at_twice_lam, "residual bridge identity violated", {}),
        (
            _f0_at_data_scaled,
            "quadratic form is negative beyond roundoff tolerance at n=50, replication 13",
            {},
        ),
        (_data_nan(1), "non-finite f_lambda(X) at n=50, replication 0:", {}),
        (_flambda_on_sup_grid_nan, "sup-norm bound violated at n=50, replication 0", {}),
        (_grid_spectrum_scaled, "discretization inconsistency", {}),
        (_fredholm_right_hand_side_scaled, "Fredholm right-hand side is off the target f0", {}),
        (_auxiliary_fit_at_twice_lam, "residual bridge identity violated", {}),
        (
            _flambda_at_larger_lam,
            "f_lambda was solved at lam=0.22000000000000003, not at lam=0.2",
            {},
        ),
        (_data_nan(None), "non-finite f at n=50, replication 0:", {}),
        (_data_nan(0), "non-finite f0(X) at n=50, replication 0:", {}),
        (_data_gram_nan, "non-finite data Gram at n=50, replication 0:", {}),
        (_gram_free_product_nan, "non-finite data Gram at n=200, replication 0:", {"ns": [200]}),
        (
            _grid_solve_right_hand_side_scaled,
            "the grid solution at lam=0.2 solved a different right-hand side",
            {},
        ),
        (_grid_operator_negated, "quadratic form is negative beyond roundoff tolerance: -0.131", {}),
        (_solutions_shifted(0, 10.0), "ball bound violated at n=50, replication 0", {}),
        (_solutions_shifted(1, 1.0), "residual bound violated at n=50, replication 0", {}),
    ],
    ids=[
        "data-gram-bandwidth-x1.1",
        "grid-operator-bandwidth-x1.1",
        "grid-factors-reversed-2d",
        "ridge-factor-at-2lam",
        "f0-at-data-x1.05",
        "flambda-at-data-nan",
        "flambda-on-sup-grid-nan",
        "grid-spectrum-x1.01",
        "fredholm-rhs-x1.001",
        "auxiliary-fit-at-2lam",
        "flambda-at-1.1lam",
        "responses-nan",
        "f0-at-data-nan",
        "data-gram-nan",
        "gram-free-product-nan",
        "grid-solve-rhs-x1.001",
        "grid-operator-negated",
        "ridge-weights-x11",
        "bridge-vector-x2",
    ],
)
def test_runtime_detector_stops_the_run(tmp_path, monkeypatch, capsys, plant, message, run_args):
    plant(monkeypatch)
    code, results = _run(tmp_path, SIGMA, **run_args)
    err = capsys.readouterr().err
    assert code == 3
    assert f"invariant broken: {message}" in err
    assert "Traceback" not in err
    assert results is None


@pytest.mark.parametrize(
    "plant, sigma, z_sign",
    [(_noise_scaled, SIGMA, 1.0), (_theory_without_norm_term, LOW_SIGMA, -1.0)],
    ids=["noise-x1.5", "tilde-risk-theory-without-norm-term"],
)
def test_statistical_detector_flags_the_tilde_risk(tmp_path, monkeypatch, plant, sigma, z_sign):
    # No invariant sees these faults: the run completes, and only the
    # Monte Carlo comparison with the closed-form risk can.
    plant(monkeypatch)
    code, results = _run(tmp_path, sigma)
    assert code == 0
    assert z_sign * _tilde_risk_z(results) > Z_LIMIT


@pytest.mark.parametrize("sigma", [SIGMA, LOW_SIGMA])
def test_no_detector_fires_without_a_fault(tmp_path, capsys, sigma):
    code, results = _run(tmp_path, sigma)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert abs(_tilde_risk_z(results)) <= Z_LIMIT
