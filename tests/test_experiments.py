"""Scenario sampling, seed scheme, replication metrics, Monte Carlo
aggregation, rate fitting, and the consistency checks."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

import rkhsreg.experiments as exp
import rkhsreg.kernels as kernels_mod
import rkhsreg.linalg as linalg
from rkhsreg.auxiliary import bridge_distance_sq, fit_auxiliary, theoretical_tilde_risk
from rkhsreg.cli import main, parse_config
from rkhsreg.estimator import (
    KernelExpansion,
    _data_operator,
    _ridge_factor,
    empirical_objective,
    evaluate_batch,
    fit_ridge,
    rkhs_dist_sq,
)
from rkhsreg.experiments import (
    NoiseModel,
    ScenarioSpec,
    canonical_scenario,
    continuous_solution,
    flambda_values,
    monotonicity_check,
    monte_carlo,
    rate_fit,
    rate_scenario,
    run_replication,
    sample_dataset,
    target_values,
    weak_consistency_fractions,
)
from rkhsreg.fredholm import (
    LOW_RANK_MIN_RATIO,
    DesignMeasure,
    build_grid,
    continuous_objective,
    flambda_expansion,
)
from rkhsreg.kernels import FAMILIES, KernelSpec, gram
from rkhsreg.linalg import NotPositiveDefiniteError

from reference_replication import reference_replication

CANON = canonical_scenario()


def _dirac_scenario(sigma=0.2):
    return ScenarioSpec(
        kernel=KernelSpec("gaussian", 0.25, 1),
        design=DesignMeasure.dirac(0.3),
        w0="poly3",
        noise=NoiseModel("homoscedastic", sigma),
        grid_m=8,
        base_seed=99,
    )


def test_sampling_is_deterministic():
    a = sample_dataset(CANON, 15, 7, lambda_key=0.2)
    b = sample_dataset(CANON, 15, 7, lambda_key=0.2)
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.fs, b.fs)
    c = sample_dataset(CANON, 15, 8, lambda_key=0.2)
    assert not np.array_equal(a.xs, c.xs)


def test_lambda_key_separates_streams():
    a = sample_dataset(CANON, 10, 0, lambda_key=0.2)
    b = sample_dataset(CANON, 10, 0, lambda_key=0.3)
    assert not np.array_equal(a.xs, b.xs)
    # None is keyed as 0.0 so unkeyed draws are reproducible too.
    c = sample_dataset(CANON, 10, 0)
    d = sample_dataset(CANON, 10, 0, lambda_key=0.0)
    np.testing.assert_array_equal(c.xs, d.xs)


def test_seed_scheme_is_pinned():
    # The stream is SeedSequence(base_seed, spawn_key=(n, lam bits, index));
    # changing the derivation would silently break reproducibility.
    scen = canonical_scenario(base_seed=123)
    lam_bits = int(np.float64(0.25).view(np.uint64))
    seq = np.random.SeedSequence(entropy=123, spawn_key=(17, lam_bits, 3))
    rng = np.random.default_rng(seq)
    expected_xs = rng.uniform(scen.design.low, scen.design.high, size=(17, 1))
    data = sample_dataset(scen, 17, 3, lambda_key=0.25)
    np.testing.assert_array_equal(data.xs, expected_xs)


def test_sigma_zero_yields_exact_target_values():
    scen = ScenarioSpec(
        kernel=CANON.kernel,
        design=CANON.design,
        w0="sin2pi",
        noise=NoiseModel("homoscedastic", 0.0),
        grid_m=64,
        base_seed=5,
    )
    data = sample_dataset(scen, 20, 0)
    np.testing.assert_array_equal(data.fs, target_values(scen, data.xs))


def test_dirac_and_truncated_gaussian_sampling():
    data = sample_dataset(_dirac_scenario(), 6, 0)
    np.testing.assert_array_equal(data.xs, np.full((6, 1), 0.3))
    scen = ScenarioSpec(
        kernel=CANON.kernel,
        design=DesignMeasure.truncated_gaussian(0.0, 1.0, 0.5, 0.3),
        w0="sin2pi",
        grid_m=32,
        base_seed=6,
    )
    data = sample_dataset(scen, 200, 0)
    assert np.all(data.xs >= 0.0) and np.all(data.xs <= 1.0)
    # The draws are scipy's truncnorm on the replication's own stream.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=6, spawn_key=(200, 0, 0)))
    expected = scipy.stats.truncnorm.rvs(
        -0.5 / 0.3, 0.5 / 0.3, loc=0.5, scale=0.3, size=200, random_state=rng
    )
    np.testing.assert_array_equal(data.xs[:, 0], expected)


@pytest.mark.parametrize(
    "design, noise",
    [
        (DesignMeasure.uniform(0.0, 1.0), NoiseModel("homoscedastic", 0.2)),
        (DesignMeasure.uniform((0.0, -1.0), (1.0, 2.5)), NoiseModel("homoscedastic", 0.3)),
        (DesignMeasure.uniform(0.0, 1.0), NoiseModel("heteroscedastic", 0.2, "affine")),
        (DesignMeasure.uniform(0.0, 1.0), NoiseModel("heteroscedastic", 0.2, "sine")),
    ],
    ids=["uniform-1d", "uniform-2d-unequal-sides", "affine-noise", "sine-noise"],
)
def test_draws_are_numpy_uniform_and_normal(design, noise):
    # The sampler draws low + span * random() and a scalar-scale normal
    # for homoscedastic noise; both must be the bits of numpy's
    # rng.uniform(low, high, size) and rng.normal(0, std_at(xs)).
    scen = ScenarioSpec(
        kernel=KernelSpec("gaussian", 0.25, design.dim), design=design, noise=noise, grid_m=64
    )
    n, index, lam = 37, 5, 0.2
    data = sample_dataset(scen, n, index, lambda_key=lam)
    rng = exp._rng_for(scen, n, lam, index)
    xs = rng.uniform(design.low, design.high, size=(n, design.dim))
    dctx = exp._design_context(scen)
    fs = dctx.op.at_points(xs, dctx.f0.coeffs) + rng.normal(0, noise.std_at(xs))
    np.testing.assert_array_equal(data.xs, xs)
    np.testing.assert_array_equal(data.fs, fs)


@pytest.mark.parametrize("base_seed", [0, 20260815, 2**64 - 1])
def test_seed_derivation_is_numpy_seed_sequence(base_seed):
    # _rng_for hashes the cached (base_seed, n, lambda) prefix and each
    # index's own words itself; its stream must be NumPy's for the same
    # key, including keys whose n or index spans two 32-bit words.
    scen = dataclasses.replace(CANON, base_seed=base_seed)
    for n in (1, 50, 2**33):
        for lam in (None, 0.2, 1e-9):
            lam_bits = int(np.float64(0.0 if lam is None else lam).view(np.uint64))
            for index in (0, 25, 2**32 - 1, 2**32, 2**40 + 3):
                seq = np.random.SeedSequence(base_seed, spawn_key=(n, lam_bits, index))
                got = exp._rng_for(scen, n, lam, index)
                np.testing.assert_array_equal(
                    got.bit_generator.seed_seq.generate_state(4, np.uint64),
                    seq.generate_state(4, np.uint64),
                )
                np.testing.assert_array_equal(
                    got.bit_generator.seed_seq.generate_state(3), seq.generate_state(3)
                )
                want = np.random.default_rng(seq)
                np.testing.assert_array_equal(got.random(3), want.random(3))
                np.testing.assert_array_equal(got.standard_normal(3), want.standard_normal(3))


def test_single_point_dirac_closed_forms():
    scen = _dirac_scenario()
    lam = 0.5
    f0 = 0.3**3
    metrics = run_replication(scen, 1, lam, 0)
    f = sample_dataset(scen, 1, 0, lambda_key=lam).fs[0]
    assert metrics.dist_hat_flambda_sq == pytest.approx(
        ((f - f0) / (1 + lam)) ** 2, abs=1e-12
    )
    assert metrics.theta_hat == pytest.approx(lam * f**2 / (1 + lam), abs=1e-12)


def test_run_replication_deterministic_and_bounds_hold():
    first = run_replication(CANON, 25, 0.2, 4)
    second = run_replication(CANON, 25, 0.2, 4)
    # Both deterministic bounds held: a broken one raises in run_replication.
    assert first == second
    # Pointwise gaps are certified by the RKHS distance.
    assert first.sup_gap_grid_max <= first.sup_gap_hat_flambda * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("n, lam, index", [(25, 0.2, 4), (200, 0.05, 1), (60, 1e-3, 2)])
def test_run_replication_matches_reference_paths(n, lam, index):
    # run_replication forms its metrics as quadratic forms in one shared
    # Gram K and cross-Gram C; rkhs_dist_sq and empirical_objective
    # recompute each one from the expansions alone.
    metrics = run_replication(CANON, n, lam, index)
    kernel = CANON.kernel
    data = sample_dataset(CANON, n, index, lambda_key=lam)
    fhat = fit_ridge(kernel, data, lam)
    flam = flambda_expansion(continuous_solution(CANON, lam))
    tilde = fit_auxiliary(data, flam, lam).tilde
    grid = build_grid(CANON.design, CANON.grid_m)
    f0 = KernelExpansion(kernel, grid.nodes, grid.weights * CANON.w0_at(grid.nodes))
    references = {
        "dist_hat_flambda_sq": rkhs_dist_sq(fhat, flam),
        "dist_tilde_flambda_sq": rkhs_dist_sq(tilde, flam),
        "dist_hat_tilde_sq": rkhs_dist_sq(fhat, tilde),
        "dist_hat_f0_sq": rkhs_dist_sq(fhat, f0),
        "theta_hat": empirical_objective(fhat, data, lam),
    }
    for name, reference in references.items():
        assert getattr(metrics, name) == pytest.approx(reference, rel=1e-10), name


@pytest.mark.parametrize("n, lam, index", [(25, 0.2, 4), (200, 0.05, 1), (60, 1e-3, 2)])
def test_run_replication_matches_fit_ridge_and_bridge(n, lam, index):
    # run_replication solves the ridge system for the fit and the bridge
    # in one shared factorization; fit_ridge and bridge_distance_sq each
    # build and solve it on their own.
    metrics = run_replication(CANON, n, lam, index)
    kernel = CANON.kernel
    data = sample_dataset(CANON, n, index, lambda_key=lam)
    flam = flambda_expansion(continuous_solution(CANON, lam))
    bridge = bridge_distance_sq(fit_auxiliary(data, flam, lam))
    assert metrics.dist_hat_tilde_sq == pytest.approx(bridge, rel=1e-10)
    eval_grid = CANON.design.eval_grid
    fhat_eval = evaluate_batch(fit_ridge(kernel, data, lam), eval_grid)
    grid_max = np.max(np.abs(fhat_eval - flambda_values(CANON, lam, eval_grid)))
    assert metrics.sup_gap_grid_max == pytest.approx(grid_max, rel=1e-10)


def _uniform_scenario(family, bandwidth, dim=1):
    """CANON with another kernel, on the unit interval or square (a 64-node grid at d = 2)."""
    design = DesignMeasure.uniform((0.0,) * dim, (1.0,) * dim)
    kernel, grid_m = KernelSpec(family, bandwidth, dim), 256 if dim == 1 else 64
    return dataclasses.replace(CANON, kernel=kernel, design=design, grid_m=grid_m)


# Both sides of each switch of arithmetic in a replication; the
# canonical grid has rank r = 16, and f_lambda's sup-norm axis on [0, 1]
# has F = min(23, floor(511 h^2)) offsets per anchor.
REFERENCE_CASES = {
    "taylor-at-data-h0.25": (CANON, 50),
    "assembly-at-data-h0.1": (_uniform_scenario("gaussian", 0.1), 50),
    "one-offset-axis-h0.05": (_uniform_scenario("gaussian", 0.05), 50),
    "dense-solve-n159": (CANON, 159),
    "woodbury-n160": (CANON, 160),
    "full-gram-chunk-n181": (CANON, 181),
    "upper-gram-alone-n182": (CANON, 182),
    "laplace": (_uniform_scenario("laplace", 0.25), 50),
    "rational-quadratic": (_uniform_scenario("rational_quadratic", 0.25), 50),
    "gaussian-2d": (_uniform_scenario("gaussian", 0.25, dim=2), 50),
}


def _assert_reference(got, want):
    for field in dataclasses.fields(want):
        name = field.name
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-10), name


@pytest.mark.parametrize("scenario, n", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_run_replication_matches_the_written_out_reference(scenario, n):
    # The chunk of indices _run_many makes at this n: 26 at n = 50, 2 at
    # n = 181, 1 from n = 182 on.
    chunk = range(max(1, exp.CHUNK_GRAM_ENTRIES // (n * n)))
    assert exp._design_context(CANON).op.rank * LOW_RANK_MIN_RATIO == 160
    for index, metrics in zip(chunk, run_replication(scenario, n, 0.2, chunk)):
        _assert_reference(metrics, reference_replication(scenario, n, 0.2, index))


# Designs of the drawn comparison: boxes at and off [0, 1], a graded
# and a mild truncated Gaussian, and the unit square.
DRAWN_DESIGNS = {
    "unit-interval": DesignMeasure.uniform(0.0, 1.0),
    "shifted-interval": DesignMeasure.uniform(0.5, 2.0),
    "graded": DesignMeasure.truncated_gaussian(0.0, 1.0, 0.5, 0.05),
    "truncated": DesignMeasure.truncated_gaussian(0.0, 1.0, 0.4, 0.3),
    "unit-square": DesignMeasure.uniform((0.0, 0.0), (1.0, 1.0)),
}
# Designs of the explicit examples alone: a box far from the origin,
# where the design context's Taylor transform takes the data.
EXAMPLE_DESIGNS = {"far-interval": DesignMeasure.uniform(1000.0, 1001.0)}
NOISES = {
    "homoscedastic": NoiseModel("homoscedastic", 0.2),
    "affine": NoiseModel("heteroscedastic", 0.2, "affine"),
    "sine-small": NoiseModel("heteroscedastic", 0.02, "sine"),
}
# Where n sits against each switch of a replication's arithmetic: one
# below and at 10 r (dense and Woodbury rungs), 181 and 182 (a chunk of
# two full Grams, an upper triangle alone; or, Gram-free, chunks of
# _run_many's size from n = 182 on), or small.
SIDES = ("below-woodbury", "woodbury", "chunk-181", "alone-182", "small")


@settings(max_examples=30)
@given(
    design=st.sampled_from(sorted(DRAWN_DESIGNS)),
    family=st.sampled_from(["gaussian", "laplace", "rational_quadratic"]),
    bandwidth=st.sampled_from([0.1, 0.25, 0.5]),
    # 256 nodes only for a 1-d Gaussian, whose data side takes the Taylor
    # transform once 15 Q < m: h 0.25 and 0.5 on [0, 1]. The others stop
    # at 64 nodes, so that 10 r stays near 640 at most.
    fine_grid=st.booleans(),
    coarse_m=st.sampled_from([32, 64]),
    noise=st.sampled_from(sorted(NOISES)),
    w0=st.sampled_from(sorted(exp.W0_CHOICES)),
    lam=st.sampled_from([1e-3, 0.05, 0.2, 1.0]),
    index=st.integers(0, 10**6),
    side=st.sampled_from(SIDES),
    small_n=st.integers(2, 60),
)
# The Laplace spectrum on 32 nodes has not decayed: _ridge_factor's trace
# rule sends the member straight to the dense rung.
@example(
    design="unit-interval", family="laplace", bandwidth=0.25, fine_grid=False, coarse_m=32,
    noise="homoscedastic", w0="sin2pi", lam=0.2, index=0, side="woodbury", small_n=2,
)
# A 1-d Gaussian on 256 nodes (r = 16 on [0, 1]) from n = 182 on, run
# alone on the Woodbury rung: the data side takes the Taylor transform
# (15 Q = 120 < n), and no Gram is built.
@example(
    design="unit-interval", family="gaussian", bandwidth=0.25, fine_grid=True, coarse_m=32,
    noise="homoscedastic", w0="sin2pi", lam=0.2, index=0, side="alone-182", small_n=2,
)
@example(
    design="shifted-interval", family="gaussian", bandwidth=0.5, fine_grid=True, coarse_m=32,
    noise="affine", w0="poly3", lam=0.05, index=11, side="alone-800", small_n=2,
)
# The same on [1000, 1001], where f0(X), K V and the sup-norm axis read
# X's tables on the design's interval.
@example(
    design="far-interval", family="gaussian", bandwidth=0.25, fine_grid=True, coarse_m=32,
    noise="homoscedastic", w0="sin2pi", lam=0.2, index=5, side="alone-182", small_n=2,
)
@example(
    design="far-interval", family="gaussian", bandwidth=0.25, fine_grid=True, coarse_m=32,
    noise="sine-small", w0="sin2pi_small", lam=0.05, index=17, side="alone-800", small_n=2,
)
# A 32-node grid resolves the rational quadratic kernel to about 1e-10:
# at lam 1e-3 the Woodbury solve passes its 1e-8 check only 4e-10 from
# the system, and refinement restores the dense accuracy.
@example(
    design="unit-interval", family="rational_quadratic", bandwidth=0.25, fine_grid=False,
    coarse_m=32, noise="homoscedastic", w0="sin2pi", lam=1e-3, index=3, side="woodbury",
    small_n=2,
)
def test_drawn_replications_match_the_written_out_reference(
    design, family, bandwidth, fine_grid, coarse_m, noise, w0, lam, index, side, small_n
):
    measure = {**DRAWN_DESIGNS, **EXAMPLE_DESIGNS}[design]
    noise_model = NOISES[noise]
    fine = fine_grid and family == "gaussian" and measure.dim == 1
    scenario = ScenarioSpec(
        kernel=KernelSpec(family, bandwidth, measure.dim),
        design=measure,
        w0=w0,
        noise=noise_model,
        grid_m=256 if fine else coarse_m,
        base_seed=7,
    )
    threshold = LOW_RANK_MIN_RATIO * exp._design_context(scenario).op.rank
    # "alone-800" is drawn by an example alone: a Gram-free replication at n = 800.
    n = {
        "below-woodbury": threshold - 1, "woodbury": threshold, "chunk-181": 181,
        "alone-182": 182, "alone-800": 800, "small": small_n,
    }[side]
    # The chunks _run_many makes from n = 182 on: one index with a Gram,
    # max(1, APPLY_BLOCK_ENTRIES // (Q n)) Gram-free; two indices below.
    size = exp._chunk_size(scenario, n) if n >= 182 else 2
    indices = range(index, index + size)
    for i, metrics in zip(indices, run_replication(scenario, n, lam, indices)):
        _assert_reference(metrics, reference_replication(scenario, n, lam, i))


def test_a_chunk_and_its_indices_alone_match_the_written_out_reference():
    indices = [5, 6]
    for index, metrics in zip(indices, run_replication(CANON, 181, 0.2, indices)):
        want = reference_replication(CANON, 181, 0.2, index)
        _assert_reference(metrics, want)
        _assert_reference(run_replication(CANON, 181, 0.2, index), want)


def test_run_replication_factors_once(cho_factor_calls):
    run_replication(CANON, 40, 0.2, 3)
    assert cho_factor_calls == [(40, 40)]


def test_run_replication_at_large_n_factors_no_n_by_n_matrix(cho_factor_calls):
    # n = 800 is far above 10 times the canonical grid rank 16: the ridge
    # factor is the Woodbury rung on the grid's Nystrom extension to the
    # data, and only its r x r inner matrix is Cholesky-factored.
    continuous_solution(CANON, 0.2)
    cho_factor_calls.clear()
    run_replication(CANON, 800, 0.2, 0)
    r = exp._design_context(CANON).op.rank
    assert cho_factor_calls == [(r, r)]


@pytest.mark.parametrize("n", [40, 800], ids=["dense-rung", "woodbury-rung"])
def test_run_replication_passes_over_the_gram_twice(monkeypatch, n):
    # One product with K in the auxiliary fit (K w~) and one in the ridge
    # solve's residual check (K [w, v]), whose result is reused: every
    # distance, the objective and the bridge come from those two. Every
    # product with K is its data operator's. On the dense rung that reads
    # the replication's one Gram through linalg._symmetric_product; at
    # n = 800 on the Woodbury rung no Gram is built, and both products
    # are Taylor transforms of the points.
    continuous_solution(CANON, 0.2)
    grams = []
    orig_gram = exp.gram

    def recorded_gram(spec, xs, **kwargs):
        grams.append(orig_gram(spec, xs, **kwargs))
        return grams[-1]

    passes = []
    orig_product = linalg._symmetric_product

    def counted_product(K, Vt):
        passes.extend(K is G for G in grams)
        return orig_product(K, Vt)

    monkeypatch.setattr(exp, "gram", recorded_gram)
    monkeypatch.setattr(linalg, "_symmetric_product", counted_product)
    products = [
        _count_calls(monkeypatch, operator, "product")
        for operator in (linalg.GramOperator, linalg.MatrixFreeOperator)
    ]
    run_replication(CANON, n, 0.2, 3)
    if n == 40:
        assert len(grams) == 1
        assert passes == [True, True]
        assert [len(calls) for calls in products] == [2, 0]
    else:
        assert grams == [] and passes == []
        assert [len(calls) for calls in products] == [0, 2]


def test_a_gram_free_replication_forms_the_data_tables_once(monkeypatch, kernel_paths):
    # At n = 800 a chunk on the Woodbury rung takes the Taylor transform
    # that the design context holds on [0, 1]: its points' point table
    # and center table are each formed once, for the whole stack (a
    # replication run alone is a stack of one), and f0(X), f_lambda(X)
    # and L (against the nodes' center table), both products with K and
    # the sup-norm axis (from the axis' point table) all read them. The
    # factored axis transform is not called.
    continuous_solution(CANON, 0.2)
    run_replication(CANON, 800, 0.2, 0)
    transform = kernels_mod.TaylorTransform
    formed = {"point_table": [], "center_table": []}
    for name, calls in formed.items():
        orig = getattr(transform, name)

        def recorded(self, x, orig=orig, calls=calls):
            calls.append(x.shape)
            return orig(self, x)

        monkeypatch.setattr(transform, name, recorded)
    axis = _count_calls(monkeypatch, kernels_mod, "_gaussian_axis_apply")
    for indices in ([1], [2, 3, 4, 5, 6]):
        kernel_paths.clear()
        for calls in formed.values():
            calls.clear()
        run_replication(CANON, 800, 0.2, indices)
        shape = (len(indices), 800)
        assert formed == {"point_table": [shape], "center_table": [shape]}
        assert axis == [] and kernel_paths == ["taylor"] * 4


def test_a_design_interval_that_assembles_keeps_the_gram_free_path(monkeypatch):
    # On [-3, 3] at h = 0.25 the design's interval needs Q = 288 anchors,
    # and 15 Q >= 256 nodes: the context holds no Taylor transform. A
    # truncated Gaussian of scale 0.2 draws within about [-0.7, 0.7], so
    # at n = 800 on the Woodbury rung (r = 26) K V still takes the Taylor
    # transform, on X's own hull, and no Gram is built.
    design = DesignMeasure.truncated_gaussian(-3.0, 3.0, 0.0, 0.2)
    scenario = dataclasses.replace(CANON, design=design)
    dctx = exp._design_context(scenario)
    assert dctx.taylor is None and dctx.op.nystrom_coefficients(800) is not None
    grams = _count_calls(monkeypatch, exp, "gram")
    products = _count_calls(monkeypatch, linalg.MatrixFreeOperator, "product")
    metrics = run_replication(scenario, 800, 0.2, 0)
    assert grams == [] and len(products) == 2
    _assert_reference(metrics, reference_replication(scenario, 800, 0.2, 0))


def test_run_replication_at_large_n_holds_one_n_by_n_array():
    # At n = 3200 on the canonical grid (r = 16 resolved eigenpairs) a
    # replication run alone builds no n x n array, not even the data
    # Gram: its products K V are Taylor transforms of the points. What
    # it holds is n values times a small count:
    # - throughout: the points, responses and noise, and k(X, nodes) C
    #   on r + 2 columns, at most n (r + 8);
    # - in X's Taylor tables, held through the replication: P = 15 powers
    #   and P monomials per point, Q = 8 anchor rows; at most 16 n of
    #   indices, offsets and temporaries, and one block's sorted
    #   coefficients and sums, at most APPLY_BLOCK_ENTRIES values each, or
    #   Q n for a single column;
    # - in the two-column solve ([f | r], X, K X, the residual and the
    #   Woodbury terms) at most 16 n; the sup-norm axis transform holds
    #   fewer than the Taylor transform's 2 P n.
    # So the peak is below 8 (n (r + 2 P + Q + 40) + 2 max(APPLY_BLOCK_ENTRIES, Q n))
    # bytes: 2.9 MB at n = 3200, where one n x n array takes 82 MB.
    n = 3200
    r = exp._design_context(CANON).op.rank
    P, Q = kernels_mod._TAYLOR_TERMS, 8
    run_replication(CANON, n, 0.2, 0)
    tracemalloc.start()
    run_replication(CANON, n, 0.2, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    block = max(kernels_mod.APPLY_BLOCK_ENTRIES, Q * n)
    bound = 8 * (n * (r + 2 * P + Q + 40) + 2 * block)
    assert r == 16 and bound < 0.05 * 8 * n * n
    assert peak <= bound


# A chunk's metrics against the same indices run one at a time: only
# the order of a few BLAS sums differs between the two (measured up to
# 3e-14 relative at n = 50).
CHUNK_RTOL = 1e-12

CHUNK_SCENARIOS = {
    "uniform-1d": CANON,
    "uniform-2d": ScenarioSpec(
        kernel=KernelSpec("gaussian", 0.25, 2),
        design=DesignMeasure.uniform((0.0, 0.0), (1.0, 2.0)),
        grid_m=256,
    ),
    # Three per-axis factors: on_product multiplies out two of them.
    "uniform-3d": ScenarioSpec(
        kernel=KernelSpec("gaussian", 0.4, 3),
        design=DesignMeasure.uniform((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        grid_m=216,
    ),
    # One factor holding the full 3-d kernel.
    "uniform-3d-laplace": ScenarioSpec(
        kernel=KernelSpec("laplace", 0.4, 3),
        design=DesignMeasure.uniform((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        grid_m=125,
    ),
    "dirac": _dirac_scenario(),
    "truncated-gaussian": ScenarioSpec(
        kernel=CANON.kernel,
        design=DesignMeasure.truncated_gaussian(0.0, 1.0, 0.5, 0.3),
        grid_m=64,
    ),
    "heteroscedastic": ScenarioSpec(
        kernel=KernelSpec("rational_quadratic", 0.3, 1),
        design=CANON.design,
        noise=NoiseModel("heteroscedastic", 0.2, "sine"),
        grid_m=64,
    ),
}


def _assert_metrics_close(got, want):
    assert (got.n, got.lam) == (want.n, want.lam)
    for name in exp.METRIC_FIELDS:
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=CHUNK_RTOL), name


@pytest.mark.parametrize("scenario", CHUNK_SCENARIOS.values(), ids=CHUNK_SCENARIOS.keys())
def test_a_chunk_matches_one_replication_at_a_time(scenario):
    n, lam = 50, 0.2
    chunk = run_replication(scenario, n, lam, range(3, 14))
    assert len(chunk) == 11
    for index, metrics in zip(range(3, 14), chunk):
        _assert_metrics_close(metrics, run_replication(scenario, n, lam, index))


@pytest.mark.parametrize("scenario", CHUNK_SCENARIOS.values(), ids=CHUNK_SCENARIOS.keys())
def test_a_chunk_draws_each_dataset_bit_for_bit(scenario):
    # The chunk draws every member in place and maps them at once. Each
    # member's points must be the bits sample_dataset draws for it alone,
    # and its noise the bits of NumPy's normal(0, std_at(x)) drawn after
    # the points from the index's own stream. f0 at the data is evaluated
    # for the whole chunk at once (in row blocks, or by the Taylor
    # transform on the design's interval), so the responses agree with
    # sample_dataset's to roundoff.
    n, lam, indices = 50, 0.2, range(3, 14)
    lam_bits = int(np.float64(lam).view(np.uint64))
    dctx = exp._design_context(scenario)
    (xs, fs), f0_at_xs = exp._sample_at_nodes(scenario, dctx, n, indices, lam, dctx.f0.coeffs)
    for b, index in enumerate(indices):
        data = sample_dataset(scenario, n, index, lambda_key=lam)
        assert np.array_equal(xs[b], data.xs)
        seq = np.random.SeedSequence(scenario.base_seed, spawn_key=(n, lam_bits, index))
        rng = np.random.default_rng(seq)
        scenario.design.sample([rng], n)
        noise = rng.normal(0.0, scenario.noise.std_at(xs[b]))
        assert np.array_equal(fs[b], f0_at_xs[b] + noise)
        np.testing.assert_allclose(fs[b], data.fs, rtol=0, atol=1e-14)


def test_a_woodbury_chunk_matches_one_replication_at_a_time(cho_factor_calls):
    # At n = 800 each member's factor is the Woodbury rung: one r x r
    # inner matrix per member, and no n x n one.
    continuous_solution(CANON, 0.2)
    cho_factor_calls.clear()
    chunk = run_replication(CANON, 800, 0.2, [0, 1])
    assert len(cho_factor_calls) == 2 and all(shape[0] <= 2 * 17 for shape in cho_factor_calls)
    for index, metrics in enumerate(chunk):
        _assert_metrics_close(metrics, run_replication(CANON, 800, 0.2, index))


@pytest.mark.parametrize("n", [181, 800])
def test_a_gram_free_chunk_matches_its_indices_run_alone(monkeypatch, n):
    # From n = 10 r = 160 on, the canonical data side is Gram-free, and
    # _run_many runs max(1, APPLY_BLOCK_ENTRIES // (Q n)) replications per
    # call: 22 at n = 181 and 5 at n = 800. Such a chunk builds no Gram,
    # and each member's metrics are those of its index run alone.
    size = exp._chunk_size(CANON, n)
    assert size == {181: 22, 800: 5}[n]
    indices = range(7, 7 + size)
    alone = [run_replication(CANON, n, 0.2, index) for index in indices]
    grams = _count_calls(monkeypatch, exp, "gram")
    chunk = run_replication(CANON, n, 0.2, indices)
    assert grams == [] and len(chunk) == size
    for metrics, want in zip(chunk, alone):
        _assert_metrics_close(metrics, want)


def test_monte_carlo_at_n_800_runs_gram_free_chunks_of_five(monkeypatch):
    calls = _count_calls(monkeypatch, exp, "run_replication")
    successes, failed = exp._run_many(CANON, 800, 0.2, 24)
    chunks = [list(range(start, min(start + 5, 24))) for start in range(0, 24, 5)]
    assert [list(args[3]) for args in calls] == chunks
    assert len(successes) == 24 and failed == []


def test_a_gram_free_member_off_its_nystrom_factor_builds_no_gram(cho_factor_calls):
    # A Gram-free chunk at n = 800 builds no Gram. Its member handed a
    # Nystrom factor 1% off has a Woodbury solution that misses K; it is
    # finished by conjugate gradients on its own r x r factor, to within
    # 1e-12 of the dense solve, with no n x n array: the operator has no
    # Gram to assemble. The other members keep the bits of a chunk with no
    # corrupted member. The checks' products K X come from the Taylor
    # transform, within n eps sum |x| of BLAS's, the rounding bound of
    # BLAS's own sums. The member is run alone and in the middle of a
    # chunk of three.
    n, lam = 800, 0.2
    kernel, op = CANON.kernel, exp._design_context(CANON).op
    eps = np.finfo(np.float64).eps

    def no_gram(points):
        raise AssertionError("a Gram-free operator assembled a Gram")

    for size, corrupted in ((1, 0), (3, 1)):
        xs = np.stack([sample_dataset(CANON, n, i, lambda_key=lam).xs for i in range(size)])
        L = np.stack([op.at_points(x, op.nystrom_coefficients(n)) for x in xs])
        B = np.random.default_rng(25).standard_normal((size, n, 2))
        free, _ = _data_operator(kernel, xs, True, no_gram)
        assert isinstance(free, linalg.MatrixFreeOperator)
        X, KX, _ = _ridge_factor(free, n * lam, L).solve_with_product(B)
        L[corrupted] *= 1.01
        free, _ = _data_operator(kernel, xs, True, no_gram)
        cho_factor_calls.clear()
        got_X, got_KX, errors = _ridge_factor(free, n * lam, L).solve_with_product(B)
        r = L.shape[-1]
        assert errors == [None] * size and cho_factor_calls == [(r, r)] * size
        dense = gram(kernel, xs[corrupted])
        dense_X = np.linalg.solve(dense + n * lam * np.eye(n), B[corrupted])
        gap = np.linalg.norm(got_X[corrupted] - dense_X, axis=0)
        assert np.all(gap <= 1e-12 * np.linalg.norm(dense_X, axis=0))
        atol = n * eps * np.abs(got_X[corrupted]).sum(axis=0).max()
        np.testing.assert_allclose(got_KX[corrupted], dense @ got_X[corrupted], rtol=0, atol=atol)
        for b in set(range(size)) - {corrupted}:
            assert np.array_equal(got_X[b], X[b]) and np.array_equal(got_KX[b], KX[b])


@pytest.mark.parametrize(
    "n, indices, lam, products",
    [(3200, [0, 1], 1e-4, 6), (3200, [0, 1], 1e-6, 8), (30000, [0], 1e-4, 6)],
    ids=["chunk-3200", "chunk-3200-lam-1e-6", "alone-30000"],
)
def test_a_coarse_grid_at_small_lam_stays_gram_free(monkeypatch, n, indices, lam, products):
    # On an 8-node grid (r = 8) the Nystrom defect is about a tenth of the
    # shift at lam 1e-4 and ten times it at 1e-6, so each Woodbury
    # solution is finished by conjugate gradients: the products are the
    # auxiliary fit's, the first check's, one per step (3 and 5 steps;
    # preconditioned steepest descent took 33 at 1e-6) and the fresh
    # check's. No Gram is built, for a chunk of two at n = 3200 or one
    # replication at n = 3e4, where one n x n array takes 7.2 GB: the
    # chunk holds a budget of 128 values per point, against n per point
    # for one n x n array.
    scenario = dataclasses.replace(CANON, grid_m=8)
    run_replication(scenario, 400, lam, [2, 3])
    grams = _count_calls(monkeypatch, exp, "gram")
    calls = []
    orig = linalg.MatrixFreeOperator.product
    monkeypatch.setattr(
        linalg.MatrixFreeOperator, "product", lambda K, Vt: calls.append(1) or orig(K, Vt)
    )
    tracemalloc.start()
    results = run_replication(scenario, n, lam, indices)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert exp._design_context(scenario).op.rank == 8
    assert grams == [] and len(calls) == products
    assert all(isinstance(metrics, exp.ReplicationMetrics) for metrics in results)
    assert peak <= 8 * 128 * len(indices) * n


def test_monte_carlo_runs_a_partial_last_chunk():
    # R = 30 at n = 50 runs a chunk of 26 and one of 4.
    n, R = 50, 30
    assert exp.CHUNK_GRAM_ENTRIES // (n * n) == 26
    agg = monte_carlo(CANON, n, 0.2, R)
    reps = [run_replication(CANON, n, 0.2, i) for i in range(R)]
    assert agg.n_failed == 0
    for name in exp.METRIC_FIELDS:
        values = np.array([getattr(r, name) for r in reps])
        assert agg.means[name] == pytest.approx(float(values.mean()), rel=CHUNK_RTOL), name


def test_a_failed_solve_fails_its_own_index_alone(monkeypatch):
    # The failure is planted in the third member's Cholesky factorization,
    # inside the one factor loop that the dense rung runs over the chunk.
    orig = linalg._cho_factor
    calls = []

    def third_fails(A):
        calls.append(A.shape)
        if len(calls) == 3:
            raise NotPositiveDefiniteError("synthetic failure")
        return orig(A)

    monkeypatch.setattr(linalg, "_cho_factor", third_fails)
    chunk = run_replication(CANON, 50, 0.2, range(10, 15))
    monkeypatch.setattr(linalg, "_cho_factor", orig)
    assert isinstance(chunk[2], NotPositiveDefiniteError)
    for index, metrics in zip((10, 11, 13, 14), chunk[:2] + chunk[3:]):
        _assert_metrics_close(metrics, run_replication(CANON, 50, 0.2, index))
    calls.clear()
    monkeypatch.setattr(linalg, "_cho_factor", third_fails)
    agg = monte_carlo(CANON, 50, 0.2, 5)
    assert agg.n_failed == 1 and agg.R == 5
    # A chunk whose every solve fails, and one index alone, which raises.
    calls[:] = [0, 0]
    assert isinstance(run_replication(CANON, 50, 0.2, [4])[0], NotPositiveDefiniteError)
    calls[:] = [0, 0]
    with pytest.raises(NotPositiveDefiniteError, match="synthetic failure"):
        run_replication(CANON, 50, 0.2, 4)


def _break_members(monkeypatch, f0_scaled=None, grid_tripled=None, n=50, lam=0.2):
    """Plants a fault in single members of a chunk, picked by their index.

    The member of index f0_scaled sees f0 at its data 10 times too large,
    so a quadratic form turns negative; the member of index grid_tripled
    has its ridge fit tripled on the sup-norm grid, which only the
    sup-norm certificate sees, the last check of a replication.
    """
    orig_sample = exp._sample_at_nodes

    def scaled(scenario, dctx, n, indices, *rest):
        data, values = orig_sample(scenario, dctx, n, indices, *rest)
        for b, index in enumerate(indices):
            if index == f0_scaled:
                values[b, :, 0] *= 10.0
        return data, values

    monkeypatch.setattr(exp, "_sample_at_nodes", scaled)
    if grid_tripled is None:
        return
    xs = sample_dataset(CANON, n, grid_tripled, lambda_key=lam).xs
    orig_grid = exp.GridOperator.on_product

    def tripled(op, point_sets, centers, coeffs):
        values = orig_grid(op, point_sets, centers, coeffs)
        for b in range(centers.shape[0]):
            if np.array_equal(centers[b], xs):
                values[b] *= 3.0
        return values

    monkeypatch.setattr(exp.GridOperator, "on_product", tripled)


def test_a_broken_member_is_named_by_its_index(monkeypatch):
    _break_members(monkeypatch, grid_tripled=7)
    with pytest.raises(ArithmeticError, match="^sup-norm bound violated at n=50, replication 7:"):
        monte_carlo(CANON, 50, 0.2, 26)


def _count_calls(monkeypatch, module, name):
    """Records each call of module.name, which still runs; returns the record."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


NEGATIVE_AT_9 = "^quadratic form is negative beyond roundoff tolerance at n=50, replication 9:"


def test_a_chunk_raises_what_the_index_order_loop_raises(monkeypatch):
    # Index 9 breaks at a quadratic form, before any bound is checked,
    # and index 7 only at the last bound. In index order 7 comes first,
    # so its sup-norm message is the one raised, from within a chunk too.
    # The broken chunk is drawn and assembled once: no index runs again.
    _break_members(monkeypatch, f0_scaled=9)
    draws = _count_calls(monkeypatch, exp, "_sample_at_nodes")
    grams = _count_calls(monkeypatch, exp, "gram")
    with pytest.raises(ArithmeticError, match=NEGATIVE_AT_9):
        run_replication(CANON, 50, 0.2, range(26))
    assert len(draws) == len(grams) == 1
    monkeypatch.undo()
    _break_members(monkeypatch, f0_scaled=9, grid_tripled=7)
    for run in (
        lambda: run_replication(CANON, 50, 0.2, range(26)),
        lambda: monte_carlo(CANON, 50, 0.2, 26),
    ):
        with pytest.raises(ArithmeticError, match="^sup-norm bound violated at n=50, replication 7:"):
            run()
    # A failed solve at index 2 fails that index alone, and is no broken
    # check: index 9's is still raised, after one factor per member.
    monkeypatch.undo()
    _break_members(monkeypatch, f0_scaled=9)
    orig = linalg._cho_factor
    factors = []

    def third_fails(A):
        factors.append(A.shape)
        if len(factors) == 3:
            raise NotPositiveDefiniteError("synthetic failure")
        return orig(A)

    monkeypatch.setattr(linalg, "_cho_factor", third_fails)
    with pytest.raises(ArithmeticError, match=NEGATIVE_AT_9):
        run_replication(CANON, 50, 0.2, range(26))
    assert factors == [(50, 50)] * 26


@pytest.mark.parametrize("name", ["f", "f0(X)", "f_lambda(X)", "data Gram"])
def test_a_non_finite_input_stops_the_run(monkeypatch, name):
    # One NaN in index 13's input (in the Gram's upper triangle, the part
    # that is read): the member's solve or a check fails, and the run
    # stops naming the array instead of counting a numerical failure.
    orig_sample, orig_gram = exp._sample_at_nodes, exp.gram

    def sample(*args):
        (xs, fs), values = orig_sample(*args)
        target = {"f": fs[3], "f0(X)": values[3, :, 0], "f_lambda(X)": values[3, :, 1]}
        if name in target:
            target[name][5] = np.nan
        return (xs, fs), values

    def nan_gram(spec, xs, **kwargs):
        K = orig_gram(spec, xs, **kwargs)
        if name == "data Gram":
            K[3, 4, 5] = np.nan
        return K

    monkeypatch.setattr(exp, "_sample_at_nodes", sample)
    monkeypatch.setattr(exp, "gram", nan_gram)
    message = f"non-finite {name} at n=50, replication 13: NaN or infinite entries: 1"
    with pytest.raises(ArithmeticError) as raised:
        run_replication(CANON, 50, 0.2, range(10, 36))
    assert str(raised.value) == message


def test_a_nan_in_the_fit_on_the_sup_grid_stops_the_run(monkeypatch):
    # The canonical sup-norm grid is evaluated by the factored axis
    # transform; one NaN out of it, planted in the product with a chunk's
    # datasets, breaks index 13's sup-norm bound, though every input is
    # finite and every solve passes.
    orig = kernels_mod._gaussian_axis_apply

    def with_nan(spec, axis, centers, coeffs):
        values = orig(spec, axis, centers, coeffs)
        if centers.ndim == 3:
            values[3, 100] = np.nan
        return values

    monkeypatch.setattr(kernels_mod, "_gaussian_axis_apply", with_nan)
    with pytest.raises(ArithmeticError, match="^sup-norm bound violated at n=50, replication 13: nan"):
        run_replication(CANON, 50, 0.2, range(10, 36))


def test_a_chunk_at_small_n_holds_at_most_two_megabytes():
    # 26 replications at n = 50: their 26 Grams take 0.5 MB, and the
    # sup-norm grid is assembled in row blocks.
    n = 50
    size = exp.CHUNK_GRAM_ENTRIES // (n * n)
    run_replication(CANON, n, 0.2, range(size))
    tracemalloc.start()
    run_replication(CANON, n, 0.2, range(size, 2 * size))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_a_gram_free_chunk_at_large_n_holds_at_most_three_megabytes():
    # Five replications at n = 800 with no Gram: the stack's Taylor
    # tables, k(X, nodes) C on r + 2 columns and the solves hold a few
    # times 5 n (r + 2 P + Q) values, below the 5.3 MB of the n = 800
    # posterior band.
    n = 800
    size = exp._chunk_size(CANON, n)
    run_replication(CANON, n, 0.2, range(size))
    tracemalloc.start()
    run_replication(CANON, n, 0.2, range(size, 2 * size))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert size == 5 and peak <= 3 * 2**20


def test_product_grid_contexts_hold_no_m_by_m_array():
    # The 2-d Gaussian sweep on m = 1024 nodes: its design context and
    # all ten lambda contexts are built from 32 x 32 per-axis factors and
    # per-axis kernel rows, so the peak stays below one dense m x m node
    # Gram (8 MiB).
    config = parse_config({
        "scenario": {
            "kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 2},
            "design": {"kind": "uniform", "low": [0.0, 0.0], "high": [1.0, 1.0]},
            "w0": "sin2pi",
            "noise": {"kind": "homoscedastic", "sigma": 0.2},
            "grid_m": 1024,
        },
        "ns": [16, 20, 25, 32, 40, 50, 64, 80, 101, 128],
        "lambda_rule": {"kind": "power_law", "coefficient": 0.2, "alpha": 0.5},
        "R": 8,
    })
    scenario, m = config.scenario, config.scenario.grid_m
    exp._design_context.cache_clear()
    exp._lambda_context.cache_clear()
    tracemalloc.start()
    try:
        exp._design_context(scenario)
        for n in config.ns:
            exp._lambda_context(scenario, config.lambda_rule.lam_for(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        exp._design_context.cache_clear()
        exp._lambda_context.cache_clear()
    assert peak < 8 * m * m


def test_run_replication_bridge_rejects_a_wrong_factor(monkeypatch):
    # The bridge vector and the ridge weights come from one factor. A
    # factor of lam*(1 + 1e-3) + K/n passes every solve residual check
    # (against its own matrix) but not the residual-bridge identity,
    # because the residuals r are formed from K itself.
    orig = exp._ridge_factor
    # At n = 800 the wrong factor is the low-rank Woodbury one.
    monkeypatch.setattr(
        exp, "_ridge_factor", lambda K, lam, low_rank=None: orig(K, lam * (1 + 1e-3), low_rank)
    )
    for n in (25, 800):
        with pytest.raises(ArithmeticError, match="residual bridge identity"):
            run_replication(CANON, n, 0.2, 4)


def test_monte_carlo_matches_manual_fold():
    agg = monte_carlo(CANON, 12, 0.5, 5)
    reps = [run_replication(CANON, 12, 0.5, i) for i in range(5)]
    for name in exp.METRIC_FIELDS:
        values = np.array([getattr(r, name) for r in reps])
        assert agg.means[name] == float(values.mean())
        assert agg.stderrs[name] == float(values.std(ddof=1) / np.sqrt(5))
    assert agg.n_failed == 0


def test_monte_carlo_zero_spread_for_degenerate_scenario():
    # Dirac design with sigma = 0 repeats one deterministic dataset, so
    # every replication coincides and all standard errors vanish.
    agg = monte_carlo(_dirac_scenario(sigma=0.0), 4, 0.3, 2)
    assert all(se == 0.0 for se in agg.stderrs.values())


def test_cold_runs_are_bit_identical():
    # Clearing the caches makes each run build its own grid operator and
    # low-rank factor, so the comparison covers the lazily cached factor.
    # The truncated Gaussian's replications share one frozen scipy
    # distribution, which a draw must leave unchanged.
    uniform_2d = ScenarioSpec(
        kernel=KernelSpec("gaussian", 0.25, 2),
        design=DesignMeasure.uniform((0.0, 0.0), (1.0, 1.0)),
        grid_m=256,
    )
    truncated = ScenarioSpec(
        kernel=CANON.kernel,
        design=DesignMeasure.truncated_gaussian(0.0, 1.0, 0.5, 0.3),
        grid_m=64,
    )

    def cold_run(scenario):
        exp._design_context.cache_clear()
        exp._lambda_context.cache_clear()
        return monte_carlo(scenario, 15, 0.2, 8)

    for scenario in (CANON, uniform_2d, truncated):
        assert cold_run(scenario) == cold_run(scenario)


def test_failed_replications_are_counted(monkeypatch):
    # The sweep runs chunks of indices; a chunk hands back each failed
    # index's error in its place.
    orig = exp.run_replication

    def flaky(scenario, n, lam, indices):
        results = orig(scenario, n, lam, indices)
        return [
            NotPositiveDefiniteError("synthetic failure") if index % 2 == 1 else result
            for index, result in zip(indices, results)
        ]

    monkeypatch.setattr(exp, "run_replication", flaky)
    agg = monte_carlo(CANON, 8, 0.3, 6)
    assert agg.n_failed == 3
    assert agg.R == 6

    def always_fails(scenario, n, lam, indices):
        return [NotPositiveDefiniteError("synthetic failure") for _ in indices]

    monkeypatch.setattr(exp, "run_replication", always_fails)
    with pytest.raises(RuntimeError):
        monte_carlo(CANON, 8, 0.3, 3)


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo(CANON, 10, 0.2, 1)
    with pytest.raises(ValueError):
        run_replication(CANON, 10, 0.0, 0)


def test_rate_fit_recovers_exact_power_laws():
    ns = [10, 20, 40, 80]
    slope, intercept = rate_fit(ns, [3.0 / n for n in ns])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
    slope, _ = rate_fit(ns, [2.0 * n ** (-0.4) for n in ns])
    assert slope == pytest.approx(-0.4, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        rate_fit([10, 20], [1.0, 0.5])
    with pytest.raises(ValueError):
        rate_fit([10, 20, 40], [1.0, -0.5, 0.2])
    # A repeated n gives a singular fit.
    with pytest.raises(ValueError, match="distinct"):
        rate_fit([20, 20, 20], [1.0, 0.5, 0.2])


def test_monotonicity_check_smoke():
    report = monotonicity_check(CANON, 0.2, [10, 20], R=60)
    assert report.ok, report.violations
    assert report.rows[0][0] == 10 and report.rows[1][0] == 20
    with pytest.raises(ValueError):
        monotonicity_check(CANON, 0.2, [20, 10], R=2)
    with pytest.raises(ValueError, match="nonempty"):
        monotonicity_check(CANON, 0.2, [], R=2)


def test_weak_consistency_fractions_nonincreasing():
    eps, fractions = weak_consistency_fractions(rate_scenario(), [20, 80, 320], R=300)
    assert eps > 0
    assert fractions[0] >= fractions[1] >= fractions[2]
    for empty in ([], iter([])):
        with pytest.raises(ValueError, match="nonempty"):
            weak_consistency_fractions(rate_scenario(), empty, R=2)
    # Any iterable of sample sizes works, a numpy array included.
    _, fractions = weak_consistency_fractions(rate_scenario(), np.array([20, 40]), R=2)
    assert len(fractions) == 2
    with pytest.raises(ValueError, match="R must be at least 1"):
        weak_consistency_fractions(rate_scenario(), [20], R=0)


@pytest.mark.parametrize("failing_n", [20, 40])
def test_weak_consistency_fractions_names_an_n_without_successes(monkeypatch, failing_n):
    # With every replication at one n failed there is no fraction (nor,
    # at the first n, a level eps) to report.
    orig = exp.run_replication

    def failing_at(scenario, n, lam, indices):
        if n == failing_n:
            return [NotPositiveDefiniteError("synthetic failure") for _ in indices]
        return orig(scenario, n, lam, indices)

    monkeypatch.setattr(exp, "run_replication", failing_at)
    with pytest.raises(RuntimeError, match=f"n={failing_n}: none of 3 replications succeeded"):
        weak_consistency_fractions(rate_scenario(), [20, 40], R=3)


def test_continuous_solution_is_cached():
    a = continuous_solution(CANON, 0.2)
    b = continuous_solution(CANON, 0.2)
    assert a is b


def test_target_and_flambda_values_consistent_with_grid():
    sol = continuous_solution(CANON, 0.2)
    nodes = sol.grid.nodes
    np.testing.assert_allclose(target_values(CANON, nodes), sol.f0_values, atol=1e-12)
    np.testing.assert_allclose(
        flambda_values(CANON, 0.2, nodes), sol.flambda_values, atol=1e-10
    )
    probe = np.array([[0.41]])
    expected = evaluate_batch(flambda_expansion(sol), probe)
    np.testing.assert_allclose(flambda_values(CANON, 0.2, probe), expected, atol=1e-12)


@pytest.fixture
def fresh_contexts():
    """Clears the cached design and lambda contexts before and after a planted fault."""
    caches = (exp._design_context, exp._lambda_context)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_design_context_flags_a_nan_target_gap(monkeypatch, fresh_contexts):
    # The right-hand-side check compares G W w0 with the expansion summed
    # directly; a NaN on either side makes the gap NaN, which fails it.
    def nan_first(f, xs):
        out = evaluate_batch(f, xs)
        out[0] = np.nan
        return out

    monkeypatch.setattr(exp, "evaluate_batch", nan_first)
    with pytest.raises(ArithmeticError, match="right-hand side is off the target f0 by nan"):
        exp._design_context(CANON)


def _run_canonical_with_nan_from_taylor(monkeypatch, tmp_path, planted, n=50):
    """`rkhsreg run` of CANON at n with a NaN planted in Taylor transform products.

    Every Taylor product is one TaylorTransform.apply, from kernel_apply
    or from tables a caller holds. planted(points, centers) is given the
    shapes of each product's point sets and center sets, as the tables
    were formed: (n,) for one set, (B, n) for a stack. It returns the
    index of the result that turns NaN, or None to leave it.
    """
    orig = kernels_mod.TaylorTransform.apply

    def nan_at(self, points, centers, *rest):
        out = orig(self, points, centers, *rest)
        index = planted(points[0].shape[1:], centers[0].shape)
        if index is not None:
            out[index] = np.nan
        return out

    monkeypatch.setattr(kernels_mod.TaylorTransform, "apply", nan_at)
    config = {
        "scenario": dataclasses.asdict(CANON),
        "ns": [n],
        "lambda_rule": {"kind": "fixed", "value": 0.2},
        "R": 30,
        "outputs": str(tmp_path / "out"),
        "emit_plots": False,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["run", str(path)])


def test_a_nan_from_the_taylor_transform_stops_the_run(
    monkeypatch, tmp_path, capsys, fresh_contexts
):
    # f0 and f_lambda at the data come from the Taylor transform for the
    # canonical 1-d Gaussian scenario: a NaN at the first point of a
    # chunk's datasets (26 sets of 50 points against 256 nodes) reaches a
    # replication's responses, and the run exits 3.
    def on_data(points, centers):
        return (0, 0) if points != centers else None

    assert _run_canonical_with_nan_from_taylor(monkeypatch, tmp_path, on_data) == 3
    assert "invariant broken: non-finite f at n=50, replication 0" in capsys.readouterr().err


def test_a_nan_from_the_taylor_transform_in_a_gram_free_chunk_stops_the_run(
    monkeypatch, tmp_path, capsys, fresh_contexts
):
    # At n = 800 a chunk of five runs Gram-free: every product K_b V_b of
    # its data operator pairs the stack's point sets with their own center
    # sets. A NaN at the first point of the third member's products fails
    # that member's solve alone, and the non-finite scan of what its
    # operator formed names its replication.
    def third_member(points, centers):
        return (2, 0) if points == centers == (5, 800) else None

    assert _run_canonical_with_nan_from_taylor(monkeypatch, tmp_path, third_member, n=800) == 3
    err = capsys.readouterr().err
    assert "invariant broken: non-finite data Gram at n=800, replication 2:" in err


def test_a_nan_from_the_taylor_transform_at_the_nodes_stops_the_set_up(
    monkeypatch, tmp_path, capsys, fresh_contexts
):
    # The design context's node check sums the target's expansion at the
    # nodes (256 points against 256 centers) by the Taylor transform too:
    # a NaN there makes its gap NaN before any replication runs.
    def at_nodes(points, centers):
        return 0 if points == centers == (256,) else None

    assert _run_canonical_with_nan_from_taylor(monkeypatch, tmp_path, at_nodes) == 3
    assert "invariant broken: Fredholm right-hand side is off the target f0 by nan" in (
        capsys.readouterr().err
    )


def test_scenario_serialization_roundtrip():
    # The config block of results.json re-parses through the real entry point.
    hetero = ScenarioSpec(
        kernel=KernelSpec("laplace", 0.3, 1),
        design=DesignMeasure.truncated_gaussian(0.0, 1.0, 0.4, 0.3),
        noise=NoiseModel("heteroscedastic", 0.3, "sine"),
    )
    planar = [
        ScenarioSpec(
            kernel=KernelSpec(family, 0.35, 2),
            design=DesignMeasure.uniform((0.0, -1.0), (1.0, 2.0)),
            w0="poly3",
            grid_m=64,
            base_seed=5,
        )
        for family in FAMILIES
    ]
    for scen in (CANON, rate_scenario(), _dirac_scenario(), hetero, *planar):
        config = {
            "scenario": json.loads(json.dumps(dataclasses.asdict(scen))),
            "ns": [10],
            "lambda_rule": {"kind": "fixed", "value": 0.2},
            "R": 2,
        }
        assert parse_config(config).scenario == scen


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(CANON.kernel, CANON.design, w0="bogus")
    with pytest.raises(ValueError):
        ScenarioSpec(CANON.kernel, CANON.design, grid_m=4)
    with pytest.raises(ValueError):
        ScenarioSpec(CANON.kernel, CANON.design, base_seed=-1)
    with pytest.raises(ValueError):
        ScenarioSpec(KernelSpec("gaussian", 0.25, 2), CANON.design)


def test_cube_quadrature_resolution():
    # Gaussian h=0.25 on the unit cube, lam=0.2: 8 and 10 Gauss-Legendre
    # nodes per axis agree to about 2e-6 on ||f_lambda||^2 and to about
    # 2e-7 on the continuous objective and the tilde-risk reference.
    lam = 0.2
    values = []
    for m in (512, 1000):
        scen = ScenarioSpec(KernelSpec("gaussian", 0.25, 3),
                            DesignMeasure.uniform((0.0,) * 3, (1.0,) * 3), grid_m=m)
        sol = continuous_solution(scen, lam)
        assert sol.grid.m == m
        condvar = scen.noise.condvar_at(sol.grid.nodes)
        values.append(np.array([
            sol.flambda_norm_sq,
            continuous_objective(sol, scen.noise.irreducible(sol.grid)),
            theoretical_tilde_risk(sol, condvar, 50),
        ]))
    gap = np.abs(values[0] - values[1]) / np.abs(values[1])
    assert np.all(gap <= 1e-5), gap


def test_noise_model_profiles_and_irreducible():
    affine = NoiseModel("heteroscedastic", 0.2, "affine")
    assert affine.std_at(np.array([[0.5]]))[0] == pytest.approx(0.15, abs=1e-15)
    sine = NoiseModel("heteroscedastic", 0.2, "sine")
    assert sine.std_at(np.array([[0.25]]))[0] == pytest.approx(0.25, abs=1e-15)
    grid = exp.build_grid(DesignMeasure.uniform(0.0, 1.0), 32)
    # integral of sigma^2 (0.25 + x)^2 over [0,1] = sigma^2 (1.25^3 - 0.25^3)/3
    expected = 0.2**2 * (1.25**3 - 0.25**3) / 3.0
    assert affine.irreducible(grid) == pytest.approx(expected, abs=1e-12)
    assert NoiseModel("homoscedastic", 0.3).irreducible(grid) == pytest.approx(0.09)
    with pytest.raises(ValueError):
        NoiseModel("homoscedastic", -0.1)
    with pytest.raises(ValueError):
        NoiseModel("heteroscedastic", 0.2, "quadratic")
    with pytest.raises(ValueError):
        NoiseModel("multiplicative")
