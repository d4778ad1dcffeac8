"""Quadrature grids, the Nystrom solve of (lam + K) w = f0, range-of-
operator targets, the continuous objective, and bias decay in lam."""

import dataclasses
from functools import cached_property, reduce

import numpy as np
import pytest
import scipy.stats
from scipy.linalg.lapack import dpstrf

import rkhsreg.experiments as exp
import rkhsreg.fredholm as fredholm_mod
import rkhsreg.kernels as kernels_mod
from rkhsreg.estimator import KernelExpansion, evaluate_batch, rkhs_norm_sq
from rkhsreg.experiments import canonical_scenario
from rkhsreg.fredholm import (
    LOW_RANK_MIN_RATIO,
    DesignMeasure,
    GridOperator,
    QuadratureGrid,
    bias_norm_sq,
    build_grid,
    continuous_objective,
    f0_in_range,
    flambda_expansion,
    solve_coefficient,
)
from rkhsreg.kernels import KernelSpec, gram, kernel_apply, kernel_eval
from rkhsreg.linalg import sym_eig

GL2_OFFSET = 0.2886751345948129  # 1 / (2 sqrt(3))
UNIFORM = DesignMeasure.uniform(0.0, 1.0)
CONSTANT = KernelSpec("constant", dim=1)
GAUSS = KernelSpec("gaussian", 0.25, 1)
# A graded rule: the 256 Gauss-Legendre weights times this density reach about 1e-25.
GRADED = DesignMeasure.truncated_gaussian(0.0, 1.0, 0.5, 0.05)


def test_gauss_legendre_two_point_rule():
    grid = build_grid(UNIFORM, 2)
    np.testing.assert_allclose(
        grid.nodes[:, 0], [0.5 - GL2_OFFSET, 0.5 + GL2_OFFSET], atol=1e-15
    )
    np.testing.assert_allclose(grid.weights, [0.5, 0.5], atol=1e-15)


def test_quadrature_integrates_polynomials():
    grid = build_grid(UNIFORM, 200)
    assert float(grid.weights @ grid.nodes[:, 0]) == pytest.approx(0.5, abs=1e-12)
    assert float(grid.weights @ grid.nodes[:, 0] ** 3) == pytest.approx(0.25, abs=1e-12)


def test_dirac_grid_collapses():
    grid = build_grid(DesignMeasure.dirac(0.3), 50)
    assert grid.m == 1
    assert grid.nodes[0, 0] == 0.3
    assert grid.weights[0] == 1.0


def test_truncated_gaussian_grid():
    measure = DesignMeasure.truncated_gaussian(0.0, 1.0, 0.5, 0.3)
    grid = build_grid(measure, 64)
    assert np.all(grid.weights > 0)
    assert float(grid.weights.sum()) == pytest.approx(1.0, abs=1e-12)
    a, b = (0.0 - 0.5) / 0.3, (1.0 - 0.5) / 0.3
    ref_mean = float(scipy.stats.truncnorm.mean(a, b, loc=0.5, scale=0.3))
    assert float(grid.weights @ grid.nodes[:, 0]) == pytest.approx(ref_mean, abs=1e-8)


def test_truncated_gaussian_two_node_rule():
    # Small m takes the same pdf-weighted Gauss-Legendre rule as large m.
    measure = DesignMeasure.truncated_gaussian(0.0, 1.0, 0.3, 0.3)
    grid = build_grid(measure, 2)
    nodes = np.array([0.5 - GL2_OFFSET, 0.5 + GL2_OFFSET])
    np.testing.assert_allclose(grid.nodes[:, 0], nodes, atol=1e-15)
    pdf = scipy.stats.norm.pdf(nodes, loc=0.3, scale=0.3)
    np.testing.assert_allclose(grid.weights, pdf / pdf.sum(), rtol=1e-14)


def test_uniform_2d_tensor_grid():
    # The product rule integrates x1 + ... + xd exactly; at d = 3 on a
    # box that is not the unit box, round(27^(1/3)) = 3 nodes per axis.
    for low, high, m, mean in (((0.0, 0.0), (1.0, 2.0), 16, 0.5 + 1.0),
                               ((-1.0, 0.0, 2.0), (0.0, 0.5, 5.0), 27, -0.5 + 0.25 + 3.5)):
        grid = build_grid(DesignMeasure.uniform(low, high), m)
        assert grid.m == m
        assert grid.nodes.shape == (m, len(low))
        assert float(grid.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        total = float(grid.weights @ grid.nodes.sum(axis=1))
        assert total == pytest.approx(mean, abs=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(UNIFORM, 0)
    with pytest.raises(ValueError):
        DesignMeasure("pareto")
    with pytest.raises(ValueError):
        DesignMeasure.uniform(1.0, 0.0)
    with pytest.raises(ValueError):
        QuadratureGrid(np.array([[0.0], [1.0]]), np.array([0.7, 0.7]))  # sum != 1
    with pytest.raises(ValueError):
        QuadratureGrid(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))  # negative
    with pytest.raises(ValueError):
        QuadratureGrid(np.array([0.0, 1.0]), np.array([0.5, 0.5]))  # nodes not (m, d)


def test_constant_kernel_solution_closed_form():
    # With k = 1 the operator is rank one, and constant targets give
    # w = f0 / (lam + 1) exactly.
    grid = build_grid(UNIFORM, 64)
    op = GridOperator(CONSTANT, grid)
    for lam, c in ((1.0, 1.0), (0.25, 2.0), (10.0, -0.5)):
        f0 = np.full(grid.m, c)
        sol = solve_coefficient(op, f0, lam)
        np.testing.assert_allclose(sol.w_values, f0 / (lam + 1.0), atol=1e-10)
        np.testing.assert_allclose(sol.flambda_values, f0 / (lam + 1.0), atol=1e-10)
        assert sol.residual_max <= 1e-9


def test_constant_kernel_zero_target():
    grid = build_grid(UNIFORM, 16)
    sol = solve_coefficient(GridOperator(CONSTANT, grid), np.zeros(16), 0.5)
    np.testing.assert_allclose(sol.w_values, np.zeros(16), atol=1e-14)


def test_dirac_scalar_closed_form():
    grid = build_grid(DesignMeasure.dirac(0.3), 1)
    sol = solve_coefficient(GridOperator(GAUSS, grid), np.array([2.0]), 0.5)
    assert sol.w_values[0] == pytest.approx(2.0 / 1.5, abs=1e-12)
    assert sol.flambda_values[0] == pytest.approx(2.0 / 1.5, abs=1e-12)


def test_identity_residual_across_kernels_and_lambdas():
    # f0 - f_lambda = lam * w holds at the nodes to solver precision.
    designs = [(UNIFORM, 64), (DesignMeasure.truncated_gaussian(0.0, 1.0, 0.4, 0.25), 32)]
    kernels = [GAUSS, KernelSpec("laplace", 0.5, 1), KernelSpec("rational_quadratic", 1.0, 1)]
    for measure, m in designs:
        grid = build_grid(measure, m)
        w0 = np.sin(2 * np.pi * grid.nodes[:, 0])
        for spec in kernels:
            op = GridOperator(spec, grid)
            f0, _ = f0_in_range(op, w0)
            for lam in (1e-3, 0.1, 1.0):
                sol = solve_coefficient(op, f0, lam)
                assert sol.residual_max <= 1e-9


@pytest.mark.parametrize("lam", [1e-8, 1e-10, 1e-12])
def test_canonical_grid_solve_holds_the_node_identity_at_small_lambda(lam):
    # Every eigenvector is kept, so the node identity f0 - f_lambda = lam * w
    # holds to roundoff however small lam is.
    scenario = canonical_scenario()
    grid = build_grid(scenario.design, scenario.grid_m)
    op = GridOperator(scenario.kernel, grid)
    f0, _ = f0_in_range(op, scenario.w0_at(grid.nodes))
    assert solve_coefficient(op, f0, lam).residual_max <= 1e-13


@pytest.mark.parametrize("lam", [0.2, 1e-2, 1e-4, 1e-6, 1e-8])
def test_graded_grid_solve_holds_the_node_identity(lam):
    # Dividing by sqrt(W_i) at the tail nodes would amplify the roundoff
    # in u = W^(1/2) w there (a residual of 4.3e-6 at lam 0.2 when every
    # node took that form); those nodes take the residual form instead.
    grid = build_grid(GRADED, 256)
    assert np.min(grid.weights) < 1e-24
    op = GridOperator(GAUSS, grid)
    f0, _ = f0_in_range(op, np.sin(2 * np.pi * grid.nodes[:, 0]))
    assert solve_coefficient(op, f0, lam).residual_max <= 1e-12


class _ShiftedSpectrum(GridOperator):
    """An operator whose eigenvalues disagree with its own Gram matrix."""

    @cached_property
    def spectrum(self):
        nu, B = super().spectrum
        return nu + 0.1, B


def test_solver_flags_inconsistent_discretization():
    grid = build_grid(UNIFORM, 8)
    with pytest.raises(ArithmeticError):
        solve_coefficient(_ShiftedSpectrum(GAUSS, grid), np.ones(8), 0.5)


def test_node_identity_tolerance_is_relative_to_the_target():
    # Far from the origin a target of size 1e9 leaves a node residual of
    # about 1e-6 from roundoff alone, inside RESIDUAL_TOL * max |f0|; a
    # spectrum 1% off still breaks the identity by far more at that scale,
    # and an infinite target breaks it at any residual.
    grid = build_grid(DesignMeasure.uniform(1000.0, 1001.0), 256)
    op = GridOperator(GAUSS, grid)
    f0, _ = f0_in_range(op, grid.nodes[:, 0] ** 3)
    assert np.max(np.abs(f0)) > 1e8
    sol = solve_coefficient(op, f0, 0.05)
    assert sol.residual_max <= 1e-14 * np.max(np.abs(f0))
    nu, Vs = op.spectrum
    object.__setattr__(op, "spectrum", (1.01 * nu, Vs))
    with pytest.raises(ArithmeticError, match="identity residual"):
        solve_coefficient(op, f0, 0.05)
    f0 = np.ones(8)
    f0[3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="identity residual"):
        solve_coefficient(GridOperator(GAUSS, build_grid(UNIFORM, 8)), f0, 0.5)


def test_solver_flags_a_nan_in_the_right_hand_side():
    # A NaN residual fails the node identity, under its own message.
    f0 = np.ones(8)
    f0[3] = np.nan
    with pytest.raises(ArithmeticError, match="identity residual nan"):
        solve_coefficient(GridOperator(GAUSS, build_grid(UNIFORM, 8)), f0, 0.5)


@pytest.mark.parametrize("lam", [1e-3, 0.1, 1.0])
def test_spectral_solve_matches_dense_solve_2d(lam):
    grid = build_grid(DesignMeasure.uniform((0.0, 0.0), (1.0, 2.0)), 100)
    kernel = KernelSpec("gaussian", 0.4, 2)
    op = GridOperator(kernel, grid)
    f0, _ = f0_in_range(op, np.sin(2 * np.pi * grid.nodes[:, 0]) + grid.nodes[:, 1])
    sol = solve_coefficient(op, f0, lam)
    G = np.array([[kernel_eval(kernel, a, b) for b in grid.nodes] for a in grid.nodes])
    w_dense = np.linalg.solve(lam * np.eye(grid.m) + G * grid.weights[None, :], f0)
    scale = float(np.max(np.abs(w_dense)))
    np.testing.assert_allclose(sol.w_values, w_dense, rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(sol.flambda_values, f0 - lam * w_dense, rtol=0, atol=1e-9 * scale)


# (kernel, design, m, rank of S): full-rank Laplace, rank-deficient
# 2-d Gaussian, and the two remaining families.
LOW_RANK_CASES = {
    "gaussian-2d": (
        KernelSpec("gaussian", 0.4, 2), DesignMeasure.uniform((0.0, 0.0), (1.0, 2.0)), 256, "deficient"
    ),
    "laplace-0.05": (KernelSpec("laplace", 0.05, 1), UNIFORM, 128, "full"),
    "rational_quadratic": (KernelSpec("rational_quadratic", 0.25, 1), UNIFORM, 128, "deficient"),
    "constant": (CONSTANT, UNIFORM, 32, "one"),
}


def _weighted_gram(op):
    # From the dense node Gram, built independently of the operator's factors.
    s = np.sqrt(op.grid.weights)
    return s[:, None] * gram(op.kernel, op.grid.nodes) * s[None, :]


def _rank_tol(mu):
    # numpy matrix_rank's rule for the eigenvalues mu of an m x m S.
    return len(mu) * np.finfo(np.float64).eps * float(np.max(mu))


@pytest.mark.parametrize("lam", [1e-3, 0.0177, 0.2])
@pytest.mark.parametrize("case", sorted(LOW_RANK_CASES))
def test_low_rank_solve_matches_dense_solve(case, lam):
    kernel, measure, m, rank_kind = LOW_RANK_CASES[case]
    grid = build_grid(measure, m)
    op = GridOperator(kernel, grid)
    rank = op.rank
    if rank_kind == "full":
        assert rank == grid.m
    elif rank_kind == "one":
        assert rank == 1
    else:
        assert 1 < rank < grid.m
    f0, _ = f0_in_range(op, np.sin(2 * np.pi * grid.nodes[:, 0]) + grid.nodes[:, -1])
    sol = solve_coefficient(op, f0, lam)
    G = gram(kernel, grid.nodes)
    w_dense = np.linalg.solve(lam * np.eye(grid.m) + G * grid.weights[None, :], f0)
    scale = float(np.max(np.abs(w_dense)))
    np.testing.assert_allclose(sol.w_values, w_dense, rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(sol.flambda_values, f0 - lam * w_dense, rtol=0, atol=1e-9 * scale)


@pytest.mark.parametrize("lam", [1e-3, 0.0177, 0.2])
@pytest.mark.parametrize("case", sorted(LOW_RANK_CASES))
def test_effective_dimension_within_truncation_bound(case, lam):
    # N(lam) sums over the eigenvalues above the rank rule; the dense
    # reference sums the dense S's eigenvalues above the same rule. x /
    # (x + lam) is 1/lam-Lipschitz and each of the m eigenvalues carries
    # roundoff of about eps * ||S||, so the two agree within
    # m * eps * ||S|| / lam.
    kernel, measure, m, _ = LOW_RANK_CASES[case]
    op = GridOperator(kernel, build_grid(measure, m))
    _assert_effective_dimension_matches_dense(op, lam)


def _assert_effective_dimension_matches_dense(op, lam):
    # Eigenvalues only, through another LAPACK path than the operator's sym_eig.
    mu = np.linalg.eigvalsh(_weighted_gram(op))
    mu = mu[mu > _rank_tol(mu)]
    full = float(np.sum(mu / (mu + lam)))
    bound = op.grid.m * np.finfo(np.float64).eps * float(mu[-1]) / lam
    assert abs(op.effective_dimension(lam) - full) <= bound


def test_low_rank_factor_reconstructs_the_weighted_gram():
    # The spectral solve relies on V'V = I and V diag(nu) V' = S, with
    # every eigenvector kept, so nothing of S is dropped. The 2-d
    # Gaussian operator has one factor per axis; its V = V_1 kron V_2 is
    # formed here only to check it.
    kernel, measure, m, _ = LOW_RANK_CASES["gaussian-2d"]
    op = GridOperator(kernel, build_grid(measure, m))
    nu, Vs = op.spectrum
    assert len(Vs) == 2
    assert np.all(nu >= 0.0)
    for f in op.factors:
        assert f.spectrum[1].shape == (f.size, f.size)
        assert np.all(np.diff(f.spectrum[0]) >= 0.0)
    V = reduce(np.kron, Vs)
    np.testing.assert_allclose(V.T @ V, np.eye(op.grid.m), rtol=0, atol=1e-13)
    S = _weighted_gram(op)
    np.testing.assert_allclose((V * nu) @ V.T, S, rtol=0, atol=1e-15)
    eps = np.finfo(np.float64).eps
    assert abs(float(np.trace(S) - np.sum(nu))) <= op.grid.m * eps * float(np.trace(S))


# Product kernels on boxes with unequal sides, so that a factor applied
# to the wrong axis shows; each is checked against the dense node Gram
# G = gram(kernel, grid.nodes), built independently of the factors.
BOX_2D = DesignMeasure.uniform((0.0, 0.0), (1.0, 2.0))
BOX_3D = DesignMeasure.uniform((0.0, 0.0, -1.0), (1.0, 2.0, -0.5))
KRON_CASES = {
    "gaussian-2d": (KernelSpec("gaussian", 0.4, 2), BOX_2D, 256),
    "constant-2d": (KernelSpec("constant", dim=2), BOX_2D, 64),
    "gaussian-3d": (KernelSpec("gaussian", 0.8, 3), BOX_3D, 216),
    "constant-3d": (KernelSpec("constant", dim=3), BOX_3D, 64),
}


def _kron_case(case):
    kernel, measure, m = KRON_CASES[case]
    grid = build_grid(measure, m)
    return kernel, measure, grid, GridOperator(kernel, grid), gram(kernel, grid.nodes)


@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_product_kernel_has_one_small_factor_per_axis(case):
    kernel, _, grid, op, _ = _kron_case(case)
    p = round(grid.m ** (1.0 / kernel.dim))
    assert len(op.factors) == kernel.dim
    assert all(f.gram_matrix.shape == (p, p) for f in op.factors)


@pytest.mark.parametrize(
    "kernel, measure, m",
    [
        (KernelSpec("laplace", 0.5, 2), BOX_2D, 64),
        (KernelSpec("rational_quadratic", 0.5, 3), BOX_3D, 27),
        (GAUSS, UNIFORM, 32),
    ],
    ids=["laplace-2d", "rational_quadratic-3d", "gaussian-1d"],
)
def test_other_kernels_and_1d_grids_have_one_dense_factor(kernel, measure, m):
    grid = build_grid(measure, m)
    (factor,) = GridOperator(kernel, grid).factors
    np.testing.assert_array_equal(factor.gram_matrix, gram(kernel, grid.nodes))
    # A grid given by its nodes alone is not known to be a product.
    bare = QuadratureGrid(grid.nodes, grid.weights)
    assert len(GridOperator(KernelSpec("gaussian", 0.4, kernel.dim), bare).factors) == 1


@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_kronecker_apply_matches_dense_gram(case):
    _, _, grid, op, G = _kron_case(case)
    v = np.random.default_rng(3).standard_normal(grid.m)
    np.testing.assert_allclose(op.apply(v), G @ v, rtol=0, atol=1e-13 * float(np.abs(v).sum()))


@pytest.mark.parametrize("lam", [1e-3, 0.0177, 0.2])
@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_kronecker_solve_matches_dense_solve(case, lam):
    _, _, grid, op, G = _kron_case(case)
    x = grid.nodes
    w0 = np.sin(2 * np.pi * x[:, 0]) + x[:, 1] * x[:, -1] ** 2
    f0 = G @ (grid.weights * w0)
    sol = solve_coefficient(op, f0, lam)
    w_dense = np.linalg.solve(lam * np.eye(grid.m) + G * grid.weights[None, :], f0)
    scale = float(np.max(np.abs(w_dense)))
    np.testing.assert_allclose(sol.w_values, w_dense, rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(sol.flambda_values, f0 - lam * w_dense, rtol=0, atol=1e-9 * scale)
    Ww = grid.weights * w_dense
    assert sol.flambda_norm_sq == pytest.approx(float(Ww @ G @ Ww), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("lam", [1e-3, 0.0177, 0.2])
@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_kronecker_effective_dimension_matches_dense_spectrum(case, lam):
    _assert_effective_dimension_matches_dense(_kron_case(case)[3], lam)


@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_kronecker_rank_matches_dpstrf_rank(case):
    # op.rank counts the product eigenvalues above tol = m * eps * ||S||
    # (matrix_rank's rule); LAPACK dpstrf on the dense S, stopped at the
    # same tol, gives the pivoted Cholesky rank. Neither resolves the
    # eigenvalues close to tol, so both must fall between the counts of
    # dense eigenvalues above 10 tol and above tol / 10. The product of
    # the factors' ranks does not.
    _, _, grid, op, _ = _kron_case(case)
    S = _weighted_gram(op)
    mu = sym_eig(S)[0]
    tol = _rank_tol(mu)
    low, high = int(np.sum(mu > 10 * tol)), int(np.sum(mu > tol / 10))
    assert low <= dpstrf(S, tol=tol, lower=1)[2] <= high
    assert low <= op.rank <= high
    if op.rank > 1:
        nus = [f.spectrum[0] for f in op.factors]
        assert np.prod([np.sum(nu > _rank_tol(nu)) for nu in nus]) > high


@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_kronecker_rows_match_dense_kernel_apply(case):
    # k(xs, nodes) @ C from per-axis kernel rows, for one and two columns.
    kernel, measure, grid, op, _ = _kron_case(case)
    rng = np.random.default_rng(5)
    xs = measure.sample([rng], 37)[0]
    C = rng.standard_normal((grid.m, 2))
    atol = 1e-13 * float(np.abs(C).sum())
    for coeffs in (C[:, 0], C):
        dense = kernel_apply(kernel, xs, grid.nodes, coeffs)
        np.testing.assert_allclose(op.at_points(xs, coeffs), dense, rtol=0, atol=atol)


@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_kronecker_sup_grid_values_match_dense_kernel_apply(case):
    # An expansion centred on data, evaluated on the product sup-norm
    # grid from per-axis rows: at d = 2, R_1 diag(a) R_2'.
    kernel, measure, _, op, _ = _kron_case(case)
    rng = np.random.default_rng(6)
    xs = measure.sample([rng], 41)[0]
    a = rng.standard_normal(41)
    dense = kernel_apply(kernel, measure.eval_grid, xs, a)
    got = op.on_product(op.split(measure.eval_axes), xs, a)
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * float(np.abs(a).sum()))


def _centers_and_coeffs(measure, seed):
    """Centers and coefficients for one set (41 points) and a stack of three."""
    rng = np.random.default_rng(seed)
    stack = measure.sample([rng] * 3, 41)
    coeffs = rng.standard_normal((3, 41))
    return [(stack[0], coeffs[0]), (stack, coeffs)]


def _assert_plain_sum(got, rows, coeffs):
    """got is rows @ coeffs, the plain kernel sum, within 1e-13 * sum |coeffs| per column.

    coeffs is (..., m, k), and got has the shape of rows @ coeffs.
    """
    want = rows @ coeffs
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(coeffs).sum(axis=-2, keepdims=True))


def test_1d_gaussian_sup_grid_takes_the_factored_axis_apply(kernel_paths):
    # The 512-point sup-norm axis is np.linspace of its ends with every
    # data point on it, so kernel_apply takes the axis transform.
    op = GridOperator(GAUSS, build_grid(UNIFORM, 64))
    P = op.split(UNIFORM.eval_axes)
    for xs, a in _centers_and_coeffs(UNIFORM, 7):
        got = op.on_product(P, xs, a)
        rows = kernels_mod.cross_gram(GAUSS, UNIFORM.eval_grid, xs)
        _assert_plain_sum(got[..., None], rows, a[..., None])
    assert kernel_paths == ["axis", "axis"]


def test_1d_gaussian_at_points_takes_the_taylor_transform(kernel_paths):
    op = GridOperator(GAUSS, build_grid(UNIFORM, 256))
    rng = np.random.default_rng(9)
    xs = UNIFORM.sample([rng], 50)[0]
    C = rng.standard_normal((256, 2))
    for coeffs in (C[:, 0], C):
        got = op.at_points(xs, coeffs).reshape(50, -1)
        rows = kernels_mod.cross_gram(GAUSS, xs, op.grid.nodes)
        _assert_plain_sum(got, rows, coeffs.reshape(256, -1))
    assert kernel_paths == ["taylor", "taylor"]


@pytest.mark.parametrize(
    "kernel, measure",
    [
        (KernelSpec("laplace", 0.25, 1), UNIFORM),
        (KernelSpec("rational_quadratic", 0.25, 1), UNIFORM),
        (CONSTANT, UNIFORM),
        (KernelSpec("gaussian", 0.4, 2), BOX_2D),
        (KernelSpec("gaussian", 0.8, 3), BOX_3D),
        (GAUSS, DesignMeasure.dirac(0.3)),
    ],
    ids=["laplace", "rational_quadratic", "constant", "gaussian-2d", "gaussian-3d", "dirac"],
)
def test_every_other_at_points_keeps_the_kernel_apply_path(kernel_paths, kernel, measure):
    # No transform pays off here: a 1-d Gaussian factor of 8 or 4 nodes,
    # or a single node, has 15 Q >= p_k, so its Taylor transform assembles.
    # The dirac draws are 37 copies of its node, np.linspace of their ends
    # with the node on them: one column takes the axis transform, exact
    # at width 0.
    op = GridOperator(kernel, build_grid(measure, 64))
    rng = np.random.default_rng(10)
    xs = measure.sample([rng], 37)[0]
    C = rng.standard_normal((op.grid.m, 2))
    for coeffs in (C[:, 0], C):
        got = op.at_points(xs, coeffs).reshape(37, -1)
        rows = kernels_mod.cross_gram(kernel, xs, op.grid.nodes)
        _assert_plain_sum(got, rows, coeffs.reshape(op.grid.m, -1))
    assert kernel_paths == ["axis" if measure.kind == "dirac" else "assembly", "assembly"]


def _nudged(axis):
    """axis with one inner point moved by an ulp: not np.linspace of its ends."""
    out = axis.copy()
    out[len(out) // 2] = np.nextafter(out[len(out) // 2], np.inf)
    return out


@pytest.mark.parametrize(
    "kernel, measure, edit",
    [
        (KernelSpec("laplace", 0.25, 1), UNIFORM, None),
        (KernelSpec("rational_quadratic", 0.25, 1), UNIFORM, None),
        (CONSTANT, UNIFORM, None),
        (KernelSpec("gaussian", 0.4, 2), BOX_2D, None),
        (KernelSpec("gaussian", 0.8, 3), BOX_3D, None),
        (GAUSS, UNIFORM, "not-linspace"),
        (GAUSS, UNIFORM, "center-outside"),
    ],
    ids=["laplace", "rational_quadratic", "constant", "gaussian-2d", "gaussian-3d",
         "not-linspace", "center-outside"],
)
def test_every_other_sup_grid_keeps_the_product_path(kernel_paths, kernel, measure, edit):
    # No axis transform: the kernel, the axis or a center rules it out,
    # and at d >= 2 the last factor's rows meet several columns.
    op = GridOperator(kernel, build_grid(measure, 64))
    axes = measure.eval_axes
    if edit == "not-linspace":
        axes = (_nudged(axes[0]),)
    P = op.split(axes)
    grid = fredholm_mod._product(list(axes))
    for xs, a in _centers_and_coeffs(measure, 8):
        if edit == "center-outside":
            xs = xs.copy()
            xs[..., -1, 0] = 1.0 + 1e-9
        got = op.on_product(P, xs, a)
        _assert_plain_sum(got[..., None], kernels_mod.cross_gram(kernel, grid, xs), a[..., None])
    assert len(kernel_paths) == 2 and "axis" not in kernel_paths


@pytest.mark.parametrize(
    "kernel, measure, m",
    [(GAUSS, UNIFORM, 48), (KernelSpec("gaussian", 0.4, 2), BOX_2D, 64)],
    ids=["one-factor", "two-factors"],
)
def test_operator_serves_every_lambda_from_one_gram_and_one_sym_eig_per_factor(
    monkeypatch, kernel, measure, m
):
    calls = {"gram": 0, "sym_eig": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fredholm_mod, "gram", counted("gram", fredholm_mod.gram))
    monkeypatch.setattr(fredholm_mod, "sym_eig", counted("sym_eig", fredholm_mod.sym_eig))
    grid = build_grid(measure, m)
    op = GridOperator(kernel, grid)
    factors = len(op.factors)
    w0 = np.sin(2 * np.pi * grid.nodes[:, 0])
    f0, _ = f0_in_range(op, w0)
    assert calls == {"gram": factors, "sym_eig": 0}
    for lam in (1e-3, 1e-2, 0.1, 1.0, 10.0):
        sol = solve_coefficient(op, f0, lam)
        bias_norm_sq(sol, w0)
        op.effective_dimension(lam)
        assert sol.residual_max <= 1e-9
    assert calls == {"gram": factors, "sym_eig": factors}


def test_effective_dimension_constant_kernel_closed_form():
    # k = 1 makes S = W^(1/2) 1 1' W^(1/2) rank one with eigenvalue 1,
    # so N(lam) = 1 / (1 + lam).
    op = GridOperator(CONSTANT, build_grid(UNIFORM, 64))
    for lam in (1e-3, 0.1, 1.0, 10.0):
        assert op.effective_dimension(lam) == pytest.approx(1.0 / (1.0 + lam), abs=1e-12)
    with pytest.raises(ValueError):
        op.effective_dimension(0.0)


def test_effective_dimension_decreases_in_lambda():
    op = GridOperator(GAUSS, build_grid(UNIFORM, 64))
    dims = [op.effective_dimension(lam) for lam in (1e-4, 1e-3, 1e-2, 0.1, 1.0)]
    assert all(b < a for a, b in zip(dims, dims[1:]))
    assert dims[0] <= op.grid.m


def test_solver_input_validation():
    grid = build_grid(UNIFORM, 8)
    op = GridOperator(GAUSS, grid)
    with pytest.raises(ValueError):
        solve_coefficient(op, np.ones(8), 0.0)
    with pytest.raises(ValueError):
        solve_coefficient(op, np.ones(7), 0.5)


def test_flambda_expansion_zero_and_literal():
    grid = build_grid(UNIFORM, 16)
    op = GridOperator(CONSTANT, grid)
    zero_sol = solve_coefficient(op, np.zeros(16), 1.0)
    assert rkhs_norm_sq(flambda_expansion(zero_sol)) == 0.0
    sol = solve_coefficient(op, np.ones(16), 1.0)
    flam = flambda_expansion(sol)
    # f_lambda is the constant 1/2, of unit-kernel norm 1/2.
    grid_pts = np.linspace(0, 1, 7)
    np.testing.assert_allclose(evaluate_batch(flam, grid_pts), np.full(7, 0.5), atol=1e-10)
    assert rkhs_norm_sq(flam) == pytest.approx(0.25, abs=1e-10)
    assert sol.flambda_norm_sq == pytest.approx(0.25, abs=1e-10)
    assert zero_sol.flambda_norm_sq == 0.0


def test_flambda_norm_matches_double_sum():
    grid = build_grid(UNIFORM, 24)
    op = GridOperator(GAUSS, grid)
    w0 = np.sin(2 * np.pi * grid.nodes[:, 0])
    f0, _ = f0_in_range(op, w0)
    sol = solve_coefficient(op, f0, 0.2)
    flam = flambda_expansion(sol)
    coeffs = np.asarray(flam.coeffs)
    nodes = grid.nodes
    double_sum = sum(
        coeffs[i] * coeffs[j] * kernel_eval(GAUSS, nodes[i], nodes[j])
        for i in range(grid.m)
        for j in range(grid.m)
    )
    assert rkhs_norm_sq(flam) == pytest.approx(double_sum, abs=1e-10)
    assert sol.flambda_norm_sq == pytest.approx(double_sum, abs=1e-10)


def test_f0_in_range_zero_and_constant_kernel():
    grid = build_grid(UNIFORM, 32)
    f0, c0 = f0_in_range(GridOperator(GAUSS, grid), np.zeros(32))
    np.testing.assert_allclose(f0, np.zeros(32), atol=1e-15)
    assert c0 == 0.0
    # constant kernel with w0 = x: f0 = integral of x = 1/2, c0 = 1/2.
    f0c, c0c = f0_in_range(GridOperator(CONSTANT, grid), grid.nodes[:, 0])
    np.testing.assert_allclose(f0c, np.full(32, 0.5), atol=1e-12)
    assert c0c == pytest.approx(0.5, abs=1e-12)


def test_f0_grid_refinement_agreement():
    w0 = lambda x: np.sin(2 * np.pi * x)
    probes = np.array([0.1, 0.37, 0.82])
    values = []
    for m in (200, 400):
        grid = build_grid(UNIFORM, m)
        w0_vals = w0(grid.nodes[:, 0])
        f0_expansion = KernelExpansion(GAUSS, grid.nodes, grid.weights * w0_vals)
        values.append(evaluate_batch(f0_expansion, probes))
    np.testing.assert_allclose(values[0], values[1], atol=1e-6)


def test_continuous_objective_noise_floor_only():
    grid = build_grid(UNIFORM, 16)
    sol = solve_coefficient(GridOperator(GAUSS, grid), np.zeros(16), 0.3)
    assert continuous_objective(sol, 0.04) == pytest.approx(0.04, abs=1e-15)


def test_continuous_objective_rank_one_literal():
    # Constant kernel, f0 = 1, lam = 1: w = 1/2, f_lambda = 1/2, and
    # lam <w, Kw> + lam^2 ||w||^2 = 1/4 + 1/4 = 1/2.
    grid = build_grid(UNIFORM, 16)
    sol = solve_coefficient(GridOperator(CONSTANT, grid), np.ones(16), 1.0)
    assert continuous_objective(sol, 0.0) == pytest.approx(0.5, abs=1e-10)


def test_continuous_objective_two_routes():
    # lam <w, f_lambda> + lam^2 ||w||^2 = lam <w, f0> because
    # f0 - f_lambda = lam w; both quadrature routes must agree.
    grid = build_grid(UNIFORM, 48)
    op = GridOperator(GAUSS, grid)
    w0 = np.sin(2 * np.pi * grid.nodes[:, 0])
    f0, _ = f0_in_range(op, w0)
    for lam in (0.05, 0.2, 1.0):
        sol = solve_coefficient(op, f0, lam)
        route_a = continuous_objective(sol, 0.04)
        route_b = 0.04 + lam * float((grid.weights * sol.w_values) @ sol.f0_values)
        assert route_a == pytest.approx(route_b, abs=1e-12)


def test_continuous_objective_decomposed_form():
    # irreducible + ||f0 - f_lambda||_L2^2 + lam ||f_lambda||_k^2 is the
    # same value: the L2 gap is lam^2 ||w||_L2^2 and the penalty term is
    # lam <w, Kw>.
    grid = build_grid(UNIFORM, 48)
    op = GridOperator(GAUSS, grid)
    w0 = np.sin(2 * np.pi * grid.nodes[:, 0])
    f0, _ = f0_in_range(op, w0)
    for lam in (0.05, 0.2, 1.0):
        sol = solve_coefficient(op, f0, lam)
        gap_l2 = float(grid.weights @ (sol.f0_values - sol.flambda_values) ** 2)
        decomposed = 0.04 + gap_l2 + lam * rkhs_norm_sq(flambda_expansion(sol))
        assert continuous_objective(sol, 0.04) == pytest.approx(decomposed, abs=1e-9)


def test_bias_constant_kernel_closed_form():
    # w0 = x^3: f0 = 1/4, w = (1/4)/(1+lam), and
    # ||f0 - f_lambda||_k = (1/4) lam / (1 + lam).
    grid = build_grid(UNIFORM, 128)
    op = GridOperator(CONSTANT, grid)
    w0 = grid.nodes[:, 0] ** 3
    f0, c0 = f0_in_range(op, w0)
    assert c0 == pytest.approx(0.25, abs=1e-12)
    lam = 0.3
    sol = solve_coefficient(op, f0, lam)
    expected = (0.25 * lam / (1.0 + lam)) ** 2
    assert bias_norm_sq(sol, w0) == pytest.approx(expected, abs=1e-12)


def test_bias_bounded_by_c0_lambda_unit_eigenvalue_operator():
    # The linear-in-lam bound with the range-norm constant is exact for
    # the constant kernel, whose only nonzero eigenvalue is 1:
    # bias = C0 lam / (1 + lam) <= C0 lam.
    grid = build_grid(UNIFORM, 96)
    op = GridOperator(CONSTANT, grid)
    w0 = grid.nodes[:, 0] ** 3
    f0, c0 = f0_in_range(op, w0)
    for lam in (0.01, 0.1, 1.0):
        sol = solve_coefficient(op, f0, lam)
        bias = np.sqrt(bias_norm_sq(sol, w0))
        assert bias <= c0 * lam * (1 + 1e-9) + 1e-12
        assert bias == pytest.approx(c0 * lam / (1 + lam), abs=1e-12)


def test_bias_bounded_by_sandwich_rate():
    # Spectrally, mu/(lam+mu)^2 <= 1/(4 lam) gives the kernel-free bound
    # ||f0 - f_lambda||_k^2 <= (lam/4) ||w0||_L2^2 for any f0 = K w0.
    grid = build_grid(UNIFORM, 96)
    op = GridOperator(GAUSS, grid)
    w0 = np.sin(2 * np.pi * grid.nodes[:, 0])
    f0, _ = f0_in_range(op, w0)
    w0_l2_sq = float(grid.weights @ (w0 * w0))
    for lam in (0.01, 0.1, 1.0):
        sol = solve_coefficient(op, f0, lam)
        assert bias_norm_sq(sol, w0) <= 0.25 * lam * w0_l2_sq * (1 + 1e-9) + 1e-12


def test_bias_slope_near_one_for_rank_one_operator():
    grid = build_grid(UNIFORM, 128)
    op = GridOperator(CONSTANT, grid)
    w0 = grid.nodes[:, 0] ** 3
    f0, _ = f0_in_range(op, w0)
    lams = np.logspace(-3, 0, 13)
    biases = [
        np.sqrt(bias_norm_sq(solve_coefficient(op, f0, lam), w0))
        for lam in lams
    ]
    slope = np.polyfit(np.log(lams), np.log(biases), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_flambda_grid_refinement():
    probes = np.array([0.15, 0.5, 0.9])
    values = []
    for m in (256, 512):
        grid = build_grid(UNIFORM, m)
        op = GridOperator(GAUSS, grid)
        w0 = np.sin(2 * np.pi * grid.nodes[:, 0])
        f0, _ = f0_in_range(op, w0)
        sol = solve_coefficient(op, f0, 0.2)
        values.append(evaluate_batch(flambda_expansion(sol), probes))
    np.testing.assert_allclose(values[0], values[1], atol=1e-5)


def _scenario(kernel, design, grid_m):
    return dataclasses.replace(canonical_scenario(), kernel=kernel, design=design, grid_m=grid_m)


def _recorded_ridge_solves(monkeypatch):
    """Each replication chunk's ridge solve as (K, shift, L, B, X), with the
    stack of data matrices K taken whole from the chunk's data operator,
    as its products with the identity: from the upper triangle of a Gram,
    or through the Taylor transform where no Gram is built."""
    solves = []
    orig = exp._ridge_factor

    def recorded(K, shift, low_rank=None):
        factor = orig(K, shift, low_rank)
        solve = factor.solve_with_product

        def solve_with_product(B):
            X, KX, errors = solve(B)
            members, n = B.shape[:2]
            full = K.product(np.broadcast_to(np.eye(n), (members, n, n)))
            solves.append((full, shift, low_rank, B, X))
            return X, KX, errors

        factor.solve_with_product = solve_with_product
        return factor

    monkeypatch.setattr(exp, "_ridge_factor", recorded)
    return solves


UNIT_SQUARE = DesignMeasure.uniform((0.0, 0.0), (1.0, 1.0))
# (kernel, design, grid_m) whose grid resolves the kernel: its Nystrom
# extension L to the data gives L L' within 1e-11 of the data Gram.
NYSTROM_CASES = {
    "gaussian-0.25": (GAUSS, UNIFORM, 256),
    "gaussian-0.05": (KernelSpec("gaussian", 0.05, 1), UNIFORM, 256),
    "rational-quadratic": (KernelSpec("rational_quadratic", 0.25, 1), UNIFORM, 256),
    "gaussian-2d-m256": (KernelSpec("gaussian", 0.25, 2), UNIT_SQUARE, 256),
    "gaussian-2d-m1024": (KernelSpec("gaussian", 0.25, 2), UNIT_SQUARE, 1024),
    "truncated-gaussian-0.05": (GAUSS, GRADED, 256),
}


@pytest.mark.parametrize("case", sorted(NYSTROM_CASES))
def test_replication_solves_on_the_grid_nystrom_factor(monkeypatch, cho_factor_calls, case):
    # From n = 10 r the ridge system takes the Woodbury rung on the grid
    # operator's Nystrom extension to the data: only the r x r inner
    # matrix is factored, and the solution's residual against K itself
    # is at roundoff. One point fewer, the factor is dense.
    scenario = _scenario(*NYSTROM_CASES[case])
    r = exp._design_context(scenario).op.rank
    n = LOW_RANK_MIN_RATIO * r
    exp.continuous_solution(scenario, 0.2)
    solves = _recorded_ridge_solves(monkeypatch)
    cho_factor_calls.clear()
    exp.run_replication(scenario, n, 0.2, 0)
    assert cho_factor_calls == [(r, r)]
    ((K, shift, L, B, X),) = solves
    assert L.shape == (1, n, r)
    assert np.max(np.abs(K - L @ np.swapaxes(L, -1, -2))) <= 1e-10
    residual = K @ X + shift * X - B
    assert np.all(np.linalg.norm(residual, axis=-2) <= 1e-12 * np.linalg.norm(B, axis=-2))
    cho_factor_calls.clear()
    exp.run_replication(scenario, n - 1, 0.2, 0)
    assert cho_factor_calls == [(n - 1, n - 1)]
    assert solves[1][2] is None


def test_a_poor_nystrom_factor_climbs_to_the_dense_rung(monkeypatch, cho_factor_calls):
    # On 32 nodes the Laplace spectrum has not decayed (r = m), so the
    # Nystrom extension misses the data Gram by about 0.1. Its diagonal
    # defect tr(K - L L') = n - ||L||_F^2 is about 17, far above the
    # shift times (n eps)^(1/6) that refinement needs to reach rounding
    # within its steps: the member goes straight to the dense Cholesky,
    # with no r x r factor, and its solution is the dense solve's.
    scenario = _scenario(KernelSpec("laplace", 0.25, 1), UNIFORM, 32)
    r = exp._design_context(scenario).op.rank
    n = LOW_RANK_MIN_RATIO * r
    exp.continuous_solution(scenario, 0.2)
    solves = _recorded_ridge_solves(monkeypatch)
    cho_factor_calls.clear()
    exp.run_replication(scenario, n, 0.2, 0)
    assert r == 32 and cho_factor_calls == [(n, n)]
    ((K, shift, L, B, X),) = solves
    assert np.max(np.abs(K - L @ np.swapaxes(L, -1, -2))) > 1e-2
    assert n - np.sum(L * L) > shift * (n * np.finfo(np.float64).eps) ** (1 / 6)
    dense = np.linalg.solve(K[0] + shift * np.eye(n), B[0])
    gap = np.linalg.norm(X[0] - dense, axis=0)
    assert np.all(gap <= 1e-12 * np.linalg.norm(dense, axis=0))
