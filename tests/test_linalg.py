"""SPD solves with their per-column residual check, eigendecomposition,
and the resolvent sandwich bound in the Loewner order."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpstrf

import rkhsreg.estimator as estimator
import rkhsreg.linalg as linalg
from rkhsreg.auxiliary import auxiliary_residuals
from rkhsreg.estimator import Dataset, gp_posterior_band
from rkhsreg.fredholm import DesignMeasure, GridOperator, build_grid
from rkhsreg.kernels import KernelSpec, gram
from rkhsreg.linalg import (
    NotPositiveDefiniteError,
    SpdFactor,
    loewner_leq,
    sandwich,
    solve_spd,
    sym_eig,
)


def _random_spd(rng, n, cond_boost=1.0):
    M = rng.standard_normal((n, n))
    return M @ M.T + cond_boost * np.eye(n)


def _random_psd_with_eigs(rng, eigs):
    n = len(eigs)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = (Q * eigs) @ Q.T
    return 0.5 * (K + K.T)


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.5])
    x = solve_spd(np.eye(3), b)
    np.testing.assert_allclose(x, b, atol=1e-14)


def test_solve_diagonal():
    d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    x = solve_spd(np.diag(d), np.ones(5))
    np.testing.assert_allclose(x, 1.0 / d, atol=1e-14)


def test_solve_matches_numpy():
    rng = np.random.default_rng(5)
    A = _random_spd(rng, 8)
    B = rng.standard_normal((8, 3))
    np.testing.assert_allclose(solve_spd(A, B), np.linalg.solve(A, B), atol=1e-10)


def test_multiply_back_residual():
    rng = np.random.default_rng(6)
    A = _random_spd(rng, 12)
    b = rng.standard_normal(12)
    x = solve_spd(A, b)
    assert float(np.linalg.norm(A @ x - b)) <= 1e-10 * float(np.linalg.norm(b))


def test_off_range_singular_raises():
    A = np.diag([1.0, 0.0])
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(A, np.array([0.0, 1.0]))


def test_negative_definite_raises():
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(-np.eye(3), np.ones(3))


def test_solve_input_validation():
    with pytest.raises(ValueError):
        solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))  # asymmetric
    with pytest.raises(ValueError):
        solve_spd(np.ones((2, 3)), np.ones(2))  # nonsquare
    with pytest.raises(ValueError):
        solve_spd(np.eye(3), np.ones(2))  # shape mismatch


def test_factor_serves_many_solves(cho_factor_calls):
    rng = np.random.default_rng(12)
    A = _random_spd(rng, 9)
    factor = SpdFactor(A)
    for _ in range(3):
        B = rng.standard_normal((9, 2))
        np.testing.assert_allclose(factor.solve(B), np.linalg.solve(A, B), atol=1e-10)
    assert len(cho_factor_calls) == 1


def _gram_stack(seed, B=5, n=30):
    rng = np.random.default_rng(seed)
    K = gram(KernelSpec("gaussian", 0.3, 1), rng.uniform(0.0, 1.0, (B, n, 1)))
    return K, rng.standard_normal((B, n, 2))


def _assert_member_solves(X, KX, K, shift, rhs):
    # One member against solve_spd on its own K + shift*I.
    x = solve_spd(K + shift * np.eye(K.shape[0]), rhs)
    np.testing.assert_allclose(X, x, rtol=1e-12, atol=1e-12 * np.max(np.abs(x)))
    Kx = K @ x
    np.testing.assert_allclose(KX, Kx, rtol=1e-12, atol=1e-12 * np.max(np.abs(Kx)))


@pytest.mark.parametrize("woodbury", [False, True], ids=["dense", "woodbury"])
def test_factor_stack_solves_each_member(cho_factor_calls, woodbury):
    # The dense rung factors every member in place, one cho_factor call
    # per member, and checks them all with one batched product; the
    # Woodbury rung factors each member's r x r inner matrix instead.
    K, rhs = _gram_stack(31)
    low_rank = [_dpstrf_factor(Kb) for Kb in K] if woodbury else None
    given = rhs.copy()
    X, KX, errors = SpdFactor(K, 0.5, low_rank).solve_with_product(rhs)
    assert errors == [None] * 5 and X.shape == KX.shape == rhs.shape
    assert np.array_equal(rhs, given)
    assert len(cho_factor_calls) == 5
    assert all(shape[0] < 30 for shape in cho_factor_calls) == woodbury
    for b in range(5):
        _assert_member_solves(X[b], KX[b], K[b], 0.5, rhs[b])


@pytest.mark.parametrize("woodbury", [False, True], ids=["dense", "woodbury"])
def test_a_nan_right_hand_side_fails_its_member_alone(woodbury):
    # A NaN residual fails the check on either rung; the other members
    # are solved.
    K, rhs = _gram_stack(33)
    rhs[2, 0, 1] = np.nan
    low_rank = [_dpstrf_factor(Kb) for Kb in K] if woodbury else None
    X, KX, errors = SpdFactor(K, 0.5, low_rank).solve_with_product(rhs)
    assert [error is None for error in errors] == [True, True, False, True, True]
    assert isinstance(errors[2], NotPositiveDefiniteError)
    for b in (0, 1, 3, 4):
        _assert_member_solves(X[b], KX[b], K[b], 0.5, rhs[b])


def test_factor_stack_fails_an_indefinite_member_alone():
    K, rhs = _gram_stack(32)
    X, KX, _ = SpdFactor(K, 0.5).solve_with_product(rhs)
    broken = K.copy()
    broken[2, 0, 0] = -5.0
    got_X, got_KX, errors = SpdFactor(broken, 0.5).solve_with_product(rhs)
    assert isinstance(errors[2], NotPositiveDefiniteError)
    assert "not positive definite" in str(errors[2])
    assert [e is None for e in errors] == [True, True, False, True, True]
    for b in (0, 1, 3, 4):
        assert np.array_equal(got_X[b], X[b]) and np.array_equal(got_KX[b], KX[b])


def test_factor_stack_fails_a_member_whose_check_fails_alone(monkeypatch):
    # The second member's solution is perturbed after its solve, which
    # writes it in place, so its residual check, made in the batched
    # pass, must fail it alone. Its relative residual is about 1e-7,
    # within a factor of ten of the check's 1e-8.
    K, rhs = _gram_stack(33)
    X, KX, _ = SpdFactor(K, 0.5).solve_with_product(rhs)
    orig = linalg._cho_solve
    calls = []

    def second_off(factor, B, overwrite_b=False):
        calls.append(B.shape)
        x = orig(factor, B, overwrite_b)
        if len(calls) == 2:
            x *= 1.0 + 1e-7
        return x

    monkeypatch.setattr(linalg, "_cho_solve", second_off)
    got_X, got_KX, errors = SpdFactor(K, 0.5).solve_with_product(rhs)
    assert str(errors[1]) == "Cholesky solution fails its residual check"
    assert isinstance(errors[1], NotPositiveDefiniteError)
    assert [e is None for e in errors] == [True, False, True, True, True]
    for b in (0, 2, 3, 4):
        assert np.array_equal(got_X[b], X[b]) and np.array_equal(got_KX[b], KX[b])


def test_factor_checks_every_column():
    # A factors, but with eigenvalues 1 and 1e-12 the Cholesky solution
    # along the small eigenvector v2 keeps a relative residual near 3e-5.
    # Measured against ||B|| as a whole that column would pass (about
    # 3e-17); per column it fails, while the first column passes alone.
    v1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v2 = np.array([1.0, -1.0]) / np.sqrt(2.0)
    A = np.outer(v1, v1) + 1e-12 * np.outer(v2, v2)
    A = 0.5 * (A + A.T)
    B = np.column_stack([1e9 * v1, 1e-3 * v2])
    with pytest.raises(NotPositiveDefiniteError):
        SpdFactor(A).solve(B)
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(A, B)
    x = solve_spd(A, B[:, :1])
    assert np.linalg.norm(A @ x - B[:, :1]) <= 1e-8 * 1e9


@pytest.mark.parametrize("order", ["C", "F"])
def test_no_factorization_writes_into_its_input(order):
    # The dense Cholesky overwrites the array it factors; that array must
    # be a fresh one. A Fortran-order input is one LAPACK could overwrite.
    K = np.asarray(_smooth_gram(300), order=order)
    n, lam = K.shape[0], 0.1
    A = np.asarray(_random_spd(np.random.default_rng(17), 9), order=order)
    B = np.random.default_rng(18).standard_normal((9, 2))
    saved = {"A": A.copy(), "B": B.copy(), "K": K.copy()}
    solve_spd(A, B)
    SpdFactor(K, shift=n * lam).solve(K[:, :2])
    SpdFactor(K, shift=n * lam, low_rank=_dpstrf_factor(K)).solve(K[:, :2])
    sandwich(A, lam)
    for name, value in (("A", A), ("B", B), ("K", K)):
        np.testing.assert_array_equal(value, saved[name], err_msg=name)


def _assert_columns_close(X, Y, rtol):
    assert np.all(np.linalg.norm(X - Y, axis=0) <= rtol * np.linalg.norm(Y, axis=0))


def _smooth_gram(n, seed=14):
    xs = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 1))
    return gram(KernelSpec("gaussian", 0.25, 1), xs)


def _dpstrf_factor(A):
    # LAPACK's pivoted Cholesky at its default tolerance n * eps * max diag(A).
    c, piv, rank, _ = dpstrf(A, tol=-1.0, lower=1)
    L = np.empty((A.shape[0], rank))
    L[piv - 1] = np.tril(c[:, :rank])
    return L


def test_woodbury_rung_solves_without_a_dense_factor(cho_factor_calls):
    K = _smooth_gram(300)
    n, lam = K.shape[0], 0.1
    A = n * lam * np.eye(n) + K
    L = _dpstrf_factor(K)
    B = np.random.default_rng(15).standard_normal((n, 2))
    tracemalloc.start()
    factor = SpdFactor(K, shift=n * lam, low_rank=L)
    X = factor.solve(B)
    X = factor.solve(B)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _assert_columns_close(X, np.linalg.solve(A, B), 1e-12)
    # Factor and solves, residual checks included, never form n*lam*I + K.
    assert cho_factor_calls == [(L.shape[1], L.shape[1])]
    assert peak < 0.25 * K.nbytes


def test_corrupted_low_rank_form_climbs_to_the_dense_rung(cho_factor_calls):
    # A factor of a different matrix factors fine on the Woodbury rung,
    # but its solutions fail the per-column check against A itself.
    # Conjugate gradients on the same r x r factor take them to the dense
    # rung's accuracy, A^-1 B to 1e-12, without factoring A itself.
    K = _smooth_gram(300)
    n, lam = K.shape[0], 0.1
    A = n * lam * np.eye(n) + K
    L = _dpstrf_factor(K)
    factor = SpdFactor(K, shift=n * lam, low_rank=1.01 * L)
    B = np.random.default_rng(16).standard_normal((n, 2))
    _assert_columns_close(factor.solve(B), np.linalg.solve(A, B), 1e-12)
    assert cho_factor_calls == [(L.shape[1], L.shape[1])]


@pytest.mark.parametrize(
    "scale, products, unfinished_fails",
    [(1.0, 1, False), (1 + 1e-9, 3, False), (1 + 1e-6, 4, True), (1.01, 7, True)],
)
def test_a_woodbury_solve_is_refined_to_its_rounding_floor(
    monkeypatch, cho_factor_calls, scale, products, unfinished_fails
):
    # An exact low-rank form solves to rounding, n * eps * ||b||, checked
    # with one product by K. A wrong one is finished by conjugate
    # gradients on the same r x r factor, one product per step, and
    # checked with one fresh product, to the dense solve's accuracy: more
    # steps the farther off it is. A form 1e-6 or 1% off (the latter a
    # factor of a different matrix) has a Woodbury solution that alone
    # fails the 1e-8 check. No n x n matrix is factored.
    K = _smooth_gram(300)
    n, shift = K.shape[0], 3.0
    L = scale * _dpstrf_factor(K)
    B = np.random.default_rng(24).standard_normal((n, 2))
    unfinished = (B - L @ np.linalg.solve(L.T @ L + shift * np.eye(L.shape[1]), L.T @ B)) / shift
    residual = np.linalg.norm(K @ unfinished + shift * unfinished - B, axis=0)
    assert np.any(residual > 1e-8 * np.linalg.norm(B, axis=0)) == unfinished_fails
    calls = []
    orig = linalg._symmetric_product
    monkeypatch.setattr(linalg, "_symmetric_product", lambda K, Vt: calls.append(1) or orig(K, Vt))
    X, KX, errors = SpdFactor(K, shift, L).solve_with_product(B)
    assert errors == [None]
    _assert_columns_close(X, np.linalg.solve(K + shift * np.eye(n), B), 1e-12)
    r = L.shape[1]
    assert cho_factor_calls == [(r, r)]
    assert len(calls) == products
    # The K X handed back is a fresh product of the X handed back.
    assert np.array_equal(KX, orig(K[None], X.T[None])[0].T)


def test_a_corrupted_member_is_finished_alone(cho_factor_calls):
    # Three Woodbury members, the second with a low-rank form of a
    # different matrix: conjugate gradients finish it to the dense
    # solve's accuracy with no dense factor, and the other two keep the
    # bits of a stack with no corrupted member.
    K = np.stack([_smooth_gram(300, seed) for seed in (14, 15, 16)])
    n, shift = K.shape[-1], 30.0
    low_rank = [_dpstrf_factor(Kb) for Kb in K]
    rhs = np.random.default_rng(19).standard_normal((3, n, 2))
    X, KX, _ = SpdFactor(K, shift, low_rank).solve_with_product(rhs)
    cho_factor_calls.clear()
    corrupted = [low_rank[0], 1.01 * low_rank[1], low_rank[2]]
    got_X, got_KX, errors = SpdFactor(K, shift, corrupted).solve_with_product(rhs)
    assert errors == [None] * 3
    assert cho_factor_calls == [(L.shape[1],) * 2 for L in low_rank]
    _assert_member_solves(got_X[1], got_KX[1], K[1], shift, rhs[1])
    for b in (0, 2):
        assert np.array_equal(got_X[b], X[b]) and np.array_equal(got_KX[b], KX[b])


@pytest.mark.parametrize("woodbury", [False, True], ids=["dense", "woodbury"])
def test_a_matrix_is_solved_as_a_stack_of_one(woodbury):
    K = _smooth_gram(300)
    n, shift = K.shape[0], 30.0
    L = _dpstrf_factor(K) if woodbury else None
    B = np.random.default_rng(20).standard_normal((n, 2))
    X, KX, errors = SpdFactor(K, shift, L).solve_with_product(B)
    stack_X, stack_KX, stack_errors = SpdFactor(K[None], shift, [L]).solve_with_product(B[None])
    assert errors == stack_errors == [None]
    assert np.array_equal(X, stack_X[0]) and np.array_equal(KX, stack_KX[0])


def test_sandwich_factors_once(cho_factor_calls):
    rng = np.random.default_rng(13)
    K = _random_psd_with_eigs(rng, rng.uniform(0.0, 5.0, 10))
    S = sandwich(K, 0.3)
    assert cho_factor_calls == [(10, 10)]
    A = 0.3 * np.eye(10) + K
    expected = np.linalg.solve(A, np.linalg.solve(A, K).T).T
    np.testing.assert_allclose(S, 0.5 * (expected + expected.T), atol=1e-12)


def test_sym_eig_literal():
    vals, vecs = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)
    A = (vecs * vals) @ vecs.T
    np.testing.assert_allclose(A, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(7)
    A = _random_spd(rng, 6)
    vals, vecs = sym_eig(A)
    np.testing.assert_allclose((vecs * vals) @ vecs.T, A, atol=1e-10)
    assert np.all(np.diff(vals) >= 0)


def test_loewner_trivial_orders():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert loewner_leq(A, A, 1e-12)
    assert loewner_leq(A, A + np.eye(2), 1e-12)
    assert not loewner_leq(A + np.eye(2), A, 1e-12)
    assert loewner_leq(np.eye(2), 2 * np.eye(2), 1e-12)


def test_loewner_shape_mismatch_raises():
    with pytest.raises(ValueError):
        loewner_leq(np.eye(2), np.eye(3), 1e-8)


def test_sandwich_scalar_equality_case():
    # K = [[lam]] attains the bound: lam / (2 lam)^2 = 1/(4 lam).
    for lam in (1e-3, 1e-1, 1.0, 10.0):
        S = sandwich(np.array([[lam]]), lam)
        assert abs(float(S[0, 0]) - 1.0 / (4.0 * lam)) <= 1e-12


def test_sandwich_zero_matrix():
    S = sandwich(np.zeros((3, 3)), 0.5)
    np.testing.assert_allclose(S, np.zeros((3, 3)), atol=1e-15)


def test_sandwich_eigenvalue_bound_8x8():
    rng = np.random.default_rng(8)
    K = _random_psd_with_eigs(rng, rng.uniform(0.0, 5.0, 8))
    lam = 0.3
    vals, _ = sym_eig(sandwich(K, lam))
    assert float(vals[-1]) <= 1.0 / (4.0 * lam) + 1e-10


def test_sandwich_nonpositive_lam_raises():
    with pytest.raises(ValueError):
        sandwich(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        sandwich(np.eye(2), -1.0)


def test_sandwich_bound_random_suite():
    # Unit-scale version of the randomized acceptance suite: random PSD
    # matrices with eigenvalues up to 100 across several dimensions.
    rng = np.random.default_rng(9)
    lambdas = (1e-3, 1e-1, 1.0, 10.0)
    for _ in range(60):
        dim = int(rng.integers(1, 13))
        K = _random_psd_with_eigs(rng, rng.uniform(0.0, 100.0, dim))
        for lam in lambdas:
            S = sandwich(K, lam)
            assert loewner_leq(S, np.eye(dim) / (4.0 * lam), 1e-8)


def test_eigenvalue_floor_chain():
    # If K >= k_min in eigenvalue (so k_min K <= K^2), the sandwich is
    # bounded by I / k_min as well as by 1/(4 lam).
    rng = np.random.default_rng(10)
    k_min = 0.5
    for lam in (0.01, 0.3):
        K = _random_psd_with_eigs(rng, rng.uniform(k_min, 100.0, 7))
        S = sandwich(K, lam)
        assert loewner_leq(S, np.eye(7) / k_min, 1e-8)


def test_constant_kernel_gram_sandwich():
    # Rank-one Gram of duplicated points: eigenvalues n and 0, and
    # k_min K <= K^2 holds with k_min = 1 since K^2 = n K.
    K = gram(KernelSpec("constant", dim=1), np.zeros((6, 1)))
    np.testing.assert_allclose(K @ K, 6.0 * K, atol=1e-12)
    S = sandwich(K, 0.05)
    assert loewner_leq(S, np.eye(6), 1e-8)
    # eigenvalue n/(lam+n)^2 directly
    vals, _ = sym_eig(S)
    assert float(vals[-1]) == pytest.approx(6.0 / (0.05 + 6.0) ** 2, abs=1e-10)


def _nan_below(K):
    """K with every entry below the diagonal (of each member) set to NaN."""
    n = K.shape[-1]
    return np.where(np.tri(n, n, -1, dtype=bool), np.nan, K)


def _upper_triangle_cases():
    K = _smooth_gram(300)
    n, shift = K.shape[0], 30.0
    B = np.random.default_rng(21).standard_normal((n, 2))
    stack, stack_rhs = _gram_stack(32)
    stack[2, 0, 0] = -5.0
    rng = np.random.default_rng(22)
    fs, fl = rng.standard_normal((2, 5, 30))
    band_data = Dataset(np.random.default_rng(23).uniform(0.0, 1.0, (300, 1)), B[:, 0])
    band_kernel = KernelSpec("gaussian", 0.25, 1)

    def solved(K, low_rank=None):
        X, KX, errors = SpdFactor(K, shift, low_rank).solve_with_product(B)
        assert errors == [None]
        return X, KX

    def stack_solved(K):
        X, KX, errors = SpdFactor(K, 0.5).solve_with_product(stack_rhs)
        assert [e is None for e in errors] == [True, True, False, True, True]
        return X, KX

    def band(K, monkeypatch, low_rank):
        # gp_posterior_band builds its own Gram: the one given stands in.
        # With low_rank its 1-d Gaussian data side would take the Taylor
        # transform and build no Gram at all, so that is turned off here.
        monkeypatch.setattr(estimator, "gram", lambda spec, xs, upper=False: K)
        monkeypatch.setattr(estimator, "taylor_transform", lambda spec, low, high, centers: None)
        return gp_posterior_band(band_kernel, band_data, 30.0, np.linspace(0, 1, 201), low_rank)

    # Each low-rank form is made once from the full K: the consumers
    # under test are handed L, and read only K's upper triangle.
    L = _dpstrf_factor(K)
    op = GridOperator(band_kernel, build_grid(DesignMeasure.uniform(0.0, 1.0), 256))
    band_L = op.at_points(band_data.xs, op.nystrom_coefficients(band_data.n))
    return {
        "dense": (K, lambda K, _: solved(K)),
        "woodbury": (K, lambda K, _: solved(K, L)),
        "corrupted-woodbury": (K, lambda K, _: solved(K, 1.01 * L)),
        "stack-with-a-failing-member": (stack, lambda K, _: stack_solved(K)),
        "auxiliary-residuals": (stack, lambda K, _: auxiliary_residuals(fs, fl, K, 0.2)),
        "auxiliary-residuals-2d": (K[:30, :30], lambda K, _: auxiliary_residuals(fs[0], fl[0], K, 0.2)),
        "gp-band-dense": (gram(band_kernel, band_data.xs), lambda K, mp: band(K, mp, None)),
        "gp-band-woodbury": (gram(band_kernel, band_data.xs), lambda K, mp: band(K, mp, band_L)),
    }


@pytest.mark.parametrize("case", list(_upper_triangle_cases()))
def test_consumers_of_a_gram_read_only_its_upper_triangle(monkeypatch, cho_factor_calls, case):
    # gram(..., upper=True) leaves the lower triangle 0 and the engine
    # hands such a K on: every consumer must give the full K's results
    # with NaN below the diagonal. The corrupted Woodbury member is
    # finished by conjugate gradients, whose products read K too.
    K, run = _upper_triangle_cases()[case]
    expected = run(K, monkeypatch)
    got = run(_nan_below(K), monkeypatch)
    for value, reference in zip(got, expected):
        assert np.all(np.isfinite(value))
        np.testing.assert_allclose(value, reference, rtol=1e-12, atol=0)
    if case == "corrupted-woodbury":
        assert (300, 300) not in cho_factor_calls
