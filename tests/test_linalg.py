"""SPD solves with their per-column residual check, eigendecomposition,
and the resolvent sandwich bound in the Loewner order."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpstrf

from rkhsreg.kernels import KernelSpec, gram
from rkhsreg.linalg import (
    NotPositiveDefiniteError,
    UNIT_ROUNDOFF,
    SpdFactor,
    loewner_leq,
    pivoted_cholesky,
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


def test_factor_records_jitter_and_serves_many_solves(cho_factor_calls):
    rng = np.random.default_rng(12)
    A = _random_spd(rng, 9)
    factor = SpdFactor(A)
    for _ in range(3):
        B = rng.standard_normal((9, 2))
        np.testing.assert_allclose(factor.solve(B), np.linalg.solve(A, B), atol=1e-10)
    assert len(cho_factor_calls) == 1


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
    SpdFactor(K, shift=lam, divisor=n).solve(K[:, :2])
    SpdFactor(K, shift=lam, divisor=n, low_rank=pivoted_cholesky(K, max_rank=60)).solve(K[:, :2])
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


def test_pivoted_cholesky_capped_loop_matches_dpstrf():
    # Both pivot on the largest remaining diagonal and stop at
    # n * eps * max diag(A): same rank, and the dropped remainder
    # A - L L' keeps a trace within (n - r) * tol.
    K = _smooth_gram(300)
    full = _dpstrf_factor(K)
    capped = pivoted_cholesky(K, max_rank=60)
    n, r = K.shape[0], full.shape[1]
    assert r < 30 and capped.shape == (n, r)
    np.testing.assert_allclose(capped @ capped.T, full @ full.T, rtol=0, atol=1e-12)
    tol = n * UNIT_ROUNDOFF
    assert float(np.trace(K - capped @ capped.T)) <= (n - r) * tol + 1e-12
    assert np.max(np.abs(K - capped @ capped.T)) <= 1e-10


def test_pivoted_cholesky_gives_up_past_the_cap():
    K = _smooth_gram(300)
    r = _dpstrf_factor(K).shape[1]
    assert pivoted_cholesky(K, max_rank=r) is not None
    assert pivoted_cholesky(K, max_rank=r - 1) is None
    # A full-rank matrix passes any cap below n.
    assert pivoted_cholesky(np.eye(5), max_rank=4) is None
    assert pivoted_cholesky(np.eye(5), max_rank=5).shape == (5, 5)


def test_woodbury_rung_solves_without_a_dense_factor(cho_factor_calls):
    K = _smooth_gram(300)
    n, lam = K.shape[0], 0.1
    A = lam * np.eye(n) + K / n
    L = pivoted_cholesky(K, max_rank=60)
    B = np.random.default_rng(15).standard_normal((n, 2))
    tracemalloc.start()
    factor = SpdFactor(K, shift=lam, divisor=n, low_rank=L)
    X = factor.solve(B)
    X = factor.solve(B)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _assert_columns_close(X, np.linalg.solve(A, B), 1e-12)
    # Factor and solves, residual checks included, never form lam*I + K/n.
    assert cho_factor_calls == [(L.shape[1], L.shape[1])]
    assert peak < 0.25 * K.nbytes


def test_corrupted_low_rank_form_climbs_to_the_dense_rung(cho_factor_calls):
    # A factor of a different matrix factors fine on the Woodbury rung,
    # but its solutions fail the per-column check against A itself, so
    # the solve climbs to the dense Cholesky of A and returns A^-1 B.
    K = _smooth_gram(300)
    n, lam = K.shape[0], 0.1
    A = lam * np.eye(n) + K / n
    L = pivoted_cholesky(K, max_rank=60)
    factor = SpdFactor(K, shift=lam, divisor=n, low_rank=1.01 * L)
    B = np.random.default_rng(16).standard_normal((n, 2))
    _assert_columns_close(factor.solve(B), np.linalg.solve(A, B), 1e-12)
    assert cho_factor_calls == [(L.shape[1], L.shape[1]), (n, n)]


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
