"""SPD solves with jitter retries, eigendecomposition, and the
resolvent sandwich bound in the Loewner order."""

import numpy as np
import pytest

from rkhsreg.kernels import KernelSpec, gram
from rkhsreg.linalg import (
    NotPositiveDefiniteError,
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


def test_jitter_recovers_in_range_singular_system():
    # The all-ones matrix is PSD singular; with an in-range right-hand
    # side the jitter ladder produces the minimum-norm-style solution.
    A = np.ones((2, 2))
    x = solve_spd(A, np.array([1.0, 1.0]))
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-6)


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
