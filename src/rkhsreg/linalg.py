"""Symmetric positive-definite solves, eigendecomposition, and Loewner
order comparisons.

These primitives back every regularized fit in the package and the
randomized matrix-inequality suites: (lam*I + K)^-1 applications via
Cholesky with a relative jitter retry ladder, and the bound
(lam+K)^-1 K (lam+K)^-1 <= 1/(4*lam) checked in the Loewner order.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from numpy.typing import NDArray


# Jitter policy for Cholesky solves of nearly singular systems: the first
# retry adds JITTER_REL * trace(A)/n to the diagonal, and each further
# retry doubles it, MAX_JITTER_DOUBLINGS times.
JITTER_REL = 1e-12
MAX_JITTER_DOUBLINGS = 20


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix cannot be factorized as positive definite."""


def _check_symmetric(A: NDArray[np.float64], name: str) -> NDArray[np.float64]:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
    if float(np.max(np.abs(A - A.T))) > 1e-10 * scale:
        raise ValueError(f"{name} is not symmetric")
    return A


def solve_spd(A: NDArray[np.float64], B: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solves A X = B for symmetric positive definite A by Cholesky.

    If factorization fails (or the solution fails the residual check
    ||A X - B|| <= 1e-8 ||B||), the diagonal is jittered by
    JITTER_REL * trace(A)/n, doubling up to MAX_JITTER_DOUBLINGS times.

    Args:
        A: Symmetric matrix, intended positive definite.
        B: Right-hand side vector (n,) or matrix (n, m).

    Returns:
        X with the same shape as B.

    Raises:
        NotPositiveDefiniteError: If every jitter level fails.
        ValueError: On non-square or asymmetric A, or shape mismatch.
    """
    A = _check_symmetric(A, "A")
    B = np.asarray(B, dtype=np.float64)
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValueError(f"B has leading dimension {B.shape[0]}, expected {n}")

    norm_b = float(np.linalg.norm(B))
    trace = float(np.trace(A))
    base = JITTER_REL * (trace / n if trace > 0 else 1.0)
    jitters = [0.0] + [base * 2.0**k for k in range(MAX_JITTER_DOUBLINGS + 1)]
    for jitter in jitters:
        try:
            M = A if jitter == 0.0 else A + jitter * np.eye(n)
            c, low = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
            X = scipy.linalg.cho_solve((c, low), B, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        residual = float(np.linalg.norm(A @ X - B))
        if residual <= 1e-8 * norm_b or norm_b == 0.0:
            return X
    raise NotPositiveDefiniteError("matrix not positive definite after jitter retries")


def sym_eig(A: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigendecomposition of a symmetric matrix.

    Returns:
        (eigenvalues ascending, orthonormal eigenvectors as columns),
        so A == V @ diag(vals) @ V.T up to roundoff.
    """
    A = _check_symmetric(A, "A")
    vals, vecs = scipy.linalg.eigh(A, check_finite=False)
    return vals, vecs


def loewner_leq(A: NDArray[np.float64], B: NDArray[np.float64], tol: float) -> bool:
    """Tests A <= B in the Loewner order with a relative margin.

    True iff the minimum eigenvalue of B - A is at least
    -tol * max(1, ||B||_inf).
    """
    A = _check_symmetric(A, "A")
    B = _check_symmetric(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    diff = B - A
    min_eig = float(scipy.linalg.eigh(diff, eigvals_only=True, check_finite=False)[0])
    return min_eig >= -tol * max(1.0, float(np.linalg.norm(B, np.inf)))


def sandwich(K: NDArray[np.float64], lam: float) -> NDArray[np.float64]:
    """Returns (lam*I + K)^-1 K (lam*I + K)^-1, exactly symmetrized.

    For positive semidefinite K all eigenvalues of the result are at
    most 1/(4*lam), with equality when K has an eigenvalue equal to lam.

    Raises:
        ValueError: If lam <= 0.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    K = _check_symmetric(K, "K")
    A = lam * np.eye(K.shape[0]) + K
    Y = solve_spd(A, K)
    Z = solve_spd(A, Y.T).T
    return 0.5 * (Z + Z.T)
