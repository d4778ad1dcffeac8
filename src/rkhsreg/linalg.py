"""Symmetric positive-definite solves, the capped pivoted Cholesky,
eigendecomposition, and Loewner order comparisons.

These primitives back every regularized fit in the package and the
randomized matrix-inequality suites: (lam*I + K)^-1 applications via
one Cholesky factor, and the bound (lam+K)^-1 K (lam+K)^-1 <= 1/(4*lam)
checked in the Loewner order. This module holds every factorization the
package makes.

An SpdFactor holds one factorization of A = shift*I + K/divisor and
serves every solve against it, so a caller that needs several
right-hand sides factors once. Given a low-rank form K ~ L L' (L of
shape n x r), it is first the Woodbury form
A^-1 B ~ (B - U (shift*I_r + U'U)^-1 U'B) / shift with U = L/sqrt(divisor),
which factors only the r x r matrix and never forms A; otherwise, or
once a Woodbury solution fails its check, it is the dense Cholesky
factor of A. Every solution is checked against A, as
shift*X + (K X)/divisor. A ridge system with shift = lam > 0 has
smallest eigenvalue at least lam, so the dense factor exists; a
singular or indefinite A raises NotPositiveDefiniteError. solve_spd is
the checked public entry: it verifies symmetry and then factors and
solves once. Callers that build their matrix symmetric themselves
(every Gram in the package is exactly symmetric) construct an SpdFactor
directly and skip that O(n^2) pass.

pivoted_cholesky(A, max_rank) gives the ridge factor's low-rank form
A ~ L L' with L of shape n x r: a greedy loop stopped when the largest
remaining diagonal entry falls to n * eps * max diag(A), which gives up,
returning None, once the rank would pass max_rank. sym_eig is the full
eigendecomposition of a symmetric matrix; the grid operator takes one
per factor.
"""

from __future__ import annotations

import contextlib

import numpy as np
import scipy.linalg
from numpy.typing import NDArray


# LAPACK's relative machine precision, dlamch('E'): the eps of pivoted_cholesky's tolerance.
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


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


class SpdFactor:
    """Factorization of the symmetric positive definite A = shift*I + K/divisor.

    K is symmetric n x n (the default shift 0 and divisor 1 factor K
    itself) and is never written to. A is factored at construction.
    Given low_rank = L with K ~ L L', the factor is the Woodbury form,
    which factors only the r x r matrix shift*I_r + U'U,
    U = L/sqrt(divisor), and holds no n x n array but K. Otherwise, or
    once a Woodbury solve fails its check, it is one dense Cholesky
    factor of A, formed in a fresh array that the factorization
    overwrites. Each solve checks every column of its solution against
    A, ||A x_j - b_j|| <= 1e-8 ||b_j||. K is taken as symmetric;
    solve_spd checks that for matrices the caller did not build.

    Raises:
        NotPositiveDefiniteError: At construction or in solve, when the
            dense Cholesky of A fails or its solution fails the check.
    """

    def __init__(
        self,
        K: NDArray[np.float64],
        shift: float = 0.0,
        divisor: float = 1.0,
        low_rank: NDArray[np.float64] | None = None,
    ):
        self.gram = K
        self.shift = shift
        self.divisor = divisor
        self._woodbury = None
        if low_rank is not None:
            U = low_rank / np.sqrt(divisor)
            inner = U.T @ U
            inner.flat[:: inner.shape[0] + 1] += shift
            with contextlib.suppress(np.linalg.LinAlgError):
                self._woodbury = (U, scipy.linalg.cho_factor(inner, lower=True, check_finite=False))
        if self._woodbury is None:
            self._factor_dense()

    def _factor_dense(self) -> None:
        """Replaces the factor by the dense Cholesky factor of A."""
        # Fortran order lets cho_factor factor A in place.
        A = np.divide(self.gram, self.divisor, order="F")
        A.flat[:: A.shape[0] + 1] += self.shift
        try:
            # Called through the module attribute so a wrapper installed
            # on scipy.linalg (profilers, call-count tests) sees it.
            self._cho = scipy.linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("matrix not positive definite") from exc
        self._woodbury = None

    def _apply(self, B: NDArray[np.float64]) -> NDArray[np.float64]:
        """The current factor's approximation of A^-1 B."""
        if self._woodbury is not None:
            U, cho = self._woodbury
            return (B - U @ scipy.linalg.cho_solve(cho, U.T @ B, check_finite=False)) / self.shift
        return scipy.linalg.cho_solve(self._cho, B, check_finite=False)

    def _times_a(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        """A X = shift*X + (K X)/divisor, from K alone.

        K X is computed as (X' K)', valid since K is symmetric: OpenBLAS
        multiplies a few-column X faster from that side.
        """
        AX = (X.T @ self.gram).T
        AX /= self.divisor
        AX += self.shift * X
        return AX

    def solve(self, B: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solves A X = B for a vector (n,) or matrix (n, k) right-hand side.

        Raises:
            ValueError: If B's leading dimension is not n.
            NotPositiveDefiniteError: If the dense Cholesky of A fails or its
                solution fails the check.
        """
        B = np.asarray(B, dtype=np.float64)
        n = self.gram.shape[0]
        if B.shape[0] != n:
            raise ValueError(f"B has leading dimension {B.shape[0]}, expected {n}")
        norm_b = np.linalg.norm(B, axis=0)
        while True:
            X = self._apply(B)
            residual = np.linalg.norm(self._times_a(X) - B, axis=0)
            if np.all(residual <= 1e-8 * norm_b):
                return X
            if self._woodbury is None:
                raise NotPositiveDefiniteError("Cholesky solution fails its residual check")
            self._factor_dense()


def pivoted_cholesky(A: NDArray[np.float64], max_rank: int) -> NDArray[np.float64] | None:
    """Pivoted Cholesky factor L (n x r) of a symmetric positive semidefinite A.

    Pivots on the largest remaining diagonal entry and stops once it is
    at most tol = n * eps * max diag(A) (eps the unit roundoff, LAPACK's
    default for the pivoted Cholesky), so A = L L' + E with E positive semidefinite of
    trace at most (n - r) * tol. A greedy loop of O(n r^2) builds it one
    column at a time and gives up as soon as the rank would pass max_rank.

    Returns:
        L, or None when the rank exceeds max_rank.
    """
    n = A.shape[0]
    diag = A.diagonal().copy()
    tol = n * UNIT_ROUNDOFF * float(np.max(diag, initial=0.0))
    # Rows of Lt are the columns of L, so each step reads contiguous memory.
    Lt = np.empty((min(max_rank, n), n))
    for k in range(n):
        p = int(np.argmax(diag))
        if diag[p] <= tol:
            return Lt[:k].T
        if k == max_rank:
            return None
        row = (A[p] - Lt[:k, p] @ Lt[:k]) / np.sqrt(diag[p])
        Lt[k] = row
        diag -= row * row
        diag[p] = 0.0
    return Lt.T


def solve_spd(A: NDArray[np.float64], B: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solves A X = B for symmetric positive definite A by Cholesky.

    Checks that A is square and symmetric, then solves through one
    dense SpdFactor, with its residual check ||A x_j - b_j|| <= 1e-8 ||b_j||
    on every column of X. A is not written to.

    Args:
        A: Symmetric matrix, intended positive definite.
        B: Right-hand side vector (n,) or matrix (n, m).

    Returns:
        X with the same shape as B.

    Raises:
        NotPositiveDefiniteError: If A has no Cholesky factor or the
            solution fails the check.
        ValueError: On non-square or asymmetric A, or shape mismatch.
    """
    return SpdFactor(_check_symmetric(A, "A")).solve(B)


def sym_eig(A: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigendecomposition of a symmetric matrix.

    LAPACK's divide and conquer driver ("evd") takes about half the time
    of scipy's default "evr" on a full-rank 1024 x 1024 matrix.

    Returns:
        (eigenvalues ascending, orthonormal eigenvectors as columns),
        so A == V @ diag(vals) @ V.T up to roundoff.
    """
    A = _check_symmetric(A, "A")
    return scipy.linalg.eigh(A, driver="evd", check_finite=False)


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
    factor = SpdFactor(K, shift=lam)
    Y = factor.solve(K)
    Z = factor.solve(Y.T).T
    return 0.5 * (Z + Z.T)
