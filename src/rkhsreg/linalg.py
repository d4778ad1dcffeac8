"""Symmetric positive-definite solves, pivoted Cholesky, eigendecomposition,
and Loewner order comparisons.

These primitives back every regularized fit in the package and the
randomized matrix-inequality suites: (lam*I + K)^-1 applications via
Cholesky with a relative jitter retry ladder, and the bound
(lam+K)^-1 K (lam+K)^-1 <= 1/(4*lam) checked in the Loewner order.
This module holds every factorization the package makes.

An SpdFactor holds one factorization of A = shift*I + K/divisor and
serves every solve against it, so a caller that needs several
right-hand sides factors once. Given a low-rank form K ~ L L' (L of
shape n x r), its ladder starts with a Woodbury rung,
A^-1 B ~ (B - U (shift*I_r + U'U)^-1 U'B) / shift with U = L/sqrt(divisor),
which factors only the r x r matrix and never forms A; every solution
is still checked against A, as shift*X + (K X)/divisor, and a failing
column climbs to the dense Cholesky rungs, which form A. solve_spd is the
checked public entry: it verifies symmetry and then factors and solves
once. Callers that build their matrix symmetric themselves (every Gram
in the package is exactly symmetric) construct an SpdFactor directly
and skip that O(n^2) pass.

pivoted_cholesky(A, max_rank) gives A ~ L L' with L of shape n x r,
stopped when the largest remaining diagonal entry falls to
n * eps * max diag(A): uncapped through LAPACK dpstrf (the grid
operator's factor), capped by a greedy loop that gives up, returning
None, once the rank would pass max_rank (the ridge factor's low-rank
form).
"""

from __future__ import annotations

import contextlib

import numpy as np
import scipy.linalg
from numpy.typing import NDArray
from scipy.linalg.lapack import dpstrf


# Jitter policy for Cholesky solves of nearly singular systems: the first
# retry adds JITTER_REL * trace(A)/n to the diagonal, and each further
# retry doubles it, MAX_JITTER_DOUBLINGS times.
JITTER_REL = 1e-12
MAX_JITTER_DOUBLINGS = 20
# LAPACK's relative machine precision, dlamch('E'): the eps of dpstrf's tolerance.
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
    itself). A is factored at construction, at the first rung of a
    ladder that factors. Given low_rank = L with K ~ L L', the first
    rung is the Woodbury form, which factors only the r x r matrix
    shift*I_r + U'U, U = L/sqrt(divisor), and holds no n x n array but
    K. The dense rungs follow: the Cholesky factor of A itself, then of
    A + jitter*I with jitter = JITTER_REL * trace(A)/n, doubling
    MAX_JITTER_DOUBLINGS times. A is formed on the first dense rung.
    Each solve checks every column of its solution against A,
    ||A x_j - b_j|| <= 1e-8 ||b_j||, and climbs the ladder (refactoring)
    until all columns pass; a later solve starts from the rung the last
    one ended on. K is taken as symmetric; solve_spd checks that for
    matrices the caller did not build.

    Attributes:
        matrix: A, once a dense rung has formed it; None before.
        jitter: The jitter of the dense rung in use, else 0.

    Raises:
        NotPositiveDefiniteError: At construction or in solve, when no
            remaining rung both factors and passes the check.
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
        self.matrix = None
        self._level = -1
        self._woodbury = None
        self.jitter = 0.0
        if low_rank is not None:
            U = low_rank / np.sqrt(divisor)
            inner = U.T @ U
            inner.flat[:: inner.shape[0] + 1] += shift
            with contextlib.suppress(np.linalg.LinAlgError):
                self._woodbury = (U, scipy.linalg.cho_factor(inner, lower=True, check_finite=False))
        if self._woodbury is None:
            self._climb()

    def _climb(self) -> None:
        """Factors A + jitter*I at the next dense ladder level that factors."""
        self._woodbury = None
        if self.matrix is None:
            K, n = self.gram, self.gram.shape[0]
            if self.shift == 0.0 and self.divisor == 1.0:
                self.matrix = K
            else:
                # Bit-identical to shift*np.eye(n) + K/divisor.
                self.matrix = K / self.divisor
                self.matrix.flat[:: n + 1] += self.shift
            trace = float(np.trace(self.matrix))
            base = JITTER_REL * (trace / n if trace > 0 else 1.0)
            self._ladder = [0.0] + [base * 2.0**k for k in range(MAX_JITTER_DOUBLINGS + 1)]
        A = self.matrix
        for level in range(self._level + 1, len(self._ladder)):
            jitter = self._ladder[level]
            M = A if jitter == 0.0 else A + jitter * np.eye(A.shape[0])
            try:
                # Called through the module attribute so a wrapper installed
                # on scipy.linalg (profilers, call-count tests) sees it.
                self._cho = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                continue
            self._level = level
            self.jitter = jitter
            return
        raise NotPositiveDefiniteError("matrix not positive definite after jitter retries")

    def _apply(self, B: NDArray[np.float64]) -> NDArray[np.float64]:
        """The current rung's approximation of A^-1 B."""
        if self._woodbury is not None:
            U, cho = self._woodbury
            return (B - U @ scipy.linalg.cho_solve(cho, U.T @ B, check_finite=False)) / self.shift
        return scipy.linalg.cho_solve(self._cho, B, check_finite=False)

    def _times_a(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        """A X, from K alone until a dense rung has formed A.

        K X is computed as (X' K)', valid since K is symmetric: OpenBLAS
        multiplies a few-column X faster from that side.
        """
        if self.matrix is not None:
            return self.matrix @ X
        AX = (X.T @ self.gram).T
        AX /= self.divisor
        AX += self.shift * X
        return AX

    def solve(self, B: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solves A X = B for a vector (n,) or matrix (n, k) right-hand side.

        Raises:
            ValueError: If B's leading dimension is not n.
            NotPositiveDefiniteError: If the ladder runs out.
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
            self._climb()


def pivoted_cholesky(
    A: NDArray[np.float64], max_rank: int | None = None
) -> NDArray[np.float64] | None:
    """Pivoted Cholesky factor L (n x r) of a symmetric positive semidefinite A.

    Pivots on the largest remaining diagonal entry and stops once it is
    at most tol = n * eps * max diag(A) (eps the unit roundoff), so
    A = L L' + E with E positive semidefinite of trace at most
    (n - r) * tol. Uncapped, LAPACK dpstrf computes it. With max_rank,
    a greedy loop of O(n r^2) builds it one column at a time and gives
    up as soon as the rank would pass max_rank.

    Returns:
        L, or None when max_rank is given and the rank exceeds it.
    """
    n = A.shape[0]
    if max_rank is None:
        # With a negative tol, dpstrf stops at n * eps * max diag(A).
        c, piv, rank, _ = dpstrf(A, tol=-1.0, lower=1)
        L = np.empty((n, rank))
        L[piv - 1] = np.tril(c[:, :rank])
        return L
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
    SpdFactor: the same jitter ladder, and a residual check
    ||A x_j - b_j|| <= 1e-8 ||b_j|| on every column of X.

    Args:
        A: Symmetric matrix, intended positive definite.
        B: Right-hand side vector (n,) or matrix (n, m).

    Returns:
        X with the same shape as B.

    Raises:
        NotPositiveDefiniteError: If every jitter level fails.
        ValueError: On non-square or asymmetric A, or shape mismatch.
    """
    return SpdFactor(_check_symmetric(A, "A")).solve(B)


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
    factor = SpdFactor(K, shift=lam)
    Y = factor.solve(K)
    Z = factor.solve(Y.T).T
    return 0.5 * (Z + Z.T)
