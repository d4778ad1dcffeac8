"""Symmetric positive-definite solves, the capped pivoted Cholesky,
eigendecomposition, and Loewner order comparisons.

These primitives back every regularized fit in the package and the
randomized matrix-inequality suites: (K + shift*I)^-1 applications via
one Cholesky factor, and the bound (lam+K)^-1 K (lam+K)^-1 <= 1/(4*lam)
checked in the Loewner order. This module holds every factorization the
package makes.

An SpdFactor holds one factorization of A = K + shift*I and serves
every solve against it, so a caller that needs several right-hand
sides factors once. Given a low-rank form K ~ L L' (L of shape n x r),
it is first the Woodbury form
A^-1 B ~ (B - L (shift*I_r + L'L)^-1 L'B) / shift,
which factors only the r x r matrix and never forms A; otherwise, or
once a Woodbury solution fails its check, it is the dense Cholesky
factor of A. Both rungs solve through LAPACK's dpotrs on a
scipy.linalg.cho_factor factor. Every solution is checked against A, as
K X + shift*X, and solve_with_product hands back the K X that this
check forms, so a caller that needs K X makes no second pass over K. A
ridge system with shift > 0 has smallest eigenvalue at least shift, so
the dense factor exists; a singular or indefinite A raises
NotPositiveDefiniteError. solve_spd is the checked public entry: it
verifies symmetry and then factors and solves once. Callers that build
their matrix symmetric themselves (every Gram in the package is exactly
symmetric) construct an SpdFactor directly and skip that O(n^2) pass.

An SpdFactorStack factors A_b = K_b + shift*I for each member of a
stack K (B, n, n), such as a replication chunk's data Grams, and fails
a member that does not factor or whose solution fails its check alone.
On the dense rung it forms A once for the whole stack, runs one loop
that factors each member in place (through cho_factor, on the member's
F-contiguous transposed view) and solves it with dpotrs, and checks
every member's solution with one batched product K X. Small systems
like these are bound by call overhead, so one array operation per
stack replaces one per member wherever a member needs no call of its
own. On the Woodbury rung each member is an SpdFactor of its own.

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
from scipy.linalg.lapack import dpotrs


# LAPACK's relative machine precision, dlamch('E'): the eps of pivoted_cholesky's tolerance.
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
# The message of a Cholesky solution that fails its residual check.
_FAILED_CHECK = "Cholesky solution fails its residual check"


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
    """Factorization of the symmetric positive definite A = K + shift*I.

    K is symmetric n x n (the default shift 0 factors K itself) and is
    never written to. A is factored at construction. Given low_rank = L
    with K ~ L L', the factor is the Woodbury form, which factors only
    the r x r matrix shift*I_r + L'L and holds no n x n array but K.
    Otherwise, or once a Woodbury solve fails its check, it is one dense
    Cholesky factor of A, formed in a fresh array that the factorization
    overwrites. Each solve checks every column of its solution against
    A, ||A x_j - b_j|| <= 1e-8 ||b_j||, which takes one pass over K for
    K X; solve_with_product hands that product back with X, and solve
    drops it. K is taken as symmetric; solve_spd checks that for
    matrices the caller did not build.

    Raises:
        NotPositiveDefiniteError: At construction or in solve, when the
            dense Cholesky of A fails or its solution fails the check.
    """

    def __init__(
        self,
        K: NDArray[np.float64],
        shift: float = 0.0,
        low_rank: NDArray[np.float64] | None = None,
    ):
        self.gram = K
        self.shift = shift
        self._woodbury = None
        if low_rank is not None:
            inner = low_rank.T @ low_rank
            inner.flat[:: inner.shape[0] + 1] += shift
            with contextlib.suppress(np.linalg.LinAlgError):
                factor = scipy.linalg.cho_factor(inner, lower=True, check_finite=False)
                self._woodbury = (low_rank, factor)
        if self._woodbury is None:
            self._factor_dense()

    def _factor_dense(self) -> None:
        """Replaces the factor by the dense Cholesky factor of A."""
        # Fortran order lets cho_factor factor A in place.
        A = np.array(self.gram, order="F")
        A.flat[:: A.shape[0] + 1] += self.shift
        self._cho = _cho_factor(A)
        self._woodbury = None

    def _apply(self, B: NDArray[np.float64]) -> NDArray[np.float64]:
        """The current factor's approximation of A^-1 B."""
        if self._woodbury is not None:
            L, inner = self._woodbury
            return (B - L @ _cho_solve(inner, L.T @ B)) / self.shift
        return _cho_solve(self._cho, B)

    def solve_with_product(
        self, B: NDArray[np.float64]
    ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Solves A X = B; returns X and K X, the product its check formed.

        B is a vector (n,) or matrix (n, k); both results have its shape.
        The check forms A X - B as K X + shift*X - B in a separate
        array, so the product it hands back is the one the accepted
        solution was checked with, from the same pass over K.

        Raises:
            ValueError: If B's leading dimension is not n.
            NotPositiveDefiniteError: If the dense Cholesky of A fails or its
                solution fails the check.
        """
        B = np.asarray(B, dtype=np.float64)
        n = self.gram.shape[0]
        if B.shape[0] != n:
            raise ValueError(f"B has leading dimension {B.shape[0]}, expected {n}")
        norm_b = _column_norms(B)
        while True:
            X = self._apply(B)
            # (X' K)' is K X since K is symmetric: OpenBLAS multiplies a
            # few-column X faster from that side.
            KX = (X.T @ self.gram).T
            residual = self.shift * X
            residual += KX
            residual -= B
            if np.all(_column_norms(residual) <= 1e-8 * norm_b):
                return X, KX
            if self._woodbury is None:
                raise NotPositiveDefiniteError(_FAILED_CHECK)
            self._factor_dense()

    def solve(self, B: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solves A X = B for a vector (n,) or matrix (n, k) right-hand side.

        solve_with_product without the product: the product is dropped
        on return, so it lives no longer than the check that formed it.

        Raises:
            ValueError: If B's leading dimension is not n.
            NotPositiveDefiniteError: If the dense Cholesky of A fails or its
                solution fails the check.
        """
        return self.solve_with_product(B)[0]


class SpdFactorStack:
    """Factorizations of A_b = K_b + shift*I for each member of a stack K (B, n, n).

    Each K_b is symmetric and K is never written to. A numerical failure
    fails its own member alone: solve_with_product returns the
    NotPositiveDefiniteError in place of that member's solution, and
    the other members are untouched. Given low_rank, one L_b or None per
    member, each member is an SpdFactor of its own (the Woodbury rung
    where L_b is given), solved and checked one at a time. Otherwise
    the stack is dense: A is formed once for the whole stack, each
    member is Cholesky-factored in place through its F-contiguous
    transposed view (A_b is symmetric, so that view is A_b itself), and
    one batched product K X checks every column of every member,
    ||A_b x - b|| <= 1e-8 ||b||, as SpdFactor does.
    """

    def __init__(
        self,
        K: NDArray[np.float64],
        shift: float = 0.0,
        low_rank: list[NDArray[np.float64] | None] | None = None,
    ):
        self.gram = K
        self.shift = shift
        self._dense = low_rank is None
        if self._dense:
            A = np.array(K)
            A.reshape(len(K), -1)[:, :: K.shape[-1] + 1] += shift
            factor = lambda b: _cho_factor(A[b].T)
        else:
            factor = lambda b: SpdFactor(K[b], shift, low_rank[b])
        self._members: list = []
        self._errors: list[np.linalg.LinAlgError | None] = []
        for b in range(len(K)):
            try:
                self._members.append(factor(b))
                self._errors.append(None)
            except np.linalg.LinAlgError as exc:
                self._members.append(None)
                self._errors.append(exc)

    def solve_with_product(
        self, B: NDArray[np.float64]
    ) -> tuple[NDArray[np.float64], NDArray[np.float64], list[np.linalg.LinAlgError | None]]:
        """Solves A_b X_b = B_b for each member; returns X, K X and the failures.

        B is (B, n, k) and is not written to. X and K X are (B, n, k); a
        failed member's rows hold no solution, and its entry in the list
        of failures is the np.linalg.LinAlgError (NotPositiveDefiniteError)
        that failed it. Every other entry is None. K X is the product the
        check formed.

        Raises:
            ValueError: If B's shape is not (B, n, k) for this stack.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 3 or B.shape[:2] != self.gram.shape[:2]:
            raise ValueError(f"B has shape {B.shape}, expected {self.gram.shape[:2]} + (k,)")
        errors = list(self._errors)
        # Solutions are stored transposed, (B, k, n): each member's columns
        # are an F-contiguous view that dpotrs solves in place, and X' K is
        # one batched product of contiguous members, K X its transpose.
        Bt = B.transpose(0, 2, 1)
        Xt = np.array(Bt, order="C")
        KXt = np.zeros_like(Xt)
        for b, member in enumerate(self._members):
            if errors[b] is not None:
                continue
            if self._dense:
                _cho_solve(member, Xt[b].T, overwrite_b=True)
                continue
            try:
                X, KX = member.solve_with_product(B[b])
            except np.linalg.LinAlgError as exc:
                errors[b] = exc
            else:
                Xt[b], KXt[b] = X.T, KX.T
        if self._dense:
            # (X' K)' is K X since each K_b is symmetric.
            np.matmul(Xt, self.gram, out=KXt)
            residual = self.shift * Xt
            residual += KXt
            residual -= Bt
            # Each member's column norms, as (k, B) arrays.
            passed = _column_norms(residual.T) <= 1e-8 * _column_norms(Bt.T)
            for b in np.flatnonzero(~np.all(passed, axis=0)):
                if errors[b] is None:
                    errors[b] = NotPositiveDefiniteError(_FAILED_CHECK)
        return Xt.transpose(0, 2, 1), KXt.transpose(0, 2, 1), errors


def _cho_factor(A: NDArray[np.float64]) -> tuple[NDArray[np.float64], bool]:
    """scipy.linalg.cho_factor's lower factor of A, formed in place when A is F-contiguous.

    Raises:
        NotPositiveDefiniteError: If A has no Cholesky factor.
    """
    try:
        # Called through the module attribute so a wrapper installed
        # on scipy.linalg (profilers, call-count tests) sees it.
        return scipy.linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix not positive definite") from exc


def _cho_solve(
    factor: tuple[NDArray[np.float64], bool], B: NDArray[np.float64], overwrite_b: bool = False
) -> NDArray:
    """A^-1 B from scipy.linalg.cho_factor's (c, lower) factor of A.

    LAPACK's dpotrs, the routine scipy.linalg.cho_solve calls, without
    that wrapper's checks of its arguments: 6 against 16 us at n = 50.
    With overwrite_b, an F-contiguous float64 B is solved in place.
    """
    c, lower = factor
    X, info = dpotrs(c, B, lower=lower, overwrite_b=overwrite_b)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return X


def _column_norms(X: NDArray[np.float64]) -> NDArray[np.float64]:
    """The Euclidean norm of each column of X (n, ...): the sum over its first axis."""
    return np.sqrt(np.einsum("i...,i...->...", X, X))


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
            # A copy: an SpdFactor keeps L, and a view would keep all max_rank rows.
            return Lt[:k].copy().T
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
