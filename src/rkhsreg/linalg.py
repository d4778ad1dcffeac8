"""Symmetric positive-definite solves, eigendecomposition, and Loewner
order comparisons.

These primitives back every regularized fit in the package and the
randomized matrix-inequality suites: (K + shift*I)^-1 applications via
one Cholesky factor, and the bound (lam+K)^-1 K (lam+K)^-1 <= 1/(4*lam)
checked in the Loewner order. This module holds every factorization the
package makes.

The data side K of these systems is one interface, the data-side
analogue of the grid's GridOperator: the products K V, each member's
trace, and a count of the non-finite entries a scan reads. A
GramOperator holds a Gram matrix or a stack of them; a
MatrixFreeOperator forms K_b V_b for every member of a stack from a
function of V (the kernel's Taylor transform of the points) and holds
no n x n array. An array K is taken as its GramOperator.

An SpdFactor factors A = K + shift*I once and serves every solve
against it, for one matrix K or for each member of a stack K (B, n, n)
such as a replication chunk's data Grams. Each member is on the
Woodbury rung, given a low-rank form K_b ~ L L' (the grid operator's
Nystrom factor), or, for a Gram, on the dense Cholesky rung; conjugate
gradients preconditioned by the Woodbury factor finish its solutions.
Both rungs solve through LAPACK's dpotrs on a scipy.linalg.cho_factor
factor, and a fresh product K X checks every solution against A;
solve_with_product hands back that K X, so a caller that needs it
makes no second pass over K. One array operation per stack replaces
one per member wherever a member needs no call of its own. solve_spd
checks symmetry, then factors and solves once; callers that build
their matrix symmetric (every Gram in the package) construct an
SpdFactor directly and skip that O(n^2) pass.

Every factorization and product here reads only the diagonal and the
upper triangle of K, so K may come from gram(..., upper=True), whose
lower triangle is 0 and never assembled: the dense Cholesky factors
the F-ordered view of A_b, whose lower triangle is A_b's upper one,
and _symmetric_product, the one place a product with a Gram is formed
(GramOperator.product, for the check here and for the auxiliary fit's
K w~), calls the symmetric BLAS dsymv or dsymm per member.

sym_eig is the full eigendecomposition of a symmetric matrix; the grid
operator takes one per factor.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.linalg
from numpy.typing import NDArray
from scipy.linalg.blas import dsymm, dsymv
from scipy.linalg.lapack import dpotrs


# _symmetric_product makes one dsymv call per column up to this many
# columns, and dsymm calls beyond: at n = 800, two dsymv calls took
# 0.22 ms against 0.62 ms for one dsymm.
SYMV_COLUMNS = 2
# Columns per dsymm call beyond that. scipy's BLAS is its own OpenBLAS,
# apart from NumPy's, with buffers touched only on use: one dsymm of an
# 800 x 800 matrix by the GP band's 201 columns touched 0.7 MB of them
# and raised a run's peak RSS by about 0.6 MB; four calls of at most 64
# columns touched 0.1 MB, at 8.4 ms against 6.4 ms.
SYMM_COLUMNS = 64


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


class GramOperator:
    """The data side K of ridge systems from their Gram matrices.

    K is one symmetric n x n matrix or a stack (B, n, n) of them, and is
    never written to. Only its diagonal and upper triangle are read, so
    it may come from gram(..., upper=True). trace holds each tr K_b.
    """

    def __init__(self, K: NDArray[np.float64]):
        self.shape = K.shape
        self._stack = K if K.ndim == 3 else K[None]
        self.trace = np.trace(self._stack, axis1=1, axis2=2)

    def product(self, Vt: NDArray[np.float64]) -> NDArray[np.float64]:
        """K_b v for each row v of Vt_b, a (B, k, n) stack: _symmetric_product."""
        return _symmetric_product(self._stack, Vt)

    def dense(self, members: list[int]) -> NDArray[np.float64]:
        """A fresh C-ordered copy (len(members), n, n) of those members' K_b."""
        return np.ascontiguousarray(self._stack[members])

    def nonfinite(self, members: NDArray[np.bool_]) -> NDArray[np.int64]:
        """The NaN or infinite entries in the upper triangle of each K_b a mask picks."""
        return np.count_nonzero(~np.isfinite(np.triu(self._stack[members])), axis=(1, 2))


class MatrixFreeOperator:
    """The data side K_b of B ridge systems from their products alone: no n x n array.

    shape is (B, n, n) for a stack of B members, or (n, n) for one
    system (B = 1). apply(Vt) gives K_b v for each row v of Vt_b, a
    (B, k, n) stack, for every member at once; trace is each tr K_b.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        apply: Callable[[NDArray[np.float64]], NDArray[np.float64]],
        trace: float,
    ):
        self.shape = shape
        self._apply = apply
        self.trace = np.full(1 if len(shape) == 2 else shape[0], float(trace))
        # Per member, the non-finite entries of every product counted so
        # far; the last product is counted once its callers have read it.
        self._nonfinite = np.zeros(len(self.trace), dtype=np.int64)
        self._uncounted: NDArray[np.float64] | None = None

    def product(self, Vt: NDArray[np.float64]) -> NDArray[np.float64]:
        """K_b v for each row v of Vt_b, a (B, k, n) stack: one apply call."""
        self.nonfinite(slice(0))
        self._uncounted = self._apply(Vt)
        return self._uncounted

    def nonfinite(self, members: NDArray[np.bool_] | slice) -> NDArray[np.int64]:
        """The NaN or infinite entries in every product so far, per member a mask picks."""
        if self._uncounted is not None:
            rows = self._uncounted.reshape(len(self.trace), -1)
            self._nonfinite += np.count_nonzero(~np.isfinite(rows), axis=1)
            self._uncounted = None
        return self._nonfinite[members]


def _as_operator(K: NDArray[np.float64] | GramOperator | MatrixFreeOperator):
    """K itself if it is a data operator, else the GramOperator of the matrix or stack K."""
    return GramOperator(K) if isinstance(K, np.ndarray) else K


class SpdFactor:
    """Factorizations of A_b = K_b + shift*I for a matrix K or each member of a stack.

    K is symmetric n x n or a stack (B, n, n) of symmetric members, as
    an array or a data operator, and is never written to; a single
    matrix is a stack of one. low_rank gives K_b ~ L_b L_b': for a
    matrix its L or None, for a stack one L_b or None per member, or one
    (B, n, r) array. A member's rung is fixed here. With shift > 0, one
    whose L_b is given and whose r x r inner matrix factors is on the
    Woodbury rung and holds no n x n array:
    A_b^-1 B ~ M_b^-1 B = (B - L_b (shift*I_r + L_b'L_b)^-1 L_b'B) / shift.
    Every other member of a Gram is dense: K + shift*I is formed once
    for all of them in a fresh C-ordered array, and each A_b is
    Cholesky-factored in place through its F-contiguous transposed view,
    whose lower triangle is A_b's upper one; a Gram-free member has no
    dense rung.

    A Woodbury solution above the rounding floor n * eps * ||b|| is
    finished by conjugate gradients preconditioned by M_b, one product
    by K per step for the whole stack, each column stopping at the floor
    or after CG's bound on its steps,
    ceil(sqrt(kappa) / 2 * ln(2 sqrt(kappa (1 + tr K_b / shift)) / (n eps))),
    where kappa = 1 + tr E_b / shift bounds the condition number of
    M_b^-1 A_b, as E_b = K_b - L_b L_b' >= 0. Every solution is then
    checked with a fresh product K X, ||A_b x - b|| <= 1e-8 ||b||. A
    member with no factor, or whose check fails, fails alone. Only K's
    diagonal and upper triangle are read.

    Raises:
        NotPositiveDefiniteError: At construction, for a single matrix
            with no factor.
    """

    def __init__(
        self,
        K: NDArray[np.float64] | GramOperator | MatrixFreeOperator,
        shift: float = 0.0,
        low_rank: NDArray[np.float64] | list[NDArray[np.float64] | None] | None = None,
    ):
        self.K = _as_operator(K)
        self.shift = shift
        single = len(self.K.shape) == 2
        members = 1 if single else self.K.shape[0]
        # Every member's (B, n): B's leading axes in solve_with_product.
        self._members_by_n = (members, self.K.shape[-1])
        # Per member: its L_b while on the Woodbury rung, the Cholesky
        # factor it solves through (of the inner matrix or of A_b), and
        # the error that leaves it with no factor.
        if low_rank is None:
            self._low_rank = [None] * members
        else:
            self._low_rank = [low_rank] if single else list(low_rank)
        self._factors: list[tuple[NDArray[np.float64], bool] | None] = [None] * members
        self._errors: list[np.linalg.LinAlgError | None] = [None] * members
        for b, L in enumerate(self._low_rank):
            if L is not None and shift > 0:
                inner = L.T @ L
                inner.flat[:: inner.shape[0] + 1] += shift
                try:
                    self._factors[b] = _cho_factor(inner)
                    continue
                except np.linalg.LinAlgError as exc:
                    self._errors[b] = exc
            self._low_rank[b] = None
        dense = [b for b in range(members) if self._low_rank[b] is None]
        if not isinstance(self.K, GramOperator):
            for b in dense:
                no_factor = NotPositiveDefiniteError("no Woodbury factor, and no Gram to factor")
                self._errors[b] = self._errors[b] or no_factor
        elif dense:
            # A fresh C-ordered array: each A_b's transpose is F-contiguous,
            # so cho_factor factors it in place and never writes into K.
            A = self.K.dense(dense)
            A.reshape(len(dense), -1)[:, :: A.shape[-1] + 1] += shift
            for b, Ab in zip(dense, A):
                try:
                    self._factors[b], self._errors[b] = _cho_factor(Ab.T), None
                except np.linalg.LinAlgError as exc:
                    self._errors[b] = exc
        if single and self._errors[0] is not None:
            raise self._errors[0]

    def solve_with_product(
        self, B: NDArray[np.float64]
    ) -> tuple[NDArray[np.float64], NDArray[np.float64], list[np.linalg.LinAlgError | None]]:
        """Solves A_b X_b = B_b for each member; returns X, K X and the failures.

        B is a vector (n,) or matrix (n, k) for a single matrix, (B, n, k)
        for a stack, and is not written to; X and K X have its shape. K X
        is the fresh product the returned X was checked with. The list
        of failures holds one entry per member: None, or the
        np.linalg.LinAlgError (NotPositiveDefiniteError) that failed it,
        whose rows of X and K X hold no solution.

        Raises:
            ValueError: If B's shape does not match K's.
        """
        B = np.asarray(B, dtype=np.float64)
        Bs = B
        if len(self.K.shape) == 2 and B.ndim in (1, 2):
            Bs = (B[:, None] if B.ndim == 1 else B)[None]
        if Bs.ndim != 3 or Bs.shape[:2] != self._members_by_n:
            raise ValueError(f"B has shape {B.shape}, expected {self.K.shape[:-1]} + (k,)")
        errors = list(self._errors)
        # Solutions are stored transposed, (B, k, n): each member's columns
        # are an F-contiguous view that dpotrs solves in place, and the
        # contiguous rows that the data operator multiplies by K_b.
        Bt = Bs.transpose(0, 2, 1)
        Xt = np.array(Bt, order="C")
        for b in (b for b, error in enumerate(errors) if error is None):
            self._solve_in_place(b, Xt[b].T)
        KXt = self.K.product(Xt)
        residual = self.shift * Xt + KXt - Bt
        # Each member's column norms, (B, k).
        norms, norm_b = _norms(residual), _norms(Bt)
        # A residual within n * eps * ||b|| is at a dense solve's rounding;
        # one above it (a NaN is not) on the Woodbury rung takes CG steps.
        rounding = self._members_by_n[1] * np.finfo(np.float64).eps * norm_b
        finish = np.array([L is not None for L in self._low_rank]) & np.any(norms > rounding, axis=1)
        if finish.any():
            self._conjugate_gradients(Xt, np.negative(residual, out=residual), rounding, finish)
            KXt[finish] = self.K.product(Xt)[finish]
            norms = _norms(self.shift * Xt + KXt - Bt)
        # Written so that a NaN residual fails.
        for b in np.flatnonzero(~np.all(norms <= 1e-8 * norm_b, axis=1)):
            failed = NotPositiveDefiniteError("Cholesky solution fails its residual check")
            errors[b] = errors[b] or failed
        X, KX = Xt.transpose(0, 2, 1), KXt.transpose(0, 2, 1)
        return X.reshape(B.shape), KX.reshape(B.shape), errors

    def _conjugate_gradients(
        self, Xt: NDArray, R: NDArray, rounding: NDArray, members: NDArray[np.bool_]
    ) -> None:
        """Finishes the Woodbury solutions in Xt of the members a mask picks by CG, in place.

        Xt and its residual R = B - A X, which is overwritten, are
        (B, k, n) and rounding is (B, k); no other member's entry moves.
        """
        picked = np.flatnonzero(members)

        def precondition(R: NDArray[np.float64]) -> NDArray[np.float64]:
            Z = R.copy()
            for b in picked:
                self._solve_in_place(b, Z[b].T)
            return Z

        n, shift = self._members_by_n[1], self.shift
        # tr E_b = tr K_b - ||L_b||_F^2, a bound only where E_b >= 0.
        trace = self.K.trace[picked]
        low_rank = [self._low_rank[b] for b in picked]
        defect = trace - [np.einsum("ij,ij->", L, L) for L in low_rank]
        kappa = 1.0 + np.maximum(defect, 0.0) / shift
        reach = 2.0 * np.sqrt(kappa * (1.0 + trace / shift)) / (n * np.finfo(np.float64).eps)
        steps = np.zeros(len(members), dtype=np.int64)
        steps[picked] = np.ceil(0.5 * np.sqrt(kappa) * np.log(reach))
        P = precondition(R)
        rz = np.vecdot(R, P)
        active = (_norms(R) > rounding) & members[:, None]
        for step in range(steps.max()):
            active &= step < steps[:, None]
            if not active.any():
                break
            P[~active] = 0.0
            # A P = K P + shift * P, with the product left as formed.
            KP = self.K.product(P)
            pAp = np.vecdot(P, KP) + shift * np.vecdot(P, P)
            alpha = np.divide(rz, pAp, out=np.zeros(rz.shape), where=active)
            np.add(Xt, alpha[..., None] * P, out=Xt, where=active[..., None])
            R -= alpha[..., None] * KP
            R -= (shift * alpha)[..., None] * P
            active &= _norms(R) > rounding
            Z = precondition(R)
            rz, before = np.vecdot(R, Z), rz
            Z += np.divide(rz, before, out=np.zeros(rz.shape), where=active)[..., None] * P
            P = Z

    def _solve_in_place(self, b: int, X: NDArray[np.float64]) -> None:
        """Overwrites an F-contiguous (n, k) X with A_b^-1 X, or M_b^-1 X on the Woodbury rung."""
        L = self._low_rank[b]
        if L is None:
            _cho_solve(self._factors[b], X, overwrite_b=True)
        else:
            X -= L @ _cho_solve(self._factors[b], L.T @ X)
            X /= self.shift

    def solve(self, B: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solves A X = B: solve_with_product's X, raising its first failure.

        The product is dropped on return, so it lives no longer than the
        check that formed it.

        Raises:
            ValueError: If B's shape does not match K's.
            NotPositiveDefiniteError: If a member has no factor or its
                solution fails the check.
        """
        X, _, errors = self.solve_with_product(B)
        for error in errors:
            if error is not None:
                raise error
        return X


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


def _symmetric_product(K: NDArray[np.float64], Vt: NDArray[np.float64]) -> NDArray[np.float64]:
    """K_b v for each row v of Vt_b, from the upper triangle of each K_b alone.

    K is a stack (B, n, n) of symmetric matrices and Vt a (B, k, n)
    stack of k vectors per member; returns the (B, k, n) products. Each
    member takes one BLAS dsymv call per vector for k <= SYMV_COLUMNS,
    else one dsymm call per SYMM_COLUMNS vectors; neither routine reads
    below the diagonal.
    """
    Vt = np.ascontiguousarray(Vt)
    out = np.empty(Vt.shape)
    # Flat buffers: each vector is an offset into them, so no view is
    # made per vector.
    v, y = Vt.reshape(-1), out.reshape(-1)
    k, n = Vt.shape[1:]
    # A C-ordered K_b is the F-ordered K_b', whose lower triangle is K_b's
    # upper one; BLAS reads any other K_b (copied to F order if need be)
    # as it is.
    lower = int(K.flags.c_contiguous)
    for b, a in enumerate(K.transpose(0, 2, 1) if lower else K):
        if k > SYMV_COLUMNS:
            for start in range(0, k, SYMM_COLUMNS):
                stop = start + SYMM_COLUMNS
                dsymm(1.0, a, Vt[b, start:stop].T, 0.0, out[b, start:stop].T, 0, lower, 1)
            continue
        for offset in range(b * k * n, (b + 1) * k * n, n):
            dsymv(1.0, a, v, 0.0, y, offset, 1, offset, 1, lower, 1)
    return out


def _norms(Vt: NDArray[np.float64]) -> NDArray[np.float64]:
    """The Euclidean norm of each row of Vt_b, a (B, k, n) stack: (B, k)."""
    return np.sqrt(np.vecdot(Vt, Vt))


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
