"""Symmetric positive-definite solves, eigendecomposition, and Loewner
order comparisons.

These primitives back every regularized fit in the package and the
randomized matrix-inequality suites: (K + shift*I)^-1 applications via
one Cholesky factor, and the bound (lam+K)^-1 K (lam+K)^-1 <= 1/(4*lam)
checked in the Loewner order. This module holds every factorization the
package makes.

The data side K of these systems is one interface with three
operations, the data-side analogue of the grid's GridOperator: the
products K V, a dense K for a member that factors densely, and what a
non-finite scan reads. A GramOperator holds a Gram matrix or a stack
of them; a MatrixFreeOperator forms K_b V_b for one system or every
member of a stack from a function of V (the kernel's Taylor transform
of the points) and assembles a member's K_b only when it goes dense.
An array K is taken as its GramOperator.

An SpdFactor factors A = K + shift*I once and serves every solve
against it, for one matrix K or for each member of a stack K (B, n, n)
such as a replication chunk's data Grams. A member is on the Woodbury
rung, given a low-rank form K_b ~ L L' (the grid operator's Nystrom
factor), or on the dense Cholesky rung; the class docstring says when
it refines or climbs. Both rungs solve through LAPACK's dpotrs on a
scipy.linalg.cho_factor factor, and the product K X checks every
solution against A, as K X + shift*X; solve_with_product hands back
that K X, so a caller that needs it makes no second pass over K. Small
systems like a chunk's are bound by call overhead, so one array
operation per stack replaces one per member wherever a member needs no
call of its own. solve_spd is the checked public entry: it verifies
symmetry and then factors and solves once. Callers that build their
matrix symmetric themselves (every Gram in the package is) construct
an SpdFactor directly and skip that O(n^2) pass.

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


# Most refinement steps of a Woodbury solution: LAPACK dporfs' ITMAX.
MAX_REFINEMENTS = 5
# The message of a Cholesky solution that fails its residual check.
_FAILED_CHECK = "Cholesky solution fails its residual check"
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
    it may come from gram(..., upper=True).
    """

    def __init__(self, K: NDArray[np.float64]):
        self.shape = K.shape
        self._stack = K if K.ndim == 3 else K[None]

    def product(self, Vt: NDArray[np.float64]) -> NDArray[np.float64]:
        """K_b v for each row v of Vt_b, a (B, k, n) stack: _symmetric_product."""
        return _symmetric_product(self._stack, Vt)

    def dense(self, members: list[int]) -> NDArray[np.float64]:
        """A fresh C-ordered copy (len(members), n, n) of those members' K_b."""
        return np.ascontiguousarray(self._stack[members])

    def formed(self, members: NDArray[np.bool_]) -> NDArray[np.float64]:
        """What a non-finite scan reads of the members a mask picks: the upper triangle of each K_b."""
        return np.triu(self._stack[members])


class MatrixFreeOperator:
    """The data side K_b of B ridge systems, with no n x n array unless a member goes dense.

    shape is (B, n, n) for a stack of B members, or (n, n) for one
    system; a replication run alone is the case B = 1. apply(Vt) gives
    K_b v for each row v of Vt_b, a (B, k, n) stack, for every member
    at once, and assemble(members) a fresh C-ordered
    (len(members), n, n) array holding at least the diagonal and upper
    triangle of those members' K_b; dense calls it on demand, for the
    members that go dense, and for them alone.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        apply: Callable[[NDArray[np.float64]], NDArray[np.float64]],
        assemble: Callable[[list[int]], NDArray[np.float64]],
    ):
        self.shape = shape
        self._apply = apply
        self._assemble = assemble
        # Every product formed, (B, k, n) each, and per member the
        # non-finite entries of its assembled K_b.
        self._products: list[NDArray[np.float64]] = []
        self._nonfinite = [np.zeros(0)] * (1 if len(shape) == 2 else shape[0])

    def product(self, Vt: NDArray[np.float64]) -> NDArray[np.float64]:
        """K_b v for each row v of Vt_b, a (B, k, n) stack: one apply call, kept for formed."""
        KVt = self._apply(Vt)
        self._products.append(KVt)
        return KVt

    def dense(self, members: list[int]) -> NDArray[np.float64]:
        """assemble(members)'s K_b as a (len(members), n, n) stack: the only n x n arrays.

        Each member's non-finite entries are kept for formed, since the
        caller factors the array in place.
        """
        K = self._assemble(members)
        for b, Kb in zip(members, K):
            self._nonfinite[b] = Kb[~np.isfinite(Kb)]
        return K

    def formed(self, members: NDArray[np.bool_]) -> list[NDArray[np.float64]]:
        """What a non-finite scan reads of each member a mask picks: what it formed of K_b.

        That is the member's rows of every product so far and, if its
        dense K_b was assembled, that K_b's non-finite entries.
        """
        return [
            np.concatenate([KVt[b].reshape(-1) for KVt in self._products] + [self._nonfinite[b]])
            for b in np.flatnonzero(members)
        ]


def _as_operator(K: NDArray[np.float64] | GramOperator | MatrixFreeOperator):
    """K itself if it is a data operator, else the GramOperator of the matrix or stack K."""
    return GramOperator(K) if isinstance(K, np.ndarray) else K


class SpdFactor:
    """Factorizations of A_b = K_b + shift*I for a matrix K or each member of a stack.

    K is symmetric n x n or a stack (B, n, n) of symmetric members, as
    an array or a data operator (GramOperator, MatrixFreeOperator), and
    is never written to; a single matrix is a stack of one. low_rank
    gives K_b ~ L_b L_b': for a matrix its L or None, for a stack one
    L_b or None per member, or one (B, n, r) array. A member starts on
    the Woodbury rung, A_b^-1 B ~ (B - L_b (shift*I_r + L_b'L_b)^-1 L_b'B)
    / shift, when its L_b is given and the r x r inner matrix factors; it
    then holds no n x n array. Every other member is dense: K + shift*I
    is formed once for all of them in a fresh C-ordered array, and each
    A_b is Cholesky-factored in place through its F-contiguous
    transposed view, whose lower triangle is A_b's upper one. Each solve
    checks every column of every member against A_b,
    ||A_b x - b|| <= 1e-8 ||b||, with K X from the operator's product:
    from K's upper triangle (_symmetric_product), or from the points with
    no n x n array at all. A Woodbury solution is refined from its factor
    by LAPACK dporfs' rule (Higham 2002, ch. 12), each step shrinking its
    error by about ||K_b - L_b L_b'|| / shift: while its residual is above
    n * eps * ||b|| and the last step at least halved it, at most
    MAX_REFINEMENTS steps. Kept once it stops converging, at its rounding
    floor; one still converging after the last step, or failing the
    check, climbs to the dense rung. A member whose dense factor or check
    fails, fails alone; with shift > 0 the dense factor exists. K is taken as
    symmetric, and only its diagonal and upper triangle are read; a
    MatrixFreeOperator assembles them only for a member that goes dense.

    Raises:
        NotPositiveDefiniteError: At construction, for a single matrix
            whose dense Cholesky fails.
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
        # the error that failed its dense factor.
        if low_rank is None:
            self._low_rank = [None] * members
        else:
            self._low_rank = [low_rank] if single else list(low_rank)
        self._factors: list[tuple[NDArray[np.float64], bool] | None] = [None] * members
        self._errors: list[np.linalg.LinAlgError | None] = [None] * members
        for b, L in enumerate(self._low_rank):
            if L is None:
                continue
            inner = L.T @ L
            inner.flat[:: inner.shape[0] + 1] += shift
            try:
                self._factors[b] = _cho_factor(inner)
            except np.linalg.LinAlgError:
                self._low_rank[b] = None
        self._factor_dense([b for b in range(members) if self._low_rank[b] is None])
        if single and self._errors[0] is not None:
            raise self._errors[0]

    def _factor_dense(self, members: list[int]) -> None:
        """Factors A_b densely for each b in members, or records the error that fails it."""
        if not members:
            return
        # A fresh C-ordered array: each A_b's transpose is F-contiguous,
        # so cho_factor factors it in place and never writes into K.
        A = self.K.dense(members)
        A.reshape(len(members), -1)[:, :: A.shape[-1] + 1] += self.shift
        for b, Ab in zip(members, A):
            self._low_rank[b] = None
            try:
                self._factors[b] = _cho_factor(Ab.T)
            except np.linalg.LinAlgError as exc:
                self._errors[b] = exc

    def solve_with_product(
        self, B: NDArray[np.float64]
    ) -> tuple[NDArray[np.float64], NDArray[np.float64], list[np.linalg.LinAlgError | None]]:
        """Solves A_b X_b = B_b for each member; returns X, K X and the failures.

        B is a vector (n,) or matrix (n, k) for a single matrix, (B, n, k)
        for a stack, and is not written to; X and K X have its shape. K X
        is the product the accepted solution was checked with. The list
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
        # Each member's column norms, as (k, B) arrays.
        norm_b = _column_norms(Bt.T)
        # A residual within n * eps * ||b|| is at a dense solve's rounding.
        rounding = self._members_by_n[1] * np.finfo(np.float64).eps * norm_b
        # Per refined member: its steps and its residual norms before the last one.
        refined: dict[int, tuple[int, NDArray[np.float64]]] = {}
        todo = [b for b, error in enumerate(errors) if error is None]
        while True:
            for b in todo:
                self._solve_in_place(b, Xt[b].T)
            KXt = self.K.product(Xt)
            residual = self.shift * Xt
            residual += KXt
            residual -= Bt
            norms = _column_norms(residual.T)
            passed = np.all(norms <= 1e-8 * norm_b, axis=0)
            todo, climbing, refining = [], [], []
            # Written so that a NaN residual is visited, and fails.
            for b in np.flatnonzero(~np.all(norms <= rounding, axis=0)):
                if errors[b] is not None:
                    continue
                steps, before = refined.get(b, (0, np.inf))
                done = norms[:, b] <= rounding[:, b]
                converging = np.all(done | (norms[:, b] <= 0.5 * before))
                woodbury = self._low_rank[b] is not None
                if woodbury and converging and steps < MAX_REFINEMENTS:
                    # X_b -= A_b^-1 (A_b X_b - B_b) from the same factor, checked again.
                    refined[b] = steps + 1, norms[:, b]
                    correction = residual[b]
                    self._solve_in_place(b, correction.T)
                    Xt[b] -= correction
                    refining.append(b)
                elif woodbury and (converging or not passed[b]):
                    climbing.append(b)
                elif not passed[b]:
                    errors[b] = NotPositiveDefiniteError(_FAILED_CHECK)
            # A climbing member is solved again from B on its dense factor.
            self._factor_dense(climbing)
            for b in climbing:
                errors[b] = self._errors[b]
                if errors[b] is None:
                    todo.append(b)
                    Xt[b] = Bt[b]
            if not todo and not refining:
                break
        X, KX = Xt.transpose(0, 2, 1), KXt.transpose(0, 2, 1)
        return X.reshape(B.shape), KX.reshape(B.shape), errors

    def _solve_in_place(self, b: int, X: NDArray[np.float64]) -> None:
        """Overwrites an F-contiguous (n, k) X with A_b^-1 X on member b's current rung."""
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
            NotPositiveDefiniteError: If a member's dense Cholesky fails or
                its solution fails the check.
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


def _column_norms(X: NDArray[np.float64]) -> NDArray[np.float64]:
    """The Euclidean norm of each column of X (n, ...): the sum over its first axis."""
    return np.sqrt(np.einsum("i...,i...->...", X, X))


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
