"""Regularized kernel regression in the RKHS induced by a kernel.

Functions f are represented as finite kernel expansions
f(x) = sum_i a_i k(x, c_i). The ridge fit minimizes the penalized
empirical risk (1/n) sum_i (f_i - f(X_i))^2 + lam * ||f||_k^2; its
coefficients solve (K + n*lam*I) a = f. That is the Gaussian-process
posterior mean with noise variance lam_gp = n*lam, so the ridge fit and
the posterior band factor the same kind of system, K + shift*I
(_ridge_factor), and the posterior variance provides pointwise
uncertainty bands.

An expansion carries its kernel, so evaluate_batch, rkhs_norm_sq and
rkhs_dist_sq take no separate kernel; the auxiliary functions likewise
read theirs from the target expansion.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
import numpy as np
from numpy.typing import NDArray

from .kernels import (
    KernelSpec,
    TaylorTransform,
    as_points,
    cross_gram,
    gram,
    kernel_apply,
    taylor_transform,
)
from .linalg import GramOperator, MatrixFreeOperator, SpdFactor

NORM_CLAMP_TOL = 1e-10
# The steps _ridge_factor's proof allows a Woodbury solution: dporfs' ITMAX.
MAX_REFINEMENTS = 5


def _clamp_broken(q: float | NDArray[np.float64]) -> bool | NDArray[np.bool_]:
    """Where quadratic forms q, one float or an array, are below -NORM_CLAMP_TOL or NaN.

    Such a value is a genuine positive-semidefiniteness violation, a
    broken identity like every other, which rounding up to zero must not
    hide.
    """
    return np.logical_not(q >= -NORM_CLAMP_TOL)


def _clamp_nonneg(value: float) -> float:
    """Rounds a tiny negative quadratic form up to zero.

    Raises:
        ArithmeticError: If value is negative beyond roundoff
            (_clamp_broken), naming it.
    """
    if _clamp_broken(value):
        raise ArithmeticError(f"quadratic form is negative beyond roundoff tolerance: {value}")
    return max(value, 0.0)


def _frozen_array(x: object, dtype=np.float64) -> NDArray[np.float64]:
    """x as a read-only array of dtype.

    An array of dtype that owns its memory and is already read-only is
    returned as it is: whoever made it froze it on handing it over.
    Anything else is copied, so no caller keeps a writable handle on
    the result.
    """
    if isinstance(x, np.ndarray) and x.dtype == dtype and x.base is None and not x.flags.writeable:
        return x
    arr = np.array(x, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class KernelExpansion:
    """A function f(x) = sum_i coeffs[i] * k(x, centers[i]).

    An empty expansion (no centers) is the zero function. Instances are
    immutable.
    """

    kernel: KernelSpec
    centers: NDArray[np.float64]
    coeffs: NDArray[np.float64]

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.size == 0:
            centers = centers.reshape(0, self.kernel.dim)
        else:
            centers = as_points(centers, self.kernel.dim)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        coeffs = coeffs if coeffs.ndim == 1 else coeffs.reshape(-1)
        if centers.shape[0] != coeffs.shape[0]:
            raise ValueError("centers and coeffs must have equal length")
        object.__setattr__(self, "centers", _frozen_array(centers))
        object.__setattr__(self, "coeffs", _frozen_array(coeffs))

    @classmethod
    def zero(cls, kernel: KernelSpec) -> "KernelExpansion":
        return cls(kernel, np.zeros((0, kernel.dim)), np.zeros(0))


@dataclass(frozen=True)
class Dataset:
    """Paired observations (X_i, f_i), i = 1..n."""

    xs: NDArray[np.float64]
    fs: NDArray[np.float64]

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64)
        xs = xs.reshape(-1, 1) if xs.ndim == 1 else xs
        fs = np.asarray(self.fs, dtype=np.float64)
        fs = fs if fs.ndim == 1 else fs.reshape(-1)
        if xs.ndim != 2:
            raise ValueError("xs must be an (n, d) array")
        if xs.shape[0] != fs.shape[0]:
            raise ValueError("xs and fs must have equal length")
        if xs.shape[0] < 1:
            raise ValueError("a dataset needs at least one observation")
        object.__setattr__(self, "xs", _frozen_array(xs))
        object.__setattr__(self, "fs", _frozen_array(fs))

    @property
    def n(self) -> int:
        return self.xs.shape[0]


def _gram_free_transform(
    kernel: KernelSpec,
    n: int,
    woodbury: bool,
    design: TaylorTransform | None,
    xs: NDArray[np.float64] | None = None,
) -> TaylorTransform | None:
    """The Taylor transform that the products K V of point sets of n points take, or None.

    The one answer to whether a data side is Gram-free, and on which
    transform. Only a data side offered the Woodbury rung (woodbury,
    K ~ L L') is. It takes design, a transform that the caller holds on
    an interval meant to cover the points, if design's sums pay against
    n centers and it covers every point; else the transform on the
    points' own hull (kernels.taylor_transform: today a 1-d Gaussian
    kernel with 15 Q < n). xs (n, d), or a stack (B, n, d), gives the
    points. With xs None the answer is for points still to be drawn on
    design's interval, all that a chunk's size needs
    (experiments._chunk_size): design or None.
    """
    if not woodbury:
        return None
    x = None if xs is None else xs[..., 0]
    if design is not None and design.pays(n) and (x is None or design.covers(x)):
        return design
    return None if x is None else taylor_transform(kernel, x.min(), x.max(), x)


def _data_operator(
    kernel: KernelSpec,
    xs: NDArray[np.float64],
    woodbury: bool,
    assemble: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    design: TaylorTransform | None = None,
) -> tuple[GramOperator | MatrixFreeOperator, tuple | None]:
    """The data side K of the ridge systems on points xs (n, d), or on a stack (B, n, d).

    The one choice between a Gram and none. Where _gram_free_transform
    finds a transform, K is a MatrixFreeOperator for every set at once:
    the stack's point table is formed once over all B n points and each
    set gets its own center table (TaylorTransform.tables), here, and
    every product K_b V_b reads them. No n x n array is formed for any
    member. Everything else gets a GramOperator on assemble(xs), the Gram
    (or stack of Grams) of xs that the caller builds.

    Returns:
        (K, tables): tables is the (point table, center table) of the
        stack xs[..., 0], (B, n) with B = 1 for one point set, on design
        where K's products read them, for the caller's own products with
        design's other tables; None otherwise.
    """
    n, d = xs.shape[-2:]
    transform = _gram_free_transform(kernel, n, woodbury, design, xs)
    if transform is None:
        return GramOperator(assemble(xs)), None
    tables = transform.tables(xs.reshape(-1, n, d)[..., 0])

    def product(Vt: NDArray[np.float64]) -> NDArray[np.float64]:
        return transform.apply(*tables, Vt.transpose(0, 2, 1)).transpose(0, 2, 1)

    # k(x, x) = 1 for every built-in family, so tr K_b = n.
    K = MatrixFreeOperator(xs.shape[:-2] + (n, n), product, n)
    return K, tables if transform is design else None


def _ridge_factor(
    K: NDArray[np.float64] | GramOperator | MatrixFreeOperator,
    shift: float,
    low_rank: NDArray[np.float64] | None = None,
) -> SpdFactor:
    """Factors K + shift*I for a symmetric n x n Gram K, or for each member of a stack (B, n, n).

    K is an array or a data operator (_data_operator). The ridge system
    (shift = n*lam: fit_ridge, bridge_distance_sq, run_replication) and
    the GP band (shift = lam_gp) are all factored here. Given K ~ L L',
    L (n, r) or (B, n, r) (the grid operator's Nystrom factor at the
    data), and shift > 0, every member of a Gram-free K is on the
    Woodbury rung, which factors only an r x r matrix; it has no Gram to
    go dense on. A Gram's member is on it if its solution provably
    reaches the rounding floor within MAX_REFINEMENTS steps; otherwise
    it is the dense Cholesky. Every solve is checked against K + shift*I.

    The proof reads L alone. E = K - L L' >= 0, so
    ||E||_2 <= tr E = n - ||L||_F^2, since k(x, x) = 1 for every
    built-in family. A Woodbury solution's residual is E x, and a
    Richardson step on the same factor multiplies it by
    E (L L' + shift*I)^-1, so after j steps it is at most
    (tr E / shift)^(j+1) ||b||: below the rounding floor n * eps * ||b||
    within MAX_REFINEMENTS steps if tr E / shift <= (n * eps)^(1/6),
    0.0075 at n = 800. The CG steps that finish it (SpdFactor) are no
    more: CG's j-th iterate has the least A-norm error over a Krylov
    space that holds Richardson's. A member whose L fails that goes
    straight to the dense rung (a Laplace grid of 32 nodes has
    tr E = 17 at n = 320, where shift * 0.0064 = 0.41); a resolved
    grid's tr E is below 1e-9.
    """
    kept = low_rank
    if shift > 0 and low_rank is not None and not isinstance(K, MatrixFreeOperator):
        n = low_rank.shape[-2]
        defect = n - np.einsum("...ij,...ij->...", low_rank, low_rank)
        floor = (n * np.finfo(np.float64).eps) ** (1.0 / (MAX_REFINEMENTS + 1))
        stack = low_rank.reshape((-1,) + low_rank.shape[-2:])
        kept = [L if ok else None for L, ok in zip(stack, np.atleast_1d(defect <= shift * floor))]
        kept = kept if low_rank.ndim == 3 else kept[0]
    return SpdFactor(K, shift=shift, low_rank=kept)


def fit_ridge(kernel: KernelSpec, data: Dataset, lam: float) -> KernelExpansion:
    """Fits the regularized kernel regressor.

    Solves (K + n*lam*I) a = f and returns the expansion with
    coefficients a centered at the data points. lam = 0 is allowed and
    interpolates the data when the Cholesky factor of K exists and its
    solution passes the residual check; otherwise it raises
    NotPositiveDefiniteError.

    Args:
        kernel: Kernel defining the RKHS.
        data: Observations to fit.
        lam: Regularization weight, >= 0.

    Returns:
        The fitted expansion.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    a = _ridge_factor(gram(kernel, data.xs), data.n * lam).solve(data.fs)
    return KernelExpansion(kernel, data.xs, a)


def evaluate_batch(f: KernelExpansion, xs: object) -> NDArray[np.float64]:
    """Evaluates the expansion at each row of xs, without holding k(xs, centers)."""
    return kernel_apply(f.kernel, xs, f.centers, f.coeffs)


def rkhs_norm_sq(f: KernelExpansion) -> float:
    """Squared RKHS norm a' G a of an expansion.

    Tiny negative roundoff is clamped to 0; a genuinely negative value
    raises, since the Gram matrix must be positive semidefinite.
    """
    if f.coeffs.shape[0] == 0:
        return 0.0
    return _clamp_nonneg(float(f.coeffs @ gram(f.kernel, f.centers) @ f.coeffs))


def rkhs_dist_sq(f: KernelExpansion, g: KernelExpansion) -> float:
    """Squared RKHS distance ||f - g||_k^2 between two expansions.

    Computed as the squared norm of the merged expansion (g's
    coefficients negated). Duplicate centers are fine.

    Raises:
        ValueError: If the expansions use different kernels.
    """
    if f.kernel != g.kernel:
        raise ValueError("expansions use different kernels")
    centers = np.vstack([f.centers, g.centers])
    coeffs = np.concatenate([f.coeffs, -g.coeffs])
    return rkhs_norm_sq(KernelExpansion(f.kernel, centers, coeffs))


def gp_posterior_band(
    kernel: KernelSpec,
    data: Dataset,
    lam_gp: float,
    xs: object,
    low_rank: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Gaussian-process posterior mean and variance at each row of xs.

    The mean is k(x,X) (K + lam_gp*I)^-1 f, which with lam_gp = n*lam
    equals the fit_ridge prediction at x; the variance is
    k(x,x) - k(x,X) (K + lam_gp*I)^-1 k(X,x), clamped at zero against
    roundoff. Both come from one _ridge_factor(K, lam_gp, low_rank)
    and one solve against [f | k(X, x)]: given low_rank, an n x r L with
    K ~ L L' (the grid operator's Nystrom extension to the data), it is
    a Woodbury solve that factors only an r x r matrix. Every column is
    still checked against the full K + lam_gp*I, whose K the data
    operator gives (_data_operator): with low_rank and the Taylor
    transform, K X comes from the data's two Taylor tables in blocks of
    columns (kernels.TaylorTransform), and no n x n Gram is built.
    """
    if not lam_gp > 0:
        raise ValueError("lam_gp must be positive")
    pts = as_points(xs, kernel.dim)
    # The factor and its check read only K's upper triangle, or no Gram at all.
    K, _ = _data_operator(
        kernel, data.xs, low_rank is not None, lambda points: gram(kernel, points, upper=True)
    )
    # Rows f and k(x, X), transposed, are the right-hand sides; rows 1:
    # then serve as k(x, X), so no second copy of it lives through the solve.
    rows = np.vstack([data.fs, cross_gram(kernel, pts, data.xs)])
    X = _ridge_factor(K, lam_gp, low_rank).solve(rows.T)
    Kxn = rows[1:]
    mean = Kxn @ X[:, 0]
    # k(x, x) = 1 for every built-in family.
    var = 1.0 - np.sum(Kxn * X[:, 1:].T, axis=1)
    return mean, np.maximum(var, 0.0)


def empirical_objective(f: KernelExpansion, data: Dataset, lam: float) -> float:
    """Penalized empirical risk (1/n) sum (f_i - f(X_i))^2 + lam ||f||_k^2."""
    preds = evaluate_batch(f, data.xs)
    return float(np.mean((data.fs - preds) ** 2) + lam * rkhs_norm_sq(f))
