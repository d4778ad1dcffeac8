"""Regularized kernel regression in the RKHS induced by a kernel.

Functions f are represented as finite kernel expansions
f(x) = sum_i a_i k(x, c_i). The ridge fit minimizes the penalized
empirical risk (1/n) sum_i (f_i - f(X_i))^2 + lam * ||f||_k^2; its
weights solve (lam*I + K/n) w = f and the stored coefficients are
a_i = w_i / n, so no separate 1/n factor travels with the object.
The Gaussian-process posterior mean with noise variance lam_gp = n*lam
is the same function, and its posterior variance provides pointwise
uncertainty bands.

An expansion carries its kernel, so evaluate_batch, rkhs_norm_sq and
rkhs_dist_sq take no separate kernel; the auxiliary functions likewise
read theirs from the target expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .kernels import KernelSpec, as_points, cross_gram, gram, kernel_apply
from .linalg import SpdFactor, pivoted_cholesky

NORM_CLAMP_TOL = 1e-10


def _clamp_nonneg(value: float) -> float:
    """Rounds tiny negative quadratic forms up to zero.

    Values below -NORM_CLAMP_TOL indicate a genuine positive-semidefiniteness
    violation and raise ArithmeticError, like every other broken
    identity, instead of being hidden.
    """
    if value >= 0.0:
        return value
    if value >= -NORM_CLAMP_TOL:
        return 0.0
    raise ArithmeticError(f"quadratic form is negative beyond roundoff tolerance: {value}")


def _frozen_array(x: object, dtype=np.float64) -> NDArray[np.float64]:
    arr = np.array(x, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class KernelExpansion:
    """A function f(x) = sum_i coeffs[i] * k(x, centers[i]).

    An empty expansion (no centers) is the zero function. Instances are
    immutable and safe to share across worker threads.
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
        coeffs = np.asarray(self.coeffs, dtype=np.float64).reshape(-1)
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
        fs = np.asarray(self.fs, dtype=np.float64).reshape(-1)
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


# The low-rank factor of a Gram K is tried only when n is at least
# LOW_RANK_MIN_RATIO times the grid operator's rank r: for the ridge
# system, one BLAS thread broke even near n = 170 at r = 17, n = 260 at
# r = 36 and n = 350 at r = 59. It is given up when the pivoted
# Cholesky of K needs more than LOW_RANK_CAP * r columns.
LOW_RANK_MIN_RATIO = 10
LOW_RANK_CAP = 2


def _low_rank_gram(
    K: NDArray[np.float64], shift: float, grid_rank: int | None
) -> NDArray[np.float64] | None:
    """The low_rank form K ~ L L' that SpdFactor(K, shift, ...) starts from, or None.

    Given the rank r of the kernel's grid operator, shift > 0 and
    n >= LOW_RANK_MIN_RATIO * r, L is the pivoted Cholesky of K capped
    at LOW_RANK_CAP * r columns (None past the cap); otherwise None, and
    the factor is dense. The ridge system and the GP band share this rule.
    """
    n = K.shape[0]
    if grid_rank is None or not shift > 0 or n < LOW_RANK_MIN_RATIO * grid_rank:
        return None
    return pivoted_cholesky(K, max_rank=LOW_RANK_CAP * grid_rank)


def _ridge_factor(K: NDArray[np.float64], lam: float, grid_rank: int | None = None) -> SpdFactor:
    """Factors the ridge system lam*I + K/n of a symmetric n x n Gram K.

    fit_ridge, bridge_distance_sq and run_replication all solve this
    system; factoring it here keeps one definition of it. When
    _low_rank_gram gives K ~ L L', the factor starts on the Woodbury
    rung (lam*I + L L'/n)^-1 B = (B - L (n*lam*I_r + L'L)^-1 L'B) / lam,
    which never forms lam*I + K/n; otherwise it is the dense Cholesky.
    Either way every solve is checked against lam*I + K/n itself.
    """
    return SpdFactor(K, shift=lam, divisor=K.shape[0], low_rank=_low_rank_gram(K, lam, grid_rank))


def fit_ridge(kernel: KernelSpec, data: Dataset, lam: float) -> KernelExpansion:
    """Fits the regularized kernel regressor.

    Solves (lam*I + K/n) w = f and returns the expansion with
    coefficients w/n centered at the data points. lam = 0 is allowed
    and interpolates the data when the Cholesky factor of K/n exists
    and its solution passes the residual check; otherwise it raises
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
    w = _ridge_factor(gram(kernel, data.xs), lam).solve(data.fs)
    return KernelExpansion(kernel, data.xs, w / data.n)


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
    grid_rank: int | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Gaussian-process posterior mean and variance at each row of xs.

    The mean is k(x,X) (K + lam_gp*I)^-1 f, which with lam_gp = n*lam
    equals the fit_ridge prediction at x; the variance is
    k(x,x) - k(x,X) (K + lam_gp*I)^-1 k(X,x), clamped at zero against
    roundoff. Both come from one SpdFactor(K, shift=lam_gp) and one
    solve against [f | k(X, x)]. Given grid_rank, the rank r of the
    kernel's grid operator, the factor follows the ridge system's
    low-rank rule (_low_rank_gram): at n >= LOW_RANK_MIN_RATIO * r it
    is a Woodbury solve that factors only an r x r matrix. Every column
    is still checked against the full K + lam_gp*I.
    """
    if not lam_gp > 0:
        raise ValueError("lam_gp must be positive")
    pts = as_points(xs, kernel.dim)
    K = gram(kernel, data.xs)
    Kxn = cross_gram(kernel, pts, data.xs)
    factor = SpdFactor(K, shift=lam_gp, low_rank=_low_rank_gram(K, lam_gp, grid_rank))
    X = factor.solve(np.column_stack([data.fs, Kxn.T]))
    mean = Kxn @ X[:, 0]
    # k(x, x) = 1 for every built-in family.
    var = 1.0 - np.sum(Kxn * X[:, 1:].T, axis=1)
    return mean, np.maximum(var, 0.0)


def empirical_objective(f: KernelExpansion, data: Dataset, lam: float) -> float:
    """Penalized empirical risk (1/n) sum (f_i - f(X_i))^2 + lam ||f||_k^2."""
    preds = evaluate_batch(f, data.xs)
    return float(np.mean((data.fs - preds) ** 2) + lam * rkhs_norm_sq(f))
