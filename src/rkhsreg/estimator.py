"""Regularized kernel regression in the RKHS induced by a kernel.

Functions f are represented as finite kernel expansions
f(x) = sum_i a_i k(x, c_i). The ridge fit minimizes the penalized
empirical risk (1/n) sum_i (f_i - f(X_i))^2 + lam * ||f||_k^2; its
weights solve (lam*I + K/n) w = f and the stored coefficients are
a_i = w_i / n, so no separate 1/n factor travels with the object.
The Gaussian-process posterior mean with noise variance lam_gp = n*lam
is the same function, and its posterior variance provides pointwise
uncertainty bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .kernels import KernelSpec, as_points, cross_gram, gram
from .linalg import solve_spd

NORM_CLAMP_TOL = 1e-10


def _clamp_nonneg(value: float, tol: float = NORM_CLAMP_TOL) -> float:
    """Rounds tiny negative quadratic forms up to zero.

    Values below -tol indicate a genuine positive-semidefiniteness
    violation and raise instead of being hidden.
    """
    if value >= 0.0:
        return value
    if value >= -tol:
        return 0.0
    raise ValueError(f"quadratic form is negative beyond roundoff tolerance: {value}")


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

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_dict(),
            "centers": self.centers.tolist(),
            "coeffs": self.coeffs.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KernelExpansion":
        return cls(KernelSpec.from_dict(obj["kernel"]), obj["centers"], obj["coeffs"])


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


def fit_ridge(
    kernel: KernelSpec,
    data: Dataset,
    lam: float,
    *,
    gram_matrix: NDArray[np.float64] | None = None,
) -> KernelExpansion:
    """Fits the regularized kernel regressor.

    Solves (lam*I + K/n) w = f and returns the expansion with
    coefficients w/n centered at the data points. lam = 0 is allowed
    and interpolates the data when the Gram matrix is numerically
    nonsingular (the jitter policy of solve_spd applies).

    Args:
        kernel: Kernel defining the RKHS.
        data: Observations to fit.
        lam: Regularization weight, >= 0.
        gram_matrix: Optional precomputed gram(kernel, data.xs).

    Returns:
        The fitted expansion.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    n = data.n
    K = gram(kernel, data.xs) if gram_matrix is None else gram_matrix
    A = lam * np.eye(n) + K / n
    w = solve_spd(A, data.fs)
    return KernelExpansion(kernel, data.xs, w / n)


def fit_generalized(
    kernel: KernelSpec,
    data: Dataset,
    Lam: NDArray[np.float64],
) -> KernelExpansion:
    """Fits the regressor with a symmetric invertible regularization matrix.

    The weights are w = n (K Lam^-1 K + n K)^-1 K Lam^-1 f; the stored
    coefficients are w/n. Lam = lam*I reproduces fit_ridge exactly.

    Raises:
        scipy.linalg.LinAlgError: If Lam or the reduced system is singular.
        ValueError: If Lam is not symmetric of order n.
    """
    n = data.n
    Lam = np.asarray(Lam, dtype=np.float64)
    if Lam.shape != (n, n):
        raise ValueError(f"Lam must be {n} x {n}, got {Lam.shape}")
    if float(np.max(np.abs(Lam - Lam.T))) > 1e-10 * max(1.0, float(np.max(np.abs(Lam)))):
        raise ValueError("Lam must be symmetric")
    K = gram(kernel, data.xs)
    # Lam may be indefinite, so these are general symmetric solves.
    Li_K = scipy.linalg.solve(Lam, K, assume_a="sym")
    Li_f = scipy.linalg.solve(Lam, data.fs, assume_a="sym")
    A = K @ Li_K + n * K
    A = 0.5 * (A + A.T)
    w = n * scipy.linalg.solve(A, K @ Li_f, assume_a="sym")
    return KernelExpansion(kernel, data.xs, w / n)


def evaluate_batch(f: KernelExpansion, xs: object) -> NDArray[np.float64]:
    """Evaluates the expansion at each row of xs."""
    pts = as_points(xs, f.kernel.dim)
    if f.coeffs.shape[0] == 0:
        return np.zeros(pts.shape[0])
    return cross_gram(f.kernel, pts, f.centers) @ f.coeffs


def rkhs_norm_sq(f: KernelExpansion) -> float:
    """Squared RKHS norm a' G a of an expansion.

    Tiny negative roundoff is clamped to 0; a genuinely negative value
    raises, since the Gram matrix must be positive semidefinite.
    """
    if f.coeffs.shape[0] == 0:
        return 0.0
    G = gram(f.kernel, f.centers)
    return _clamp_nonneg(float(f.coeffs @ G @ f.coeffs))


def rkhs_dist_sq(f: KernelExpansion, g: KernelExpansion) -> float:
    """Squared RKHS distance ||f - g||_k^2 between two expansions.

    Computed as the squared norm of the merged expansion (g's
    coefficients negated). Duplicate centers are fine.

    Raises:
        ValueError: If the expansions use different kernels.
    """
    if f.kernel != g.kernel:
        raise ValueError("expansions use different kernels")
    m = f.coeffs.shape[0] + g.coeffs.shape[0]
    if m == 0:
        return 0.0
    centers = np.vstack([f.centers, g.centers])
    coeffs = np.concatenate([f.coeffs, -g.coeffs])
    return rkhs_norm_sq(KernelExpansion(f.kernel, centers, coeffs))


def gp_posterior_band(
    kernel: KernelSpec, data: Dataset, lam_gp: float, xs: object
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Gaussian-process posterior mean and variance at each row of xs.

    The mean is k(x,X) (K + lam_gp*I)^-1 f, which with lam_gp = n*lam
    equals the fit_ridge prediction at x; the variance is
    k(x,x) - k(x,X) (K + lam_gp*I)^-1 k(X,x), clamped at zero against
    roundoff.
    """
    if not lam_gp > 0:
        raise ValueError("lam_gp must be positive")
    pts = as_points(xs, kernel.dim)
    K = gram(kernel, data.xs)
    Kxn = cross_gram(kernel, pts, data.xs)
    A = K + lam_gp * np.eye(data.n)
    mean = Kxn @ solve_spd(A, data.fs)
    V = solve_spd(A, Kxn.T)
    # k(x, x) = 1 for every built-in family.
    var = 1.0 - np.sum(Kxn * V.T, axis=1)
    return mean, np.maximum(var, 0.0)


def empirical_objective(f: KernelExpansion, data: Dataset, lam: float) -> float:
    """Penalized empirical risk (1/n) sum (f_i - f(X_i))^2 + lam ||f||_k^2."""
    preds = evaluate_batch(f, data.xs)
    return float(np.mean((data.fs - preds) ** 2) + lam * rkhs_norm_sq(f))


def sup_error_bound(f: KernelExpansion, g: KernelExpansion, C_k: float) -> float:
    """Certificate C_k * ||f - g||_k bounding sup |f - g|.

    Valid because |f(x) - g(x)| <= ||f - g||_k * sqrt(k(x,x)) pointwise;
    C_k must be sup sqrt(k(x,x)) over the region of interest (1 for all
    built-in families).
    """
    return C_k * float(np.sqrt(rkhs_dist_sq(f, g)))
