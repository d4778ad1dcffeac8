"""The auxiliary denoising estimator and its residual identities.

Given the continuous-problem target f_lambda, each observation yields a
weight w~_j = (f_j - f_lambda(X_j)) / lam, and the auxiliary estimator
is the expansion f~(x) = (1/n) sum_j w~_j k(x, X_j). It is pointwise
unbiased for f_lambda, and its gap to the ridge fit satisfies an exact
residual quadratic form that bounds their RKHS distance.

Every function here reads its kernel from the object that carries it:
fit_auxiliary from the target expansion f_lambda, bridge_distance_sq
from the auxiliary expansion, theoretical_tilde_risk from the grid
solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .estimator import (
    Dataset,
    KernelExpansion,
    _clamp_nonneg,
    _frozen_array,
    _ridge_factor,
    evaluate_batch,
)
from .fredholm import FredholmSolution
from .kernels import gram
from .linalg import GramOperator, MatrixFreeOperator, _as_operator


@dataclass(frozen=True)
class AuxiliaryFit:
    """The auxiliary estimator with its weights and residuals.

    tilde holds coefficients w~_i / n; residuals holds
    r_i = f_i - lam * w~_i - f~(X_i), with the auxiliary fit at the data
    f~(X_i) = (1/n) sum_j k(X_i, X_j) w~_j.
    """

    tilde: KernelExpansion
    tilde_w: NDArray[np.float64]
    residuals: NDArray[np.float64]
    dataset: Dataset
    lam: float

    def __post_init__(self) -> None:
        for name in ("tilde_w", "residuals"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


def fit_auxiliary(data: Dataset, flambda: KernelExpansion, lam: float) -> AuxiliaryFit:
    """Builds the auxiliary estimator from data and the continuous target.

    The auxiliary expansion uses flambda's kernel; its weights and
    residuals come from auxiliary_residuals.

    Args:
        data: Observations.
        flambda: The continuous-problem target as a kernel expansion.
        lam: Regularization weight; must be positive (the weights divide
            by it).

    Returns:
        The AuxiliaryFit.

    Raises:
        ValueError: If lam <= 0.
    """
    if not lam > 0:
        raise ValueError("lam must be positive: the auxiliary weights divide by it")
    fl = evaluate_batch(flambda, data.xs)
    K = gram(flambda.kernel, data.xs)
    tilde_w, _, residuals = auxiliary_residuals(data.fs, fl, K, lam)
    coeffs = tilde_w / data.n
    # Arrays made here are frozen rather than copied by the constructors.
    for own in (tilde_w, residuals, coeffs):
        own.flags.writeable = False
    tilde = KernelExpansion(flambda.kernel, data.xs, coeffs)
    return AuxiliaryFit(tilde, tilde_w, residuals, data, lam)


def auxiliary_residuals(
    fs: NDArray[np.float64],
    flambda_at_xs: NDArray[np.float64],
    K: NDArray[np.float64] | GramOperator | MatrixFreeOperator,
    lam: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """The auxiliary weights, fit and residuals of a dataset, or of a stack of datasets.

    fs and flambda_at_xs are (n,) with the data's Gram K (n, n), or
    (B, n) with a stack of Grams (B, n, n); K is an array or a data
    operator. Returns (w~, f~(X), r) with w~ = (f - f_lambda(X)) / lam,
    f~(X) = K w~ / n from one product with K, and r = f - lam * w~ - f~(X),
    each of the input's shape; r is the lemma form f_lambda(X) - f~(X) by
    construction, for any inputs. The product is the operator's: of a
    Gram, only its upper triangle is read (one BLAS dsymv call per
    dataset), so K may be gram(..., upper=True).
    """
    n = fs.shape[-1]
    tilde_w = (fs - flambda_at_xs) / lam
    product = _as_operator(K).product(tilde_w.reshape(-1, 1, n))
    smooth = product.reshape(tilde_w.shape) / n
    residuals = fs - lam * tilde_w - smooth
    return tilde_w, smooth, residuals


def bridge_distance_sq(aux: AuxiliaryFit) -> float:
    """Squared RKHS distance between the ridge fit and the auxiliary fit.

    Evaluated without fitting the ridge estimator, through the exact
    identity
        ||fhat - f~||_k^2 = u' K u,  u = (K + n*lam*I)^-1 r,
    in the dataset's Gram matrix K, built with the auxiliary fit's
    kernel, and the auxiliary residuals r: u is the coefficient vector
    of fhat - f~.
    """
    data = aux.dataset
    K = gram(aux.tilde.kernel, data.xs)
    u = _ridge_factor(K, data.n * aux.lam).solve(aux.residuals)
    return _clamp_nonneg(float(u @ K @ u))


def theoretical_tilde_risk(
    sol: FredholmSolution, condvar_values: NDArray[np.float64], n: int
) -> float:
    """Quadrature evaluation of the exact auxiliary risk formula.

    E ||f~ - f_lambda||_k^2
        = (1/(lam^2 n)) Integral (var(f|x) + (f0 - f_lambda)^2) k(x,x) P(dx)
          - (1/n) ||f_lambda||_k^2,

    with k(x,x) = 1, which every built-in kernel family satisfies.

    Args:
        sol: Continuous-problem solution on the scenario grid.
        condvar_values: Conditional variance var(f|x) at the grid nodes.
        n: Sample size.

    Returns:
        E ||f~ - f_lambda||_k^2 for sample size n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    condvar = np.asarray(condvar_values, dtype=np.float64).reshape(-1)
    if condvar.shape[0] != sol.grid.m:
        raise ValueError(f"condvar_values must have length {sol.grid.m}")
    W = sol.grid.weights
    gap = sol.f0_values - sol.flambda_values
    integral = float(W @ (condvar + gap**2))
    return integral / (sol.lam**2 * n) - sol.flambda_norm_sq / n
