"""The auxiliary denoising estimator and its residual identities.

Given the continuous-problem target f_lambda, each observation yields a
weight w~_j = (f_j - f_lambda(X_j)) / lam, and the auxiliary estimator
is the expansion f~(x) = (1/n) sum_j w~_j k(x, X_j). It is pointwise
unbiased for f_lambda, and its gap to the ridge fit satisfies an exact
residual quadratic form that bounds their RKHS distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .estimator import (
    Dataset,
    KernelExpansion,
    _clamp_nonneg,
    _frozen_array,
    evaluate_batch,
    rkhs_norm_sq,
)
from .fredholm import FredholmSolution, flambda_expansion
from .kernels import KernelSpec, gram, _profile
from .linalg import solve_spd

# The two residual formulas agree algebraically; this guards against
# wiring errors between the expansion and the dataset.
RESIDUAL_AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class AuxiliaryFit:
    """The auxiliary estimator with its weights and residuals.

    tilde holds coefficients w~_i / n; residuals holds
    r_i = f_i - lam * w~_i - (1/n) sum_j k(X_i, X_j) w~_j.
    """

    tilde: KernelExpansion
    tilde_w: NDArray[np.float64]
    residuals: NDArray[np.float64]
    dataset: Dataset
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tilde_w", _frozen_array(self.tilde_w))
        object.__setattr__(self, "residuals", _frozen_array(self.residuals))


def fit_auxiliary(
    kernel: KernelSpec,
    data: Dataset,
    flambda: KernelExpansion,
    lam: float,
    *,
    gram_matrix: NDArray[np.float64] | None = None,
    flambda_at_xs: NDArray[np.float64] | None = None,
) -> AuxiliaryFit:
    """Builds the auxiliary estimator from data and the continuous target.

    Args:
        kernel: Kernel shared by the data fit and flambda.
        data: Observations.
        flambda: The continuous-problem target as a kernel expansion.
        lam: Regularization weight; must be positive (the weights divide
            by it).
        gram_matrix: Optional precomputed gram(kernel, data.xs).
        flambda_at_xs: Optional precomputed flambda values at data.xs.

    Returns:
        The AuxiliaryFit.

    Raises:
        ValueError: If lam <= 0 or the kernels differ.
        ArithmeticError: If the two residual formulas disagree.
    """
    if not lam > 0:
        raise ValueError("lam must be positive: the auxiliary weights divide by it")
    if flambda.kernel != kernel:
        raise ValueError("flambda uses a different kernel than requested")
    n = data.n
    fl = evaluate_batch(flambda, data.xs) if flambda_at_xs is None else np.asarray(flambda_at_xs)
    tilde_w = (data.fs - fl) / lam
    K = gram(kernel, data.xs) if gram_matrix is None else gram_matrix
    smooth = (K @ tilde_w) / n
    residuals = data.fs - lam * tilde_w - smooth
    lemma_form = fl - smooth
    gap = float(np.max(np.abs(residuals - lemma_form)))
    if gap > RESIDUAL_AGREEMENT_TOL * (1.0 + float(np.max(np.abs(data.fs)))):
        raise ArithmeticError(f"residual formulas disagree by {gap:.3e}")
    tilde = KernelExpansion(kernel, data.xs, tilde_w / n)
    return AuxiliaryFit(tilde, tilde_w, residuals, data, lam)


def bridge_distance_sq(
    aux: AuxiliaryFit,
    kernel: KernelSpec,
    *,
    gram_matrix: NDArray[np.float64] | None = None,
) -> float:
    """Squared RKHS distance between the ridge fit and the auxiliary fit.

    Evaluated without fitting the ridge estimator, through the exact
    identity
        ||fhat - f~||_k^2 = (1/n) r' (lam + K/n)^-1 (K/n) (lam + K/n)^-1 r
    in the dataset's Gram matrix K and the auxiliary residuals r.
    """
    if kernel != aux.tilde.kernel:
        raise ValueError("kernel does not match the auxiliary fit")
    data = aux.dataset
    n = data.n
    K = gram(kernel, data.xs) if gram_matrix is None else gram_matrix
    A = aux.lam * np.eye(n) + K / n
    v = solve_spd(A, aux.residuals)
    return _clamp_nonneg(float(v @ K @ v) / n**2)


class TildeRisk(NamedTuple):
    """Closed-form expected squared distance of the auxiliary fit.

    value: E ||f~ - f_lambda||_k^2 for sample size n.
    c1: The n-free constant lam^2 * n * value.
    """

    value: float
    c1: float


def theoretical_tilde_risk(
    kernel: KernelSpec,
    sol: FredholmSolution,
    condvar_values: NDArray[np.float64],
    n: int,
) -> TildeRisk:
    """Quadrature evaluation of the exact auxiliary risk formula.

    E ||f~ - f_lambda||_k^2
        = (1/(lam^2 n)) Integral (var(f|x) + (f0 - f_lambda)^2) k(x,x) P(dx)
          - (1/n) ||f_lambda||_k^2.

    Args:
        kernel: Kernel of the scenario.
        sol: Continuous-problem solution on the scenario grid.
        condvar_values: Conditional variance var(f|x) at the grid nodes.
        n: Sample size.

    Returns:
        TildeRisk(value, c1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    condvar = np.asarray(condvar_values, dtype=np.float64).reshape(-1)
    if condvar.shape[0] != sol.grid.m:
        raise ValueError(f"condvar_values must have length {sol.grid.m}")
    W = sol.grid.weights
    kdiag = _profile(kernel, np.zeros(sol.grid.m))
    gap = sol.f0_values - sol.flambda_values
    integral = float(W @ ((condvar + gap**2) * kdiag))
    value = integral / (sol.lam**2 * n) - rkhs_norm_sq(flambda_expansion(sol)) / n
    return TildeRisk(value=value, c1=sol.lam**2 * n * value)
