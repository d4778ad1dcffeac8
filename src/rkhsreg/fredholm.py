"""Nystrom solver for the continuous regularized regression problem.

The population-level solution f_lambda = (lam + K)^-1 K f0 solves a
Fredholm integral equation of the second kind, (lam + K) w = f0 with
f_lambda = K w, where K is the kernel integral operator of the design
measure P. The solver discretizes P by a probability quadrature
(tensor-product Gauss-Legendre) with nodes and weights W, and a
GridOperator holds the lam-independent parts: the node Gram matrix G
and a low-rank factor of S = W^(1/2) G W^(1/2). S is factored once by
linalg.pivoted_cholesky (uncapped: LAPACK dpstrf), stopped at the
roundoff tolerance tol = m * eps * max diag(S), so S = L L' + E with L
of shape m x r and E positive semidefinite with trace at most
(m - r) * tol. One r x r eigendecomposition L'L = Q diag(nu) Q' gives
B = L Q with S ~ B B' and B'B = diag(nu). Each lam then costs O(m r)
through the Woodbury form
(S + lam)^-1 b = (b - B ((B'b) / (nu + lam))) / lam, and the effective
dimension sum nu / (nu + lam) is read off the same r values; dropping
E changes it by at most (m - r) * tol / lam. Every solve is checked
against the full stored G. f_lambda is exposed as a kernel expansion
so RKHS distances against fitted estimators are direct quadratic forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .estimator import KernelExpansion, _clamp_nonneg, _frozen_array
from .kernels import ConfigError, KernelSpec, gram
from .linalg import pivoted_cholesky

# Discretization identity tolerance: f0 - f_lambda must equal lam * w at
# the nodes; larger residuals mean the quadrature system is inconsistent.
RESIDUAL_TOL = 1e-6

DESIGN_KINDS = ("uniform", "truncated_gaussian", "dirac")
# Largest uniform box: at d = 4 the default grid_m = 256 leaves ||f_lambda||^2
# about 25% from its m = 625 value, and no output reports that error.
MAX_UNIFORM_DIM = 3
SUP_GRID_POINTS = 512


@dataclass(frozen=True)
class DesignMeasure:
    """Marginal design measure P of the sampling scenario.

    Supported kinds: "uniform" on a box (d <= MAX_UNIFORM_DIM),
    "truncated_gaussian" on an interval (d = 1), and "dirac" at a
    point. Coordinates are stored as tuples so the measure is hashable.
    This module owns every use of the kind: the quadrature (build_grid),
    the draws (sample) and the sup-norm evaluation grid (eval_grid),
    both grids built by one tensor-product helper (_product).
    """

    kind: str
    low: tuple[float, ...] = (0.0,)
    high: tuple[float, ...] = (1.0,)
    center: tuple[float, ...] = (0.0,)
    scale: float = 1.0

    def __post_init__(self) -> None:
        kind = str(self.kind).lower()
        if kind not in DESIGN_KINDS:
            raise ConfigError(
                "kind", f"unsupported design measure kind {self.kind!r}; expected one of {DESIGN_KINDS}"
            )
        object.__setattr__(self, "kind", kind)
        low = tuple(float(v) for v in np.atleast_1d(self.low))
        high = tuple(float(v) for v in np.atleast_1d(self.high))
        center = tuple(float(v) for v in np.atleast_1d(self.center))
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", float(self.scale))
        if not np.all(np.isfinite(low + high + center + (self.scale,))):
            raise ValueError("design measure coordinates and scale must be finite")
        if kind == "uniform":
            if not 1 <= len(low) <= MAX_UNIFORM_DIM:
                raise ConfigError("low", f"a uniform box has 1 to {MAX_UNIFORM_DIM} dimensions")
            if len(low) != len(high):
                raise ValueError("uniform measure needs low and high of the same dimension")
            if any(h <= l for l, h in zip(low, high)):
                raise ValueError("uniform measure needs low < high per coordinate")
        if kind == "truncated_gaussian":
            if len(low) != 1 or len(high) != 1 or len(center) != 1:
                raise ValueError("truncated_gaussian is one-dimensional")
            if not self.scale > 0:
                raise ValueError("truncated_gaussian needs positive scale")
            if high[0] <= low[0]:
                raise ValueError("truncated_gaussian needs low < high")

    @property
    def dim(self) -> int:
        return len(self.center) if self.kind == "dirac" else len(self.low)

    @classmethod
    def uniform(cls, low: object = 0.0, high: object = 1.0) -> "DesignMeasure":
        return cls("uniform", low=tuple(np.atleast_1d(low)), high=tuple(np.atleast_1d(high)))

    @classmethod
    def truncated_gaussian(
        cls, low: float, high: float, center: float, scale: float
    ) -> "DesignMeasure":
        return cls("truncated_gaussian", low=(low,), high=(high,), center=(center,), scale=scale)

    @classmethod
    def dirac(cls, point: object) -> "DesignMeasure":
        return cls("dirac", center=tuple(np.atleast_1d(point)))

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        """n i.i.d. draws from the measure as an (n, dim) array."""
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size=(n, self.dim))
        if self.kind == "dirac":
            return np.tile(np.asarray(self.center, dtype=np.float64), (n, 1))
        return self._truncnorm.rvs(size=n, random_state=rng).reshape(n, 1)

    @cached_property
    def _truncnorm(self):
        """The frozen scipy truncnorm of a truncated_gaussian measure, built once.

        scipy.stats is imported here, not at module level: it takes most
        of the package's import time and only this design kind uses it.
        The frozen object holds no state that a draw changes (rvs reads
        the generator it is given), so replication threads share it.
        """
        import scipy.stats

        a = (self.low[0] - self.center[0]) / self.scale
        b = (self.high[0] - self.center[0]) / self.scale
        return scipy.stats.truncnorm(a, b, loc=self.center[0], scale=self.scale)

    @cached_property
    def eval_grid(self) -> NDArray[np.float64]:
        """Fixed grid over the support for sup-norm sampling, ends included.

        s equally spaced points per axis for the smallest s with
        s^dim >= SUP_GRID_POINTS: 512, 23 and 8 at d = 1, 2, 3. A dirac
        measure gives its point.
        """
        if self.kind == "dirac":
            return _frozen_array([self.center])
        side = 1
        while side**self.dim < SUP_GRID_POINTS:
            side += 1
        axes = [np.linspace(lo, hi, side) for lo, hi in zip(self.low, self.high)]
        return _frozen_array(_product(axes))


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and probability weights approximating integration over P.

    nodes is an (m, d) array; the m weights are positive and sum to one.
    """

    nodes: NDArray[np.float64]
    weights: NDArray[np.float64]

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if nodes.ndim != 2 or nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes must be an (m, d) array with one weight per row")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        object.__setattr__(self, "nodes", _frozen_array(nodes))
        object.__setattr__(self, "weights", _frozen_array(weights))

    @property
    def m(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True, eq=False)
class GridOperator:
    """The kernel integral operator discretized on a quadrature grid.

    gram_matrix is the node Gram G, built once at construction. The
    low-rank spectrum (nu, B) of S = W^(1/2) G W^(1/2) is computed on
    first use and cached: one pivoted Cholesky S = L L' + E
    (linalg.pivoted_cholesky, uncapped) at LAPACK's default tolerance
    tol = m * eps * max diag(S), then one
    eigendecomposition of the r x r matrix L'L = Q diag(nu) Q', with
    B = L Q. nu is clamped at 0, so 1/(nu + lam) <= 1/lam for every
    lam > 0, and nothing divides by a small eigenvalue.
    """

    kernel: KernelSpec
    grid: QuadratureGrid
    gram_matrix: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        G = gram(self.kernel, self.grid.nodes)
        G.flags.writeable = False
        object.__setattr__(self, "gram_matrix", G)

    @cached_property
    def spectrum(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """(nu ascending and clamped at 0, B of shape m x r) with S ~ B B'.

        B has orthogonal columns, B'B = diag(nu), and S - B B' is the
        positive semidefinite remainder E of the pivoted Cholesky.
        """
        s = np.sqrt(self.grid.weights)
        S = s[:, None] * self.gram_matrix * s[None, :]
        L = pivoted_cholesky(S)
        # Divide and conquer ("evd") takes about half the time of the
        # default "evr" at full rank, r = m = 1024.
        nu, Q = scipy.linalg.eigh(L.T @ L, driver="evd", check_finite=False)
        nu = np.maximum(nu, 0.0)
        B = L @ Q
        nu.flags.writeable = B.flags.writeable = False
        return nu, B

    @property
    def rank(self) -> int:
        """The rank r of the low-rank spectrum: the number of kept values nu."""
        return self.spectrum[0].shape[0]

    def effective_dimension(self, lam: float) -> float:
        """N(lam) = tr K (K + lam)^-1 = sum_i nu_i / (nu_i + lam).

        The sum runs over the r kept values; the dropped remainder E
        changes N(lam) by at most (m - r) * tol / lam.
        """
        if not lam > 0:
            raise ValueError("lam must be positive")
        nu, _ = self.spectrum
        return float(np.sum(nu / (nu + lam)))


@dataclass(frozen=True, eq=False)
class FredholmSolution:
    """Solution of the discretized (lam + K) w = f0 on a quadrature grid.

    flambda_values = (K w) at the nodes, and f0 - f_lambda = lam * w
    holds at every node (residual_max records how tightly).
    flambda_norm_sq = ||f_lambda||_k^2 = (W w)' G (W w). operator is
    the GridOperator the solution was computed with.
    """

    operator: GridOperator
    lam: float
    w_values: NDArray[np.float64]
    f0_values: NDArray[np.float64]
    flambda_values: NDArray[np.float64]
    residual_max: float
    flambda_norm_sq: float

    @property
    def kernel(self) -> KernelSpec:
        return self.operator.kernel

    @property
    def grid(self) -> QuadratureGrid:
        return self.operator.grid


def _gauss_legendre_1d(low: float, high: float, m: int) -> tuple[NDArray, NDArray]:
    x, w = np.polynomial.legendre.leggauss(m)
    return low + (high - low) * 0.5 * (x + 1.0), _normalized(w)


def _normalized(weights: NDArray[np.float64]) -> NDArray[np.float64]:
    return weights / weights.sum()


def _product(axes: list[NDArray[np.float64]]) -> NDArray[np.float64]:
    """Tensor product of 1-d point sets as an (m, d) array, in itertools.product order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def build_grid(measure: DesignMeasure, m: int) -> QuadratureGrid:
    """Builds a probability quadrature for the design measure.

    The tensor product of round(m^(1/d)) Gauss-Legendre nodes per axis
    (all m at d = 1), with the weights times the density, renormalized,
    for a truncated Gaussian. The product weights are renormalized after
    each axis is multiplied in, so a 1-d rule passes through unchanged.
    Dirac collapses to a single node.

    Raises:
        ValueError: For m < 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if measure.kind == "dirac":
        return QuadratureGrid(np.array([measure.center]), np.ones(1))
    per_axis = round(m ** (1.0 / measure.dim))
    axes = [_gauss_legendre_1d(lo, hi, per_axis) for lo, hi in zip(measure.low, measure.high)]
    if measure.kind == "truncated_gaussian":
        axes = [(x, _normalized(w * measure._truncnorm.pdf(x))) for x, w in axes]
    points, weights = zip(*axes)
    product = reduce(lambda u, v: _normalized(np.multiply.outer(u, v).ravel()), weights)
    return QuadratureGrid(_product(list(points)), product)


def solve_coefficient(
    op: GridOperator, f0_values: NDArray[np.float64], lam: float
) -> FredholmSolution:
    """Solves (lam*I + G W) w = f0 at the grid nodes through the spectrum.

    With S ~ B B' and B'B = diag(nu) (GridOperator.spectrum), the
    Woodbury form gives w = W^(-1/2) (b - B ((B'b) / (nu + lam))) / lam
    for b = W^(1/2) f0, in O(m r). flambda_values = G W w is computed
    with the full stored G, so the node identity below checks the
    low-rank solve against the operator itself.

    Raises:
        ValueError: If lam <= 0 or f0_values has the wrong length.
        ArithmeticError: If the identity f0 - f_lambda = lam * w fails
            beyond tolerance, signalling an inconsistent discretization.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    grid = op.grid
    f0 = np.asarray(f0_values, dtype=np.float64).reshape(-1)
    if f0.shape[0] != grid.m:
        raise ValueError(f"f0_values must have length {grid.m}")
    nu, B = op.spectrum
    s = np.sqrt(grid.weights)
    b = s * f0
    w = (b - B @ ((B.T @ b) / (nu + lam))) / (lam * s)
    Ww = grid.weights * w
    flambda = op.gram_matrix @ Ww
    residual = f0 - flambda - lam * w
    residual_max = float(np.max(np.abs(residual)))
    if residual_max > RESIDUAL_TOL:
        raise ArithmeticError(
            f"discretization inconsistency: identity residual {residual_max:.3e}"
        )
    norm_sq = _clamp_nonneg(float(Ww @ flambda))
    return FredholmSolution(op, lam, w, f0, flambda, residual_max, norm_sq)


def flambda_expansion(sol: FredholmSolution) -> KernelExpansion:
    """Kernel expansion of f_lambda: coefficients weight_i * w_i at the nodes.

    Evaluating it approximates the integral of k(x, y) w(y) P(dy), so
    RKHS norms and distances against fitted estimators apply directly.
    """
    return KernelExpansion(sol.kernel, sol.grid.nodes, sol.grid.weights * sol.w_values)


def f0_in_range(
    op: GridOperator, w0_values: NDArray[np.float64]
) -> tuple[NDArray[np.float64], float]:
    """Constructs a target in the range of the kernel operator.

    Returns f0 = G W w0 at the nodes together with the constant
    C0 = sqrt(w0' W G W w0), the RKHS norm of the constructed target.
    Targets built this way satisfy the hypotheses of the convergence
    statements; arbitrary node values do not.
    """
    w0 = np.asarray(w0_values, dtype=np.float64).reshape(-1)
    if w0.shape[0] != op.grid.m:
        raise ValueError(f"w0_values must have length {op.grid.m}")
    b = op.grid.weights * w0
    f0 = op.gram_matrix @ b
    c0 = float(np.sqrt(_clamp_nonneg(float(b @ f0))))
    return f0, c0


def continuous_objective(sol: FredholmSolution, irreducible: float) -> float:
    """Value of the continuous regularized objective at its minimizer.

    irreducible + lam * <w, K w>_L2 + lam^2 * ||w||_L2^2, with the inner
    products taken as quadratures; <w, K w>_L2 = ||f_lambda||_k^2 is
    the solution's flambda_norm_sq. irreducible is the scenario's noise
    floor E(f - f0(X))^2.
    """
    w = sol.w_values
    w_l2 = float(sol.grid.weights @ (w * w))
    return irreducible + sol.lam * sol.flambda_norm_sq + sol.lam**2 * w_l2


def bias_norm_sq(sol: FredholmSolution, w0_values: NDArray[np.float64]) -> float:
    """Squared RKHS norm of f0 - f_lambda for a target f0 = K w0.

    Since f0 - f_lambda = K (w0 - w), the norm is the quadratic form of
    the coefficient gap at the nodes in the operator's stored Gram G.
    """
    w0 = np.asarray(w0_values, dtype=np.float64).reshape(-1)
    d = sol.grid.weights * (w0 - sol.w_values)
    return _clamp_nonneg(float(d @ sol.operator.gram_matrix @ d))
