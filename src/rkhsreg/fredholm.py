"""Nystrom solver for the continuous regularized regression problem.

The population-level solution f_lambda = (lam + K)^-1 K f0 solves a
Fredholm integral equation of the second kind, (lam + K) w = f0 with
f_lambda = K w, where K is the kernel integral operator of the design
measure P. The solver discretizes P by a probability quadrature
(tensor-product Gauss-Legendre) with nodes and weights W, and a
GridOperator holds the lam-independent parts as a tuple of factors,
with the node Gram G = G_1 kron ... kron G_F. The Gaussian and constant
kernels are products of 1-d kernels and the quadrature is a product
rule, so on a product grid they get one factor per axis, each with the
axis's p_k nodes and p_k x p_k Gram, and no m x m array is formed
(Saatci 2011, "Scalable Inference for Structured Gaussian Process
Models"; Gilboa, Saatci and Cunningham 2015). Every other kernel, and
every grid that is not a product of 1-d rules, gets one factor: the
m x m node Gram. Every operation is written once over the factors: G v
is one mode product per factor, and k(x, nodes) is the Kronecker
product of the factors' kernel rows at x.

Each factor's S_k = W_k^(1/2) G_k W_k^(1/2) has one full
eigendecomposition S_k = V_k diag(nu_k) V_k' (linalg.sym_eig), with
nu_k clamped at 0 and every eigenvector kept. Then
S = V diag(nu) V' exactly, with V = V_1 kron ... kron V_F orthogonal
and nu = nu_1 kron ... kron nu_F, and V is only ever applied by mode
products. Each lam costs O(m sum p_k) through the spectral form
(S + lam)^-1 b = V ((V'b) / (nu + lam)), whose node residual stays at
roundoff for any lam > 0. The rank of S and the effective dimension
sum nu / (nu + lam) count the same values: nu > m * eps * max(nu),
numpy matrix_rank's rule. Every solve is checked against the full
operator G = kron G_k. f_lambda is exposed as a kernel expansion so
RKHS distances against fitted estimators are direct quadratic forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np
from numpy.typing import NDArray

from .estimator import KernelExpansion, _clamp_nonneg, _frozen_array
from .kernels import (
    PRODUCT_FAMILIES,
    ConfigError,
    KernelSpec,
    cross_gram,
    gram,
    kernel_apply,
)
from .linalg import sym_eig

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
    def eval_axes(self) -> tuple[NDArray[np.float64], ...]:
        """The 1-d axes of the sup-norm grid, ends included.

        s equally spaced points per axis for the smallest s with
        s^dim >= SUP_GRID_POINTS: 512, 23 and 8 at d = 1, 2, 3. A dirac
        measure gives its point's coordinates.
        """
        if self.kind == "dirac":
            return tuple(_frozen_array([c]) for c in self.center)
        side = 1
        while side**self.dim < SUP_GRID_POINTS:
            side += 1
        return tuple(
            _frozen_array(np.linspace(lo, hi, side)) for lo, hi in zip(self.low, self.high)
        )

    @cached_property
    def eval_grid(self) -> NDArray[np.float64]:
        """Fixed grid over the support for sup-norm sampling: the product of eval_axes."""
        return _frozen_array(_product(list(self.eval_axes)))


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and probability weights approximating integration over P.

    nodes is an (m, d) array; the m weights are positive and sum to one.
    axes holds the 1-d rules (points, weights), one per coordinate,
    whose tensor product in itertools.product order the grid is; it is
    empty for a grid that is not such a product.
    """

    nodes: NDArray[np.float64]
    weights: NDArray[np.float64]
    axes: tuple[tuple[NDArray[np.float64], NDArray[np.float64]], ...] = ()

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if nodes.ndim != 2 or nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes must be an (m, d) array with one weight per row")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        axes = tuple((_frozen_array(x), _frozen_array(w)) for x, w in self.axes)
        sizes = [len(x) for x, _ in axes]
        if axes and (len(axes) != nodes.shape[1] or np.prod(sizes) != len(nodes)):
            raise ValueError("axes must hold one 1-d rule per coordinate, m nodes in all")
        object.__setattr__(self, "nodes", _frozen_array(nodes))
        object.__setattr__(self, "weights", _frozen_array(weights))
        object.__setattr__(self, "axes", axes)

    @property
    def m(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True, eq=False)
class GridFactor:
    """One factor of a GridOperator: a kernel on some coordinates of the grid.

    coords selects the coordinates the factor covers; nodes (p, d_k)
    and weights (p,) are its quadrature rule on them, and gram_matrix
    is its p x p Gram G_k, built at construction. The spectrum of
    S_k = W_k^(1/2) G_k W_k^(1/2) is computed on first use and cached.
    """

    kernel: KernelSpec
    coords: slice
    nodes: NDArray[np.float64]
    weights: NDArray[np.float64]
    gram_matrix: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        G = gram(self.kernel, self.nodes)
        G.flags.writeable = False
        object.__setattr__(self, "gram_matrix", G)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def spectrum(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """(nu ascending and clamped at 0, V orthogonal p x p) with S_k = V diag(nu) V'.

        One eigendecomposition of S_k (linalg.sym_eig), every eigenvector
        kept. nu is clamped at 0, so 1/(nu + lam) <= 1/lam for every
        lam > 0, and nothing divides by a small eigenvalue.
        """
        s = np.sqrt(self.weights)
        nu, V = sym_eig(s[:, None] * self.gram_matrix * s[None, :])
        nu = np.maximum(nu, 0.0)
        nu.flags.writeable = V.flags.writeable = False
        return nu, V


def _kron_apply(mats: tuple[NDArray[np.float64], ...], v: NDArray[np.float64]) -> NDArray:
    """(M_1 kron ... kron M_F) v for a vector v in C order, without forming the product.

    Each step multiplies the leading tensor axis by its matrix and moves
    it last, so after F steps the axes are back in order. With one
    matrix this is M_1 @ v.
    """
    for M in mats:
        v = (M @ v.reshape(M.shape[1], -1)).T
    return v.reshape(-1)


@dataclass(frozen=True, eq=False)
class GridOperator:
    """The kernel integral operator discretized on a quadrature grid.

    factors holds the operator's GridFactors, with node Gram
    G = G_1 kron ... kron G_F in the grid's node order. A Gaussian or
    constant kernel on a grid with per-axis rules (grid.axes) has one
    factor per axis, with the kernel's 1-d form; any other kernel or
    grid has one factor, the full kernel on all nodes, whose G is the
    m x m node Gram. Each method is one loop over the factors:
    apply(v) = G v by mode products; spectrum, the Kronecker product of
    the factors' spectra; at_points, k(xs, nodes) @ C from each
    factor's kernel rows; on_product, k(P, centers) @ a for a product
    point set P.
    """

    kernel: KernelSpec
    grid: QuadratureGrid
    factors: tuple[GridFactor, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        kernel, grid = self.kernel, self.grid
        if kernel.family in PRODUCT_FAMILIES and grid.axes:
            axis_kernel = replace(kernel, dim=1)
            factors = tuple(
                GridFactor(axis_kernel, slice(k, k + 1), x.reshape(-1, 1), w)
                for k, (x, w) in enumerate(grid.axes)
            )
        else:
            factors = (GridFactor(kernel, slice(0, kernel.dim), grid.nodes, grid.weights),)
        object.__setattr__(self, "factors", factors)

    def apply(self, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """G v for a vector v of node values."""
        return _kron_apply(tuple(f.gram_matrix for f in self.factors), v)

    @cached_property
    def spectrum(self) -> tuple[NDArray[np.float64], tuple[NDArray[np.float64], ...]]:
        """(nu, (V_1, ..., V_F)) with S = V diag(nu) V' for V = V_1 kron ... kron V_F.

        nu = nu_1 kron ... kron nu_F, flat in the order of V's columns,
        holds the products of the factors' clamped eigenvalues; one
        factor gives its own (nu, (V,)).
        """
        nus, Vs = zip(*(f.spectrum for f in self.factors))
        return reduce(lambda u, v: np.multiply.outer(u, v).ravel(), nus), Vs

    @cached_property
    def _resolved(self) -> NDArray[np.float64]:
        """The values nu above m * eps * max(nu), numpy matrix_rank's rule.

        Below that bound an eigenvalue of S is roundoff, so rank and
        effective_dimension both count only these values.
        """
        nu, _ = self.spectrum
        return nu[nu > self.grid.m * np.finfo(np.float64).eps * np.max(nu)]

    @property
    def rank(self) -> int:
        """The numerical rank of S: the number of resolved values nu."""
        return self._resolved.size

    def effective_dimension(self, lam: float) -> float:
        """N(lam) = tr K (K + lam)^-1 = sum_i nu_i / (nu_i + lam) over the resolved nu."""
        if not lam > 0:
            raise ValueError("lam must be positive")
        nu = self._resolved
        return float(np.sum(nu / (nu + lam)))

    def at_points(self, xs: NDArray[np.float64], coeffs: NDArray[np.float64]) -> NDArray:
        """k(xs, nodes) @ coeffs for an (n, d) array xs and coeffs of shape (m,) or (m, c).

        The first factor's kernel rows go through kernel_apply against
        coeffs with that factor's axis leading; each further factor's
        rows, n x p_k, are contracted row by row. So n * sum p_k kernel
        values are assembled instead of n * m.
        """
        n = xs.shape[0]
        first, *rest = self.factors
        first_coeffs = coeffs.reshape(first.size, -1)
        out = kernel_apply(first.kernel, xs[:, first.coords], first.nodes, first_coeffs)
        for f in rest:
            rows = cross_gram(f.kernel, xs[:, f.coords], f.nodes)
            out = np.einsum("ij...,ij->i...", out.reshape(n, f.size, -1), rows)
        return out.reshape((n,) + coeffs.shape[1:])

    def split(self, axes: tuple[NDArray[np.float64], ...]) -> tuple[NDArray[np.float64], ...]:
        """The product of 1-d point sets axes, one per coordinate, as one point set per factor."""
        return tuple(_product(list(axes[f.coords])) for f in self.factors)

    def on_product(
        self, point_sets: tuple[NDArray[np.float64], ...], centers: NDArray[np.float64],
        coeffs: NDArray[np.float64],
    ) -> NDArray[np.float64]:
        """k(P, centers) @ coeffs on the product P of point_sets, in itertools.product order.

        point_sets holds one point set P_k per factor (split). With
        R_k = k_k(P_k, centers) each factor's rows, the values are
        sum_j coeffs_j prod_k R_k[i_k, j]: the rows of all factors but
        the last are multiplied out column by column, and the last
        factor's rows multiply that through kernel_apply. So
        sum_k |P_k| * n kernel values are assembled instead of |P| * n;
        at d = 2 this is R_1 diag(coeffs) R_2'.
        """
        outer = coeffs[None, :]
        for f, pts in zip(self.factors[:-1], point_sets):
            rows = cross_gram(f.kernel, pts, centers[:, f.coords])
            outer = (outer[:, None, :] * rows[None, :, :]).reshape(-1, rows.shape[1])
        last = self.factors[-1]
        return kernel_apply(last.kernel, point_sets[-1], centers[:, last.coords], outer.T).T.ravel()


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
    The grid keeps its 1-d rules as axes. Dirac collapses to a single
    node, with no axes.

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
    return QuadratureGrid(_product(list(points)), product, tuple(axes))


def solve_coefficient(
    op: GridOperator, f0_values: NDArray[np.float64], lam: float
) -> FredholmSolution:
    """Solves (lam*I + G W) w = f0 at the grid nodes through the spectrum.

    With S = V diag(nu) V' (GridOperator.spectrum), the spectral form
    gives w = W^(-1/2) V ((V'b) / (nu + lam)) for b = W^(1/2) f0, with V
    and V' applied by mode products. flambda_values = G W w is computed
    with the full operator (GridOperator.apply), so the node identity
    below checks the spectral solve against the operator itself.

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
    nu, Vs = op.spectrum
    s = np.sqrt(grid.weights)
    coef = _kron_apply(tuple(V.T for V in Vs), s * f0) / (nu + lam)
    w = _kron_apply(Vs, coef) / s
    Ww = grid.weights * w
    flambda = op.apply(Ww)
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
    f0 = op.apply(b)
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
    the coefficient gap at the nodes in the operator's node Gram G.
    """
    w0 = np.asarray(w0_values, dtype=np.float64).reshape(-1)
    d = sol.grid.weights * (w0 - sol.w_values)
    return _clamp_nonneg(float(d @ sol.operator.apply(d)))
