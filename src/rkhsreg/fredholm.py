"""Nystrom solver for the continuous regularized regression problem.

The population-level solution f_lambda = (lam + K)^-1 K f0 solves a
Fredholm integral equation of the second kind, (lam + K) w = f0 with
f_lambda = K w, where K is the kernel integral operator of the design
measure P. The solver discretizes P by a probability quadrature
(Gauss-Legendre for Uniform), solves the weighted linear system in a
symmetrized form, and exposes f_lambda as a kernel expansion so RKHS
distances against fitted estimators are direct quadratic forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.stats
from numpy.typing import NDArray

from .estimator import KernelExpansion, _clamp_nonneg, _frozen_array, rkhs_norm_sq
from .kernels import KernelSpec, gram
from .linalg import solve_spd

# Discretization identity tolerance: f0 - f_lambda must equal lam * w at
# the nodes; larger residuals mean the quadrature system is inconsistent.
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class DesignMeasure:
    """Marginal design measure P of the sampling scenario.

    Supported kinds: "uniform" on a box (d <= 2), "truncated_gaussian"
    on an interval (d = 1), and "dirac" at a point. Coordinates are
    stored as tuples so the measure is hashable.
    """

    kind: str
    low: tuple[float, ...] = (0.0,)
    high: tuple[float, ...] = (1.0,)
    center: tuple[float, ...] = (0.0,)
    scale: float = 1.0

    def __post_init__(self) -> None:
        kind = str(self.kind).lower()
        if kind not in ("uniform", "truncated_gaussian", "dirac"):
            raise ValueError(f"unsupported design measure kind {self.kind!r}")
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
            if len(low) != len(high) or not 1 <= len(low) <= 2:
                raise ValueError("uniform measure needs matching low/high of dimension 1 or 2")
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "low": list(self.low),
            "high": list(self.high),
            "center": list(self.center),
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "DesignMeasure":
        # scalars and lists both normalize in __post_init__
        return cls(
            kind=obj["kind"],
            low=obj.get("low", (0.0,)),
            high=obj.get("high", (1.0,)),
            center=obj.get("center", (0.0,)),
            scale=float(obj.get("scale", 1.0)),
        )


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and probability weights approximating integration over P.

    Weights are positive and sum to one. density_values holds p(node_i)
    when P has a density, None otherwise.
    """

    nodes: NDArray[np.float64]
    weights: NDArray[np.float64]
    density_values: NDArray[np.float64] | None = None

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        nodes = nodes.reshape(-1, 1) if nodes.ndim == 1 else nodes
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes and weights must have equal length")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        object.__setattr__(self, "nodes", _frozen_array(nodes))
        object.__setattr__(self, "weights", _frozen_array(weights))
        if self.density_values is not None:
            dens = np.asarray(self.density_values, dtype=np.float64).reshape(-1)
            if dens.shape[0] != nodes.shape[0]:
                raise ValueError("density_values length mismatch")
            object.__setattr__(self, "density_values", _frozen_array(dens))

    @property
    def m(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class FredholmSolution:
    """Solution of the discretized (lam + K) w = f0 on a quadrature grid.

    flambda_values = (K w) at the nodes, and f0 - f_lambda = lam * w
    holds at every node (residual_max records how tightly).
    """

    kernel: KernelSpec
    grid: QuadratureGrid
    lam: float
    w_values: NDArray[np.float64]
    f0_values: NDArray[np.float64]
    flambda_values: NDArray[np.float64]
    residual_max: float

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_dict(),
            "lam": self.lam,
            "nodes": self.grid.nodes.tolist(),
            "weights": self.grid.weights.tolist(),
            "w_values": self.w_values.tolist(),
            "f0_values": self.f0_values.tolist(),
            "flambda_values": self.flambda_values.tolist(),
            "residual_max": self.residual_max,
        }


def _gauss_legendre_1d(low: float, high: float, m: int) -> tuple[NDArray, NDArray]:
    x, w = np.polynomial.legendre.leggauss(m)
    nodes = low + (high - low) * 0.5 * (x + 1.0)
    return nodes, w / w.sum()


def build_grid(measure: DesignMeasure, m: int) -> QuadratureGrid:
    """Builds a probability quadrature for the design measure.

    Uniform uses Gauss-Legendre nodes (tensor product per axis for d=2,
    about sqrt(m) nodes per axis). TruncatedGaussian uses pdf-weighted
    Gauss-Legendre with renormalized weights, falling back to equally
    spaced midpoints for m < 4. Dirac collapses to a single node.

    Raises:
        ValueError: For m < 1 or an unsupported measure.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if measure.kind == "dirac":
        return QuadratureGrid(np.array([measure.center]), np.array([1.0]))
    if measure.kind == "uniform":
        if measure.dim == 1:
            nodes, weights = _gauss_legendre_1d(measure.low[0], measure.high[0], m)
            dens = np.full(m, 1.0 / (measure.high[0] - measure.low[0]))
            return QuadratureGrid(nodes, weights, dens)
        m1 = max(2, int(round(np.sqrt(m))))
        n0, w0 = _gauss_legendre_1d(measure.low[0], measure.high[0], m1)
        n1, w1 = _gauss_legendre_1d(measure.low[1], measure.high[1], m1)
        nodes = np.array([(a, b) for a in n0 for b in n1])
        weights = np.outer(w0, w1).reshape(-1)
        weights = weights / weights.sum()
        area = (measure.high[0] - measure.low[0]) * (measure.high[1] - measure.low[1])
        return QuadratureGrid(nodes, weights, np.full(len(nodes), 1.0 / area))
    # truncated_gaussian
    low, high = measure.low[0], measure.high[0]
    a = (low - measure.center[0]) / measure.scale
    b = (high - measure.center[0]) / measure.scale
    dist = scipy.stats.truncnorm(a, b, loc=measure.center[0], scale=measure.scale)
    if m < 4:
        # Too few points for a weighted Gauss rule to behave; use cell
        # midpoints with renormalized density weights.
        nodes = low + (high - low) * (np.arange(m) + 0.5) / m
        raw = dist.pdf(nodes)
    else:
        nodes, glw = _gauss_legendre_1d(low, high, m)
        raw = glw * dist.pdf(nodes)
    weights = raw / raw.sum()
    return QuadratureGrid(nodes, weights, dist.pdf(nodes))


def solve_coefficient(
    kernel: KernelSpec,
    grid: QuadratureGrid,
    f0_values: NDArray[np.float64],
    lam: float,
) -> FredholmSolution:
    """Solves (lam*I + G W) w = f0 at the grid nodes.

    G is the node Gram matrix and W = diag(weights); the system is
    solved in the similarity-transformed symmetric form
    (lam*I + W^(1/2) G W^(1/2)) so the positive definite path applies.
    flambda_values = G W w.

    Raises:
        ValueError: If lam <= 0 or f0_values has the wrong length.
        ArithmeticError: If the identity f0 - f_lambda = lam * w fails
            beyond tolerance, signalling an inconsistent discretization.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    f0 = np.asarray(f0_values, dtype=np.float64).reshape(-1)
    if f0.shape[0] != grid.m:
        raise ValueError(f"f0_values must have length {grid.m}")
    G = gram(kernel, grid.nodes)
    s = np.sqrt(grid.weights)
    A = lam * np.eye(grid.m) + (s[:, None] * G * s[None, :])
    w = solve_spd(A, s * f0) / s
    flambda = G @ (grid.weights * w)
    residual = f0 - flambda - lam * w
    residual_max = float(np.max(np.abs(residual)))
    if residual_max > RESIDUAL_TOL:
        raise ArithmeticError(
            f"discretization inconsistency: identity residual {residual_max:.3e}"
        )
    return FredholmSolution(kernel, grid, lam, w, f0, flambda, residual_max)


def flambda_expansion(sol: FredholmSolution) -> KernelExpansion:
    """Kernel expansion of f_lambda: coefficients weight_i * w_i at the nodes.

    Evaluating it approximates the integral of k(x, y) w(y) P(dy), so
    RKHS norms and distances against fitted estimators apply directly.
    """
    return KernelExpansion(sol.kernel, sol.grid.nodes, sol.grid.weights * sol.w_values)


def f0_in_range(
    kernel: KernelSpec, grid: QuadratureGrid, w0_values: NDArray[np.float64]
) -> tuple[NDArray[np.float64], float]:
    """Constructs a target in the range of the kernel operator.

    Returns f0 = G W w0 at the nodes together with the constant
    C0 = sqrt(w0' W G W w0), the RKHS norm of the constructed target.
    Targets built this way satisfy the hypotheses of the convergence
    statements; arbitrary node values do not.
    """
    w0 = np.asarray(w0_values, dtype=np.float64).reshape(-1)
    if w0.shape[0] != grid.m:
        raise ValueError(f"w0_values must have length {grid.m}")
    G = gram(kernel, grid.nodes)
    b = grid.weights * w0
    f0 = G @ b
    c0 = float(np.sqrt(_clamp_nonneg(float(b @ f0))))
    return f0, c0


def continuous_objective(sol: FredholmSolution, irreducible: float) -> float:
    """Value of the continuous regularized objective at its minimizer.

    irreducible + lam * <w, K w>_L2 + lam^2 * ||w||_L2^2, with the inner
    products taken as quadratures; irreducible is the scenario's noise
    floor E(f - f0(X))^2.
    """
    W = sol.grid.weights
    w = sol.w_values
    w_Kw = float((W * w) @ sol.flambda_values)
    w_l2 = float(W @ (w * w))
    return irreducible + sol.lam * w_Kw + sol.lam**2 * w_l2


def bias_norm_sq(sol: FredholmSolution, w0_values: NDArray[np.float64]) -> float:
    """Squared RKHS norm of f0 - f_lambda for a target f0 = K w0.

    Since f0 - f_lambda = K (w0 - w), the norm is the Gram quadratic
    form of the coefficient gap at the nodes.
    """
    w0 = np.asarray(w0_values, dtype=np.float64).reshape(-1)
    d = sol.grid.weights * (w0 - sol.w_values)
    return rkhs_norm_sq(KernelExpansion(sol.kernel, sol.grid.nodes, d))
