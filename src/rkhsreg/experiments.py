"""Scenario definitions, reproducible sampling, Monte Carlo replication,
and convergence-rate fitting.

A scenario pins the data-generating law: kernel, design measure, a
target f0 constructed in the range of the kernel operator, and a noise
model. Replications are keyed by (base_seed, n, lambda-bits,
replication index) through a splittable seed scheme, so every
dataset's points and noise are bit-for-bit reproducible whatever
replications it is run beside; its responses agree to roundoff, since
a chunk evaluates f0 at all its points at once (_sample_at_nodes).
Replications run in chunks of consecutive indices, each chunk on
stacked arrays (run_replication), and the chunks in index order. The
replication driver measures RKHS distances of the ridge and auxiliary
fits against the continuous target and the empirical objective, and
stops the run when a deterministic per-sample bound breaks.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .auxiliary import auxiliary_residuals, theoretical_tilde_risk
from .estimator import (
    Dataset,
    KernelExpansion,
    _clamp_broken,
    _data_operator,
    _gram_free_transform,
    _ridge_factor,
    evaluate_batch,
)
from .fredholm import (
    LOW_RANK_MIN_RATIO,
    DesignMeasure,
    FredholmSolution,
    GridOperator,
    QuadratureGrid,
    build_grid,
    continuous_objective,
    f0_in_range,
    flambda_expansion,
    solve_coefficient,
)
from .kernels import (
    APPLY_BLOCK_ENTRIES,
    ConfigError,
    KernelSpec,
    TaylorTransform,
    as_points,
    gram,
    taylor_transform,
)

W0_CHOICES: dict[str, object] = {
    "sin2pi": lambda x: np.sin(2.0 * np.pi * x),
    "sin2pi_small": lambda x: 0.2 * np.sin(2.0 * np.pi * x),
    "poly3": lambda x: x**3,
    "zero": lambda x: np.zeros_like(x),
}
# Heteroscedastic noise profiles; NoiseModel.std_at gives their formulas.
NOISE_FAMILIES = ("affine", "sine")


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise: f_i = f0(X_i) + eps_i, eps_i ~ N(0, sigma(X_i)^2).

    kind "homoscedastic" uses the constant sigma; "heteroscedastic"
    modulates it by a named positive profile of the first coordinate:
    "affine" gives sigma * (0.25 + x1), "sine" gives
    sigma * (0.75 + 0.5 sin(2 pi x1)).
    """

    kind: str = "homoscedastic"
    sigma: float = 0.2
    family: str = "affine"

    def __post_init__(self) -> None:
        kind = str(self.kind).lower()
        if kind not in ("homoscedastic", "heteroscedastic"):
            raise ConfigError("kind", f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError("sigma", "must be finite and nonnegative")
        if self.family not in NOISE_FAMILIES:
            raise ConfigError(
                "family", f"unknown noise family {self.family!r}; expected one of {NOISE_FAMILIES}"
            )

    def std_at(self, xs: NDArray[np.float64]) -> NDArray[np.float64]:
        x1 = np.asarray(xs, dtype=np.float64).reshape(xs.shape[0], -1)[:, 0]
        if self.kind == "homoscedastic":
            return np.full(x1.shape[0], self.sigma)
        if self.family == "affine":
            return self.sigma * (0.25 + x1)
        return self.sigma * (0.75 + 0.5 * np.sin(2.0 * np.pi * x1))

    def sample(
        self, rngs: Sequence[np.random.Generator], xs: NDArray[np.float64]
    ) -> NDArray[np.float64]:
        """One independent N(0, std_at(x)^2) draw per point x of a stack xs (B, n, d).

        Member b draws its n standard normals from rngs[b] in place into
        the (B, n) result, which std_at scales once for the whole stack:
        the values rng.normal(0, std_at(xs[b])) gives, without its loc.
        """
        B, n, d = xs.shape
        noise = np.empty((B, n))
        for rng, out in zip(rngs, noise):
            rng.standard_normal(out=out)
        noise *= self.std_at(xs.reshape(B * n, d)).reshape(B, n)
        return noise

    def condvar_at(self, xs: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.std_at(xs) ** 2

    def irreducible(self, grid: QuadratureGrid) -> float:
        """E (f - f0(X))^2: exact for homoscedastic, quadrature otherwise."""
        if self.kind == "homoscedastic":
            return self.sigma**2
        return float(grid.weights @ self.condvar_at(grid.nodes))


@dataclass(frozen=True)
class ScenarioSpec:
    """Fully determines the data-generating law of an experiment.

    w0 names the coefficient function of the target f0 = K w0 (choices:
    "sin2pi", "sin2pi_small", "poly3", "zero"); grid_m sets the
    quadrature resolution of the continuous problem; base_seed roots
    every replication stream.
    """

    kernel: KernelSpec
    design: DesignMeasure
    w0: str = "sin2pi"
    noise: NoiseModel = NoiseModel()
    grid_m: int = 256
    base_seed: int = 20260815

    def __post_init__(self) -> None:
        if self.w0 not in W0_CHOICES:
            raise ConfigError(
                "w0", f"unknown w0 choice {self.w0!r}; expected one of {sorted(W0_CHOICES)}"
            )
        if self.grid_m < 8:
            raise ConfigError("grid_m", "must be at least 8")
        if self.base_seed < 0 or self.base_seed >= 2**64:
            raise ConfigError("base_seed", "must fit in 64 unsigned bits")
        if self.kernel.dim != self.design.dim:
            raise ConfigError("kernel.dim", f"differs from the design's dim {self.design.dim}")
        # The affine profile is linear in x1, and the evaluation grid holds the support's ends.
        if np.any(self.noise.std_at(self.design.eval_grid) < 0):
            raise ConfigError("noise.family", "the noise profile is negative on the design support")

    def w0_at(self, xs: NDArray[np.float64]) -> NDArray[np.float64]:
        x1 = np.asarray(xs, dtype=np.float64).reshape(xs.shape[0], -1)[:, 0]
        return W0_CHOICES[self.w0](x1)


def canonical_scenario(base_seed: int = 20260815) -> ScenarioSpec:
    """Gaussian kernel h=0.25 on Uniform[0,1], w0 = sin(2 pi x), sigma = 0.2.

    Satisfies every hypothesis of the verified statements at once:
    bounded kernel, target in the range of the operator, compact
    support, homoscedastic Gaussian noise.
    """
    return ScenarioSpec(
        kernel=KernelSpec("gaussian", 0.25, 1),
        design=DesignMeasure.uniform(0.0, 1.0),
        w0="sin2pi",
        noise=NoiseModel("homoscedastic", 0.2),
        grid_m=256,
        base_seed=base_seed,
    )


def rate_scenario(base_seed: int = 20260815) -> ScenarioSpec:
    """Canonical geometry with the low-amplitude target 0.2 sin(2 pi x).

    At desk-scale sample sizes the n^(-1/5) regularization schedule
    keeps the canonical scenario in its bias-saturated regime (the
    schedule's lambda values sit above the kernel operator's second
    eigenvalue), so the asymptotic decay is not visible there. Scaling
    the signal down makes the variance terms dominate and the fitted
    log-log rate emerges by n = 320.
    """
    return replace(canonical_scenario(base_seed), w0="sin2pi_small")


@dataclass(frozen=True)
class ReplicationMetrics:
    """Per-replication measurements.

    Squared RKHS distances of the ridge fit (hat) and the auxiliary fit
    (tilde) against the continuous target and against each other, the
    distance to the true target f0, the empirical objective value, and
    the sup-norm certificate with its grid-sampled counterpart.
    """

    n: int
    lam: float
    dist_hat_flambda_sq: float
    dist_tilde_flambda_sq: float
    dist_hat_tilde_sq: float
    dist_hat_f0_sq: float
    theta_hat: float
    sup_gap_hat_flambda: float
    sup_gap_grid_max: float


METRIC_FIELDS = tuple(f.name for f in fields(ReplicationMetrics) if f.name not in ("n", "lam"))


@dataclass(frozen=True)
class AggregateResult:
    """Monte Carlo aggregate over the successful replications.

    means/stderrs are keyed by METRIC_FIELDS with stderr =
    sample std / sqrt(count). theoretical_tilde_risk and theta_star
    carry the closed-form reference values; effective_dimension is
    N(lam) = tr K (K + lam)^-1 of the scenario's kernel operator.
    Failed replications are counted, never silently dropped.
    ball_violations and residual_violations are always 0: a broken
    bound raises in run_replication and stops the run.
    """

    n: int
    lam: float
    R: int
    n_failed: int
    means: dict[str, float]
    stderrs: dict[str, float]
    theoretical_tilde_risk: float
    theta_star: float
    ball_violations: int
    residual_violations: int
    effective_dimension: float


@dataclass(frozen=True)
class _DesignContext:
    op: GridOperator
    f0: KernelExpansion
    f0_values: NDArray[np.float64]
    norm_f0_sq: float
    # The sup-norm grid as one point set per factor of op (GridOperator.split).
    eval_points: tuple[NDArray[np.float64], ...]
    # The Taylor transform on the design's support, which holds the
    # nodes, the sup-norm axis and every draw, with the nodes' center
    # table and the axis' point table; all None where no transform takes
    # the nodes (kernels.taylor_transform).
    taylor: TaylorTransform | None
    node_centers: tuple | None
    axis_points: tuple | None


@dataclass(frozen=True)
class _LambdaContext:
    sol: FredholmSolution
    flam: KernelExpansion
    flam_eval: NDArray[np.float64]
    theta_star: float
    # Columns f0.coeffs and flam.coeffs: both expansions sit on the grid nodes.
    node_coeffs: NDArray[np.float64]
    # The Taylor moments (1, Q, P, 2 + r) of [f0 | f_lambda | C] on the
    # nodes' center table, C the grid's Nystrom coefficients, for every
    # chunk's f0(X), f_lambda(X) and L; None where the design context
    # holds no Taylor transform.
    node_moments: NDArray[np.float64] | None


# Relative gap allowed between the target's node values from the grid
# operator (G W w0) and from its expansion evaluated by kernel_apply.
# For a 1-d Gaussian with 15 Q < m nodes (the canonical grid) that side
# is kernel_apply's Taylor transform, whose truncation bound
# 2^-53 * sum |c| sits far inside this tolerance; otherwise both sides
# sum the same m products, apart by roundoff alone.
TARGET_AGREEMENT_TOL = 1e-10


@lru_cache(maxsize=16)
def _design_context(scenario: ScenarioSpec) -> _DesignContext:
    """The scenario's grid operator and target f0, checked at the nodes.

    The check compares the operator product G W w0 with the target's
    expansion summed directly (evaluate_batch), not with at_points.
    For a 1-d Gaussian kernel whose Taylor transform on the design's
    support takes the nodes, the context holds that transform with the
    nodes' center table and the sup-norm axis' point table, formed once
    for every replication that shares them (_run_chunk).

    Raises:
        ArithmeticError: If the right-hand side f0_in_range builds for
            the Fredholm problem is not the target f0 at the nodes, or
            the gap between the two is NaN.
    """
    grid = build_grid(scenario.design, scenario.grid_m)
    op = GridOperator(scenario.kernel, grid)
    w0_values = scenario.w0_at(grid.nodes)
    f0_values, c0 = f0_in_range(op, w0_values)
    f0 = KernelExpansion(scenario.kernel, grid.nodes, grid.weights * w0_values)
    gap = float(np.max(np.abs(f0_values - evaluate_batch(f0, grid.nodes))))
    # Written so that a NaN gap fails it.
    if not gap <= TARGET_AGREEMENT_TOL * (1.0 + float(np.max(np.abs(f0_values)))):
        raise ArithmeticError(f"Fredholm right-hand side is off the target f0 by {gap:.3e}")
    eval_points = op.split(scenario.design.eval_axes)
    low, high = scenario.design.support
    nodes = grid.nodes[:, 0]
    taylor = taylor_transform(scenario.kernel, low[0], high[0], nodes)
    tables = (None, None)
    if taylor is not None:
        tables = taylor.center_table(nodes), taylor.point_table(eval_points[0][:, 0])
    return _DesignContext(op, f0, f0_values, c0**2, eval_points, taylor, *tables)


@lru_cache(maxsize=64)
def _lambda_context(scenario: ScenarioSpec, lam: float) -> _LambdaContext:
    dctx = _design_context(scenario)
    sol = solve_coefficient(dctx.op, dctx.f0_values, lam)
    if not np.array_equal(sol.f0_values, dctx.f0_values):
        raise ArithmeticError(f"the grid solution at lam={lam!r} solved a different right-hand side")
    flam = flambda_expansion(sol)
    flam_eval = dctx.op.at_points(scenario.design.eval_grid, flam.coeffs)
    theta_star = continuous_objective(sol, scenario.noise.irreducible(dctx.op.grid))
    node_coeffs = np.column_stack([dctx.f0.coeffs, flam.coeffs])
    node_moments = None
    if dctx.taylor is not None:
        # Any n at or above 10 r gets the Nystrom coefficients, the same for every such n.
        nystrom = dctx.op.nystrom_coefficients(LOW_RANK_MIN_RATIO * dctx.op.rank)
        columns = np.hstack([node_coeffs, nystrom])
        node_moments = dctx.taylor.moments(dctx.node_centers, columns)
    return _LambdaContext(sol, flam, flam_eval, theta_star, node_coeffs, node_moments)


def continuous_solution(scenario: ScenarioSpec, lam: float) -> FredholmSolution:
    """The scenario's continuous-problem solution at regularization lam."""
    return _lambda_context(scenario, lam).sol


def target_values(scenario: ScenarioSpec, xs: ArrayLike) -> NDArray[np.float64]:
    """The true target f0 = integral of k(., y) w0(y) dP(y) at points xs.

    Its node expansion is evaluated by the grid operator
    (GridOperator.at_points), the path that gives f0 at every dataset's
    points, so a dataset drawn without noise has exactly these values
    as its responses.
    """
    dctx = _design_context(scenario)
    return dctx.op.at_points(as_points(xs, scenario.kernel.dim), dctx.f0.coeffs)


def flambda_values(scenario: ScenarioSpec, lam: float, xs: ArrayLike) -> NDArray[np.float64]:
    """The continuous regularized target f_lambda at points xs.

    Its node expansion is evaluated by the grid operator
    (GridOperator.at_points), as f0's is in target_values.
    """
    coeffs = _lambda_context(scenario, lam).flam.coeffs
    return _design_context(scenario).op.at_points(as_points(xs, scenario.kernel.dim), coeffs)


# The constants of NumPy's SeedSequence (O'Neill's seed_seq hash) with
# its default pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_UINT32, _UINT64 = np.dtype(np.uint32), np.dtype(np.uint64)


def _words(value: int) -> list[int]:
    """The 32-bit words of an integer >= 0, least significant first, as SeedSequence splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed value and the next hash constant."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _absorb(pool: list[int], hash_const: int, words: list[int]) -> int:
    """Mixes entropy words past the pool's size into every pool word; returns the hash constant."""
    for word in words:
        for dst in range(_POOL_SIZE):
            # _hashmix inlined: this loop runs once per replication.
            value = word ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            value ^= value >> 16
            mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _MASK32
            pool[dst] = mixed ^ (mixed >> 16)
    return hash_const


@lru_cache(maxsize=64)
def _seed_prefix(base_seed: int, n: int, lam_bits: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool and hash constant for (base_seed, n, lam_bits), before the index.

    The entropy is base_seed's words padded with zeros to the pool size,
    then the spawn key's words, so the state after n and lam_bits is
    shared by every replication index of one (n, lambda) stream.
    """
    run = _words(base_seed)
    pool: list[int] = []
    hash_const = _INIT_A
    for word in run + [0] * (_POOL_SIZE - len(run)):
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _MASK32
                pool[dst] = mixed ^ (mixed >> 16)
    hash_const = _absorb(pool, hash_const, _words(n) + _words(lam_bits))
    return tuple(pool), hash_const


@lru_cache(maxsize=4)
def _output_hashes(count: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) hash constants of SeedSequence.generate_state's first count words.

    They depend on the word's position alone, so they are computed once.
    """
    hashes, hash_const = [], _INIT_B
    for _ in range(count):
        xor, hash_const = hash_const, hash_const * _MULT_B & _MASK32
        hashes.append((xor, hash_const))
    return tuple(hashes)


class _SeedPool(np.random.bit_generator.ISeedSequence):
    """A mixed SeedSequence pool: generate_state gives SeedSequence's output words for it."""

    __slots__ = ("pool",)

    def __init__(self, pool: list[int]):
        self.pool = pool

    def generate_state(self, n_words: int, dtype=np.uint32) -> NDArray:
        dtype = np.dtype(dtype)
        if dtype != _UINT32 and dtype != _UINT64:
            raise ValueError("only support uint32 or uint64")
        words = []
        for i, (xor, mult) in enumerate(_output_hashes(n_words * dtype.itemsize // 4)):
            value = (self.pool[i % _POOL_SIZE] ^ xor) * mult & _MASK32
            words.append(value ^ (value >> 16))
        if dtype == _UINT64:
            # Little-endian pairs, as SeedSequence views its uint32 words.
            words = [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]
        return np.array(words, dtype)


def _rng_for(scenario: ScenarioSpec, n: int, lam: float | None, index: int) -> np.random.Generator:
    """The stream keyed by (base_seed, n, lambda bits, index).

    Bit for bit np.random.default_rng(np.random.SeedSequence(base_seed,
    spawn_key=(n, lam_bits, index))): reproducible and independent of
    execution order. The pool after the fixed words is cached per
    (base_seed, n, lam_bits), so each index hashes only its own words.
    """
    lam_bits = struct.unpack("<Q", struct.pack("<d", 0.0 if lam is None else lam))[0]
    prefix, hash_const = _seed_prefix(scenario.base_seed, int(n), lam_bits)
    pool = list(prefix)
    _absorb(pool, hash_const, _words(int(index)))
    return np.random.Generator(np.random.PCG64(_SeedPool(pool)))


def sample_dataset(
    scenario: ScenarioSpec,
    n: int,
    replication_index: int,
    lambda_key: float | None = None,
) -> Dataset:
    """Draws one replication's dataset.

    X_i i.i.d. from the design measure and f_i = f0(X_i) + eps_i with
    independent Gaussian noise of the scenario's conditional standard
    deviation; f0 is the scenario's range-of-operator target evaluated
    through its quadrature construction. Identical arguments reproduce
    identical datasets bit-for-bit; lambda_key separates streams of
    sweeps that share (n, replication_index). A replication chunk draws
    the same points and noise bits for the index, but evaluates f0 at
    the points of the whole chunk at once, so its responses agree with
    these to roundoff.
    """
    dctx = _design_context(scenario)
    (xs, fs), _ = _sample_at_nodes(
        scenario, dctx, n, [replication_index], lambda_key, dctx.f0.coeffs
    )
    return Dataset(xs[0], fs[0])


def _draw(
    scenario: ScenarioSpec, n: int, indices: Sequence[int], lambda_key: float | None
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The points (B, n, d) and noise (B, n) of replications indices, B = len(indices).

    Each index draws from its own stream (_rng_for, whose seed prefix is
    cached per (n, lambda)), points then noise, so a dataset does not
    depend on the indices drawn beside it. The draws land in place in
    the chunk's arrays, and the box map and the noise scale are applied
    once per chunk (DesignMeasure.sample, NoiseModel.sample); every
    stream still draws its points before its noise.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rngs = [_rng_for(scenario, n, lambda_key, index) for index in indices]
    xs = scenario.design.sample(rngs, n)
    return xs, scenario.noise.sample(rngs, xs)


def _sample_at_nodes(
    scenario: ScenarioSpec,
    dctx: _DesignContext,
    n: int,
    indices: Sequence[int],
    lambda_key: float | None,
    node_coeffs: NDArray[np.float64],
    drawn: tuple[NDArray[np.float64], NDArray[np.float64]] | None = None,
    x_points: tuple | None = None,
    node_moments: NDArray[np.float64] | None = None,
) -> tuple[tuple[NDArray[np.float64], NDArray[np.float64]], NDArray[np.float64]]:
    """The datasets of replications indices, with node expansions evaluated at the data.

    dctx is the scenario's design context, and drawn the (points, noise)
    of these indices (_draw), drawn here if not given. node_coeffs holds
    coefficients on the grid nodes, f0's alone (m,) or f0's in its first
    column (m, k); the values k(X, nodes) @ node_coeffs at every point of
    every dataset come from one product. Where the context holds a
    Taylor transform and its interval covers the points, that is the
    stack's point table on it, x_points if given (the one a Gram-free
    chunk formed) or formed here, against the nodes' center table, with
    node_coeffs' moments on it if given (the lambda context's);
    otherwise the grid operator's per-factor kernel rows
    (GridOperator.at_points).

    Returns:
        ((xs, fs), values) with xs (B, n, d), fs (B, n) and values
        (B, n) or (B, n, k), for B = len(indices).
    """
    xs, noise = _draw(scenario, n, indices, lambda_key) if drawn is None else drawn
    B, d = xs.shape[0], xs.shape[2]
    taylor = dctx.taylor
    if x_points is None and taylor is not None and taylor.covers(xs[..., 0]):
        x_points = taylor.point_table(xs[..., 0])
    if x_points is None:
        values = dctx.op.at_points(xs.reshape(B * n, d), node_coeffs)
        values = values.reshape((B, n) + node_coeffs.shape[1:])
    else:
        values = taylor.apply(x_points, dctx.node_centers, node_coeffs, node_moments)
    fs = values.reshape(B, n, -1)[..., 0] + noise
    return (xs, fs), values


# Relative roundoff allowed in each of the three terms of the computed
# ||fhat - f_lambda||^2 = aKa - 2 a'f_lambda(X) + ||f_lambda||^2: each
# is a float64 sum of n (or m, for ||f_lambda||^2) products, accurate to
# about n * 1.1e-16 relative (9e-14 at n = 800), so their sum is off by
# at most CERTIFICATE_RTOL times the sum of their sizes.
CERTIFICATE_RTOL = 1e-9
# Data-Gram entries of one chunk of replications that builds Grams:
# _run_many runs max(1, CHUNK_GRAM_ENTRIES // n^2) such replications per
# run_replication call, 26 at n = 50, 4 at n = 128 and 1 from n = 182
# on. The Grams of a chunk of two or more take at most 512 KiB, which
# fits in L2 cache. A Gram-free chunk, on the Woodbury rung on whose
# points a Taylor transform takes the products (the canonical 1-d
# Gaussian from n = 10 r = 160), builds no Gram at all (_data_operator)
# and takes its size from the transform's block instead (_chunk_size).
CHUNK_GRAM_ENTRIES = 2**16


def run_replication(
    scenario: ScenarioSpec, n: int, lam: float, replication_index: int | Sequence[int]
) -> ReplicationMetrics | list[ReplicationMetrics | np.linalg.LinAlgError]:
    """Runs one replication, or a chunk of them, and measures every tracked quantity.

    A chunk of B indices at one (n, lam) runs on stacked arrays: draws
    in place from per-index streams whose seed prefix is cached (_draw),
    one data operator K (_data_operator), one product with the nodes for
    f0, f_lambda and, from n >= 10 r, the Nystrom factor L at every point
    (_sample_at_nodes), one auxiliary_residuals call, one product for
    the sup-norm grid, and one array operation per metric, clamp and
    check. K is a (B, n, n) stack of data Grams, except on the Woodbury
    rung where a Taylor transform takes K's products: then K is one
    Gram-free operator for the B members, which builds no Gram; the
    stack's point table is formed once over all B n points, each member
    has its own center table, and each product K_b V_b reads them; a
    replication run alone is the case B = 1. On the transform the design
    context holds those tables serve the product with the nodes and the
    sup-norm axis too. Only the factor of K + n*lam*I and the
    products with K are made per dataset, by one SpdFactor over the
    stack (_ridge_factor): K + n*lam*I is formed once for its dense
    members and not at all for its Woodbury ones, one loop factors and
    solves each member, and one product per stack checks each solution.
    A failed factor or check fails its own index alone. Every product
    and factor reads only the upper triangle of each K, and a replication
    run alone assembles no more than that (gram(..., upper=True)), or,
    Gram-free, only for the members that go dense. The auxiliary
    fit comes first, since its residuals r = f - (K + n*lam*I) t,
    t = w~/n its coefficients, need only the data and f_lambda; it also
    hands back f~ at the data, K t. One two-column solve
    [a | u] = (K + n*lam*I)^-1 [f | r] gives the ridge coefficients a and
    the bridge vector u, and with them the product K [a | u] that the
    solve's residual check formed. So each K is applied twice (more to
    refine a Woodbury solution), once by the auxiliary fit and once by
    the check, and no further product with K is formed: K a, K t,
    K (a - t) = K a - K t and K u give every squared RKHS distance, the
    empirical objective and the residual-bridge identity
    ||fhat - f~||^2 = u'Ku, whose two sides come from different passes.
    The bridge stays a real check of the shared factor: r is formed from
    K itself, so a factor of any other matrix leaves u apart from a - t;
    Gram-free, both sides read K through the points' Taylor tables, a
    different computation from the Woodbury solve's L L'.
    r is the lemma form f_lambda(X) - K t by construction, so that form
    is not checked.

    Three bounds are checked: the ball bound lam ||fhat||^2 <= mean f^2,
    the residual bound ||fhat - f~||^2 <= ||r||^2 / (4 lam n), and the
    sup-norm certificate max_grid |fhat - f_lambda| <= ||fhat - f_lambda||_k,
    which holds because k(x, x) = 1 for every built-in family; its
    right side is widened by the roundoff of the three terms the
    squared distance is summed from (CERTIFICATE_RTOL). Every identity,
    clamp and bound gives one boolean per index, a row of one check
    table per chunk (_run_chunk), and a chunk is drawn, assembled,
    factored and checked once. The error raised is the one a run in
    index order raises: the lowest failing index's first broken check.
    A non-finite input is a broken invariant too: an index whose solve
    or check failed is first checked for a NaN or infinity in f, f0(X),
    f_lambda(X) and what its data operator formed (its Gram's upper
    triangle, or Gram-free its rows of the products K V), so that a NaN
    stops the run instead of counting as a numerical failure. A check
    that meets a NaN is broken, so a NaN that arises later, in f_lambda
    or the fit on the sup-norm grid say, stops the run too.

    Returns:
        For one index its ReplicationMetrics; for a sequence, a list
        holding per index its ReplicationMetrics or the
        np.linalg.LinAlgError (NotPositiveDefiniteError) that failed it.

    Raises:
        np.linalg.LinAlgError: For one index, if its solve fails.
        ArithmeticError: If an input is not finite, an identity breaks,
            or a bound fails beyond 1e-9 relative and 1e-12 absolute,
            naming n, the replication index and the values or margin.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    single = isinstance(replication_index, (int, np.integer))
    indices = [replication_index] if single else list(replication_index)
    results = _run_chunk(scenario, n, lam, indices)
    if not single:
        return results
    (result,) = results
    if isinstance(result, np.linalg.LinAlgError):
        raise result
    return result


def _run_chunk(
    scenario: ScenarioSpec, n: int, lam: float, indices: list[int]
) -> list[ReplicationMetrics | np.linalg.LinAlgError]:
    """run_replication on a chunk of indices: drawn, assembled, factored and checked once.

    Each check gives one boolean per member, a row of the chunk's check
    table, in the order one replication meets them: the five clamped
    quadratic forms, the residual bridge and the ball, residual and
    sup-norm bounds. A row is broken wherever its check does not hold,
    so a NaN form, gap or margin breaks it. Every row is computed for
    every member, and a member whose solve failed has every row masked:
    its rows of X and K X hold no solution.
    Only if a solve or a row failed do four rows go first: whether f,
    f0(X), f_lambda(X) and the data Gram hold a NaN or infinity, filled
    in for those members and False for the others. The data Gram row
    reads what the data operator formed for each member (K.formed): the
    upper triangle of its Gram, or, Gram-free, its rows of every product
    K V and its own Gram if it went dense. The
    one raise site names the first broken row of the lowest failing
    index, with n, the replication and the row's values or margin.

    The data Grams are full for a chunk of two or more and the upper
    triangle alone for one index; a Gram-free chunk (_data_operator)
    builds none but the upper triangles of its members that go dense.
    The auxiliary fit, the factor and its check read only the upper
    triangle of a Gram either way. The points are drawn first (_draw),
    so that _data_operator sees them before any product: where it hands
    back the stack's Taylor tables on the design context's transform,
    f0(X), f_lambda(X) and L come from their point table against the
    nodes' center table, with the lambda context's moments of the node
    coefficients, and the fit on the sup-norm axis from the axis' point
    table against every member's center table, one product per chunk,
    in place of GridOperator.at_points and on_product.
    """
    dctx = _design_context(scenario)
    lctx = _lambda_context(scenario, lam)
    if lctx.sol.lam != lam:
        raise ArithmeticError(f"f_lambda was solved at lam={lctx.sol.lam!r}, not at lam={lam!r}")
    # On the Woodbury rung one product with the nodes also gives L = k(X, nodes) C.
    nystrom = dctx.op.nystrom_coefficients(n)
    node_coeffs = lctx.node_coeffs if nystrom is None else np.hstack([lctx.node_coeffs, nystrom])
    node_moments = lctx.node_moments
    if node_moments is not None:
        node_moments = node_moments[..., : node_coeffs.shape[1]]
    drawn = _draw(scenario, n, indices, lam)
    # A Gram of one replication (n >= 182 in _run_many) has several row
    # blocks, and assembling its upper triangle alone skips about half
    # its kernel values. A chunk's smaller Grams cost less in full than
    # with their lower triangles cleared. Only the upper triangle is read
    # either way, and a Gram-free chunk builds the upper triangles of the
    # members that go dense alone (_data_operator); on the design's
    # transform it hands back X's tables, which f0(X) and the sup-norm
    # axis read too.
    K, tables = _data_operator(
        scenario.kernel, drawn[0], nystrom is not None,
        lambda points: gram(scenario.kernel, points, upper=len(points) < max(2, len(indices))),
        dctx.taylor,
    )
    x_points, x_centers = tables or (None, None)
    (xs, fs), at_xs = _sample_at_nodes(
        scenario, dctx, n, indices, lam, node_coeffs, drawn, x_points, node_moments
    )
    low_rank = None if nystrom is None else at_xs[..., 2:]
    proj0, projl = at_xs[..., 0], at_xs[..., 1]
    tilde_w, Kt, residuals = auxiliary_residuals(fs, projl, K, lam)

    # The auxiliary fit, the factor and its check read only the upper
    # triangle of each K, so no symmetry pass is made. The right-hand
    # sides [f | r] of each member are the columns of a transposed view,
    # so that every member's is F-contiguous.
    sides = np.stack([fs, residuals], axis=1).transpose(0, 2, 1)
    X, KX, errors = _ridge_factor(K, n * lam, low_rank).solve_with_product(sides)
    failed = [b for b, error in enumerate(errors) if error is not None]
    # Rows a, u, K a and K u of the chunk's solutions and their products.
    a, u = X.transpose(2, 0, 1)
    t = tilde_w / n
    d = a - t
    # K a and K u from the solve's check, K t from the auxiliary fit.
    Ka, Ku = KX.transpose(2, 0, 1)
    Kd = Ka - Kt
    aKa = np.vecdot(a, Ka)
    a_projl = np.vecdot(a, projl)
    norm_flam_sq = lctx.sol.flambda_norm_sq
    forms = np.stack([
        aKa - 2.0 * a_projl + norm_flam_sq,
        aKa - 2.0 * np.vecdot(a, proj0) + dctx.norm_f0_sq,
        np.vecdot(t, Kt) - 2.0 * np.vecdot(t, projl) + norm_flam_sq,
        np.vecdot(d, Kd),
        np.vecdot(u, Ku),
    ])
    clamped = np.maximum(forms, 0.0)
    dist_hat_flambda_sq, dist_hat_f0_sq, dist_tilde_flambda_sq, dist_hat_tilde_sq, bridge = clamped
    bridge_broken = ~(np.abs(bridge - dist_hat_tilde_sq) <= 1e-8 * (1.0 + dist_hat_tilde_sq))

    fit_residuals = fs - Ka
    theta_hat = np.vecdot(fit_residuals, fit_residuals) / n + lam * aKa
    sup_gap_hat_flambda = np.sqrt(dist_hat_flambda_sq)
    if x_centers is None:
        fhat_eval = dctx.op.on_product(dctx.eval_points, xs, a)
    else:
        fhat_eval = dctx.taylor.apply(dctx.axis_points, x_centers, a)
    sup_gap_grid_max = np.max(np.abs(fhat_eval - lctx.flam_eval), axis=-1)
    certificate_slack = CERTIFICATE_RTOL * (np.abs(aKa) + 2.0 * np.abs(a_projl) + norm_flam_sq)
    # A negative ||f_lambda||^2, which breaks a clamp row first, makes
    # the certificate's square root NaN instead of a warning.
    with np.errstate(invalid="ignore"):
        certificate = np.sqrt(dist_hat_flambda_sq + certificate_slack)
    # The ball, residual and sup-norm bounds, lhs <= rhs.
    lhs = np.stack([lam * aKa, dist_hat_tilde_sq, sup_gap_grid_max])
    rhs = np.stack(
        [np.vecdot(fs, fs) / n, np.vecdot(residuals, residuals) / (4.0 * lam * n), certificate]
    )
    margin = lhs - rhs * (1.0 + 1e-9) - 1e-12

    table = np.vstack([_clamp_broken(forms), bridge_broken, ~(margin <= 0)])
    if failed:
        table[:, failed] = False
    if failed or table.any():
        # A member whose solve or check failed is first checked for a
        # non-finite input, so that a NaN stops the run instead of
        # failing one replication. A passing member's are not scanned.
        suspect = table.any(axis=0)
        suspect[failed] = True
        inputs = {
            "f": fs[suspect], "f0(X)": proj0[suspect], "f_lambda(X)": projl[suspect],
            "data Gram": K.formed(suspect),
        }
        nonfinite = np.zeros((len(inputs), len(indices)))
        for row, x in zip(nonfinite, inputs.values()):
            row[suspect] = [np.count_nonzero(~np.isfinite(member)) for member in x]
        table = np.vstack([nonfinite > 0, table])
    # (member, row) pairs in order: the first is the lowest failing index's first broken row.
    broken = np.argwhere(table.T)
    if len(broken):
        rows = (
            *(
                (f"non-finite {name}", "NaN or infinite entries: {0:.0f}", count)
                for name, count in zip(inputs, nonfinite)
            ),
            *(("quadratic form is negative beyond roundoff tolerance", "{0}", q) for q in forms),
            ("residual bridge identity violated", "{0} vs {1}", bridge, dist_hat_tilde_sq),
            *(
                (f"{name} bound violated", "{0!r} exceeds {1!r} by {2:.3e} beyond tolerance", *row)
                for name, *row in zip(("ball", "residual", "sup-norm"), lhs, rhs, margin)
            ),
        )
        b, check = broken[0]
        head, tail, *values = rows[check]
        tail = tail.format(*(float(v[b]) for v in values))
        raise ArithmeticError(f"{head} at n={n}, replication {indices[b]}: {tail}")

    columns = (
        dist_hat_flambda_sq, dist_tilde_flambda_sq, dist_hat_tilde_sq, dist_hat_f0_sq,
        theta_hat, sup_gap_hat_flambda, sup_gap_grid_max,
    )
    return [
        error or ReplicationMetrics(n, lam, *values)
        for error, values in zip(errors, zip(*(column.tolist() for column in columns)))
    ]


def _chunk_size(scenario: ScenarioSpec, n: int) -> int:
    """Replications per run_replication call at n: per Taylor block, or per CHUNK_GRAM_ENTRIES.

    Where the data side of draws on the design's support is Gram-free
    (estimator._gram_free_transform, the rule _data_operator follows),
    max(1, APPLY_BLOCK_ENTRIES // (Q n)) members, so that one column of
    the chunk's (Q, B n) Taylor sums holds no more values than a row
    block of the assembly: 5 at n = 800 and 22 at n = 181 on the
    canonical grid (Q = 8). Otherwise max(1, CHUNK_GRAM_ENTRIES // n^2).
    """
    dctx = _design_context(scenario)
    woodbury = dctx.op.nystrom_coefficients(n) is not None
    transform = _gram_free_transform(scenario.kernel, n, woodbury, dctx.taylor)
    if transform is None:
        return max(1, CHUNK_GRAM_ENTRIES // max(1, n * n))
    return max(1, APPLY_BLOCK_ENTRIES // (transform.count * n))


def _run_many(
    scenario: ScenarioSpec, n: int, lam: float, R: int
) -> tuple[list[ReplicationMetrics], list[int]]:
    """Runs R replications in chunks, in index order; returns (successes, failed indices).

    Each run_replication call takes the next _chunk_size(scenario, n)
    indices. Only numerical failures
    (np.linalg.LinAlgError, which includes NotPositiveDefiniteError)
    are counted. An ArithmeticError means a paper identity broke, which
    is a wiring fault rather than bad luck in the draw, so it propagates
    and stops the run.
    """
    successes: list[ReplicationMetrics] = []
    failed: list[int] = []
    size = _chunk_size(scenario, n)
    for start in range(0, R, size):
        indices = range(start, min(start + size, R))
        for index, result in zip(indices, run_replication(scenario, n, lam, indices)):
            if isinstance(result, np.linalg.LinAlgError):
                failed.append(index)
            else:
                successes.append(result)
    return successes, failed


def monte_carlo(scenario: ScenarioSpec, n: int, lam: float, R: int) -> AggregateResult:
    """Aggregates R replications at fixed (n, lam).

    Means and standard errors per metric over the successful
    replications, with the closed-form auxiliary risk and the continuous
    objective attached for side-by-side reporting.

    Raises:
        ValueError: If R < 2.
        RuntimeError: If fewer than two replications succeed.
    """
    if R < 2:
        raise ValueError("R must be at least 2")
    successes, failed = _run_many(scenario, n, lam, R)
    if len(successes) < 2:
        raise RuntimeError(f"only {len(successes)} of {R} replications succeeded")

    means: dict[str, float] = {}
    stderrs: dict[str, float] = {}
    for name in METRIC_FIELDS:
        values = np.array([getattr(r, name) for r in successes])
        means[name] = float(values.mean())
        stderrs[name] = float(values.std(ddof=1) / np.sqrt(values.shape[0]))

    lctx = _lambda_context(scenario, lam)
    op = lctx.sol.operator
    condvar = scenario.noise.condvar_at(op.grid.nodes)
    theory = theoretical_tilde_risk(lctx.sol, condvar, n)

    return AggregateResult(
        n=n,
        lam=lam,
        R=R,
        n_failed=len(failed),
        means=means,
        stderrs=stderrs,
        theoretical_tilde_risk=theory,
        theta_star=lctx.theta_star,
        ball_violations=0,
        residual_violations=0,
        effective_dimension=op.effective_dimension(lam),
    )


def rate_fit(ns: list[int], means: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of log(mean) against log(n).

    Raises:
        ValueError: For fewer than 3 points, a repeated sample size or
            nonpositive sample sizes or means.
    """
    ns_arr = np.asarray(ns, dtype=np.float64)
    means_arr = np.asarray(means, dtype=np.float64)
    if ns_arr.shape[0] < 3 or ns_arr.shape != means_arr.shape:
        raise ValueError("rate_fit needs at least 3 matching points")
    if np.any(means_arr <= 0) or np.any(ns_arr <= 0):
        raise ValueError("rate_fit needs positive sample sizes and means")
    if np.unique(ns_arr).shape[0] < ns_arr.shape[0]:
        raise ValueError("rate_fit needs distinct sample sizes")
    slope, intercept = np.polyfit(np.log(ns_arr), np.log(means_arr), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class MonotonicityReport:
    """Empirical objective means along increasing n against their ceiling.

    rows holds (n, mean, stderr) triples; violations lists any decrease
    beyond the 3-standard-error slack or any mean exceeding the
    continuous objective by more than 3 standard errors.
    """

    rows: tuple[tuple[int, float, float], ...]
    theta_star: float
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def monotonicity_check(
    scenario: ScenarioSpec, lam: float, ns: list[int], R: int
) -> MonotonicityReport:
    """Checks that mean empirical objectives grow with n up to the ceiling.

    The fitted objective is downward biased and nondecreasing in
    expectation, bounded by the continuous objective; violations are
    flagged only beyond Monte Carlo slack.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("ns must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")
    aggregates = [monte_carlo(scenario, n, lam, R) for n in ns]
    rows = tuple(
        (agg.n, agg.means["theta_hat"], agg.stderrs["theta_hat"]) for agg in aggregates
    )
    theta_star = aggregates[0].theta_star
    violations: list[str] = []
    for (n_a, mean_a, se_a), (n_b, mean_b, se_b) in zip(rows, rows[1:]):
        slack = 3.0 * float(np.hypot(se_a, se_b))
        if mean_b < mean_a - slack:
            violations.append(
                f"mean objective fell from {mean_a:.6g} (n={n_a}) to {mean_b:.6g} (n={n_b})"
            )
    for n, mean, se in rows:
        if mean > theta_star + 3.0 * se:
            violations.append(
                f"mean objective {mean:.6g} exceeds ceiling {theta_star:.6g} at n={n}"
            )
    return MonotonicityReport(rows=rows, theta_star=theta_star, violations=tuple(violations))


def weak_consistency_fractions(
    scenario: ScenarioSpec,
    ns: list[int],
    R: int,
    coefficient: float = 1.0,
    alpha: float = 0.2,
) -> tuple[float, list[float]]:
    """Fractions of replications with ||f0 - fhat||_k above a fixed level.

    Along the schedule lam_n = coefficient * n^(-alpha), returns
    (eps, fractions) with eps = half the mean distance at the smallest
    n. Convergence in probability shows up as nonincreasing fractions.
    Each fraction is over the successful replications at its n.

    Raises:
        ValueError: If ns is empty or R < 1.
        RuntimeError: If every replication at some n fails.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("ns must be nonempty")
    if R < 1:
        raise ValueError("R must be at least 1")
    eps = None
    fractions: list[float] = []
    for n in ns:
        lam = coefficient * float(n) ** (-alpha)
        successes, _ = _run_many(scenario, n, lam, R)
        if not successes:
            raise RuntimeError(f"n={n}: none of {R} replications succeeded")
        norms = np.sqrt([r.dist_hat_f0_sq for r in successes])
        if eps is None:
            eps = 0.5 * float(norms.mean())
        fractions.append(float(np.mean(norms >= eps)))
    assert eps is not None
    return eps, fractions
