"""Scenario definitions, reproducible sampling, Monte Carlo replication,
and convergence-rate fitting.

A scenario pins the data-generating law: kernel, design measure, a
target f0 constructed in the range of the kernel operator, and a noise
model. Replications are keyed by (base_seed, n, lambda-bits,
replication index) through a splittable seed scheme, so every dataset
is bit-for-bit reproducible and aggregates are independent of worker
scheduling. The replication driver measures RKHS distances of the
ridge and auxiliary fits against the continuous target, the empirical
objective, and the deterministic per-sample bound flags.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.stats
from numpy.typing import ArrayLike, NDArray

from .auxiliary import bridge_distance_sq, fit_auxiliary, theoretical_tilde_risk
from .estimator import (
    Dataset,
    KernelExpansion,
    _clamp_nonneg,
    evaluate_batch,
    fit_ridge,
    rkhs_norm_sq,
)
from .fredholm import (
    DesignMeasure,
    FredholmSolution,
    QuadratureGrid,
    build_grid,
    continuous_objective,
    f0_in_range,
    flambda_expansion,
    solve_coefficient,
)
from .kernels import KernelSpec, cross_gram, gram
from .linalg import NotPositiveDefiniteError  # noqa: F401  (the counted failure type)

SUP_GRID_POINTS = 512

W0_CHOICES: dict[str, object] = {
    "sin2pi": lambda x: np.sin(2.0 * np.pi * x),
    "sin2pi_small": lambda x: 0.2 * np.sin(2.0 * np.pi * x),
    "poly3": lambda x: x**3,
    "zero": lambda x: np.zeros_like(x),
}


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
            raise ValueError(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        if kind == "heteroscedastic" and self.family not in ("affine", "sine"):
            raise ValueError(f"unknown heteroscedastic family {self.family!r}")

    def std_at(self, xs: NDArray[np.float64]) -> NDArray[np.float64]:
        x1 = np.asarray(xs, dtype=np.float64).reshape(xs.shape[0], -1)[:, 0]
        if self.kind == "homoscedastic":
            return np.full(x1.shape[0], self.sigma)
        if self.family == "affine":
            return self.sigma * (0.25 + x1)
        return self.sigma * (0.75 + 0.5 * np.sin(2.0 * np.pi * x1))

    def condvar_at(self, xs: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.std_at(xs) ** 2

    def irreducible(self, grid: QuadratureGrid) -> float:
        """E (f - f0(X))^2: exact for homoscedastic, quadrature otherwise."""
        if self.kind == "homoscedastic":
            return self.sigma**2
        return float(grid.weights @ self.condvar_at(grid.nodes))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "sigma": self.sigma, "family": self.family}

    @classmethod
    def from_dict(cls, obj: dict) -> "NoiseModel":
        return cls(
            kind=obj.get("kind", "homoscedastic"),
            sigma=float(obj.get("sigma", 0.2)),
            family=obj.get("family", "affine"),
        )


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
            raise ValueError(f"unknown w0 choice {self.w0!r}; expected one of {sorted(W0_CHOICES)}")
        if self.grid_m < 8:
            raise ValueError("grid_m must be at least 8")
        if self.base_seed < 0 or self.base_seed >= 2**64:
            raise ValueError("base_seed must fit in 64 unsigned bits")
        if self.kernel.dim != self.design.dim:
            raise ValueError("kernel dim and design measure dim differ")

    def w0_at(self, xs: NDArray[np.float64]) -> NDArray[np.float64]:
        x1 = np.asarray(xs, dtype=np.float64).reshape(xs.shape[0], -1)[:, 0]
        return W0_CHOICES[self.w0](x1)

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_dict(),
            "design": self.design.to_dict(),
            "w0": self.w0,
            "noise": self.noise.to_dict(),
            "grid_m": self.grid_m,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioSpec":
        return cls(
            kernel=KernelSpec.from_dict(obj["kernel"]),
            design=DesignMeasure.from_dict(obj["design"]),
            w0=obj.get("w0", "sin2pi"),
            noise=NoiseModel.from_dict(obj.get("noise", {})),
            grid_m=int(obj.get("grid_m", 256)),
            base_seed=int(obj.get("base_seed", 20260815)),
        )


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
    spec = canonical_scenario(base_seed)
    return ScenarioSpec(
        kernel=spec.kernel,
        design=spec.design,
        w0="sin2pi_small",
        noise=spec.noise,
        grid_m=spec.grid_m,
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class ReplicationMetrics:
    """Per-replication measurements.

    Squared RKHS distances of the ridge fit (hat) and the auxiliary fit
    (tilde) against the continuous target and against each other, the
    distance to the true target f0, the empirical objective value, the
    sup-norm certificate with its grid-sampled counterpart, and the two
    deterministic per-sample bound flags.
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
    ball_bound_ok: bool
    residual_bound_ok: bool


METRIC_FIELDS = (
    "dist_hat_flambda_sq",
    "dist_tilde_flambda_sq",
    "dist_hat_tilde_sq",
    "dist_hat_f0_sq",
    "theta_hat",
    "sup_gap_hat_flambda",
    "sup_gap_grid_max",
)


@dataclass(frozen=True)
class AggregateResult:
    """Monte Carlo aggregate over the successful replications.

    means/stderrs are keyed by METRIC_FIELDS with stderr =
    sample std / sqrt(count). theoretical_tilde_risk and theta_star
    carry the closed-form reference values; failed replications are
    counted, never silently dropped.
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


@dataclass(frozen=True)
class _DesignContext:
    grid: QuadratureGrid
    f0: KernelExpansion
    f0_values: NDArray[np.float64]
    norm_f0_sq: float
    eval_grid: NDArray[np.float64]


@dataclass(frozen=True)
class _LambdaContext:
    sol: FredholmSolution
    flam: KernelExpansion
    norm_flam_sq: float
    flam_eval: NDArray[np.float64]
    theta_star: float


def _eval_grid(design: DesignMeasure) -> NDArray[np.float64]:
    """Fixed grid over the design support for sup-gap sampling."""
    if design.kind == "dirac":
        return np.array([design.center])
    if design.dim == 1:
        return np.linspace(design.low[0], design.high[0], SUP_GRID_POINTS).reshape(-1, 1)
    side = int(np.ceil(np.sqrt(SUP_GRID_POINTS)))
    g0 = np.linspace(design.low[0], design.high[0], side)
    g1 = np.linspace(design.low[1], design.high[1], side)
    return np.array([(a, b) for a in g0 for b in g1])


@lru_cache(maxsize=16)
def _design_context(scenario: ScenarioSpec) -> _DesignContext:
    grid = build_grid(scenario.design, scenario.grid_m)
    w0_values = scenario.w0_at(grid.nodes)
    f0_values, c0 = f0_in_range(scenario.kernel, grid, w0_values)
    f0 = KernelExpansion(scenario.kernel, grid.nodes, grid.weights * w0_values)
    return _DesignContext(grid, f0, f0_values, c0**2, _eval_grid(scenario.design))


@lru_cache(maxsize=64)
def _lambda_context(scenario: ScenarioSpec, lam: float) -> _LambdaContext:
    dctx = _design_context(scenario)
    sol = solve_coefficient(scenario.kernel, dctx.grid, dctx.f0_values, lam)
    flam = flambda_expansion(sol)
    flam_eval = evaluate_batch(flam, dctx.eval_grid)
    theta_star = continuous_objective(sol, scenario.noise.irreducible(dctx.grid))
    return _LambdaContext(sol, flam, rkhs_norm_sq(flam), flam_eval, theta_star)


def continuous_solution(scenario: ScenarioSpec, lam: float) -> FredholmSolution:
    """The scenario's continuous-problem solution at regularization lam."""
    return _lambda_context(scenario, lam).sol


def target_values(scenario: ScenarioSpec, xs: ArrayLike) -> NDArray[np.float64]:
    """The true target f0 = integral of k(., y) w0(y) dP(y) at points xs."""
    return evaluate_batch(_design_context(scenario).f0, xs)


def flambda_values(scenario: ScenarioSpec, lam: float, xs: ArrayLike) -> NDArray[np.float64]:
    """The continuous regularized target f_lambda at points xs."""
    return evaluate_batch(_lambda_context(scenario, lam).flam, xs)


def _rng_for(scenario: ScenarioSpec, n: int, lam: float | None, index: int) -> np.random.Generator:
    # Splittable stream keyed by (base_seed, n, lambda bits, index):
    # reproducible bit-for-bit and independent of execution order.
    lam_bits = int(np.float64(0.0 if lam is None else lam).view(np.uint64))
    seq = np.random.SeedSequence(entropy=scenario.base_seed, spawn_key=(int(n), lam_bits, int(index)))
    return np.random.default_rng(seq)


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
    sweeps that share (n, replication_index).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _rng_for(scenario, n, lambda_key, replication_index)
    design = scenario.design
    if design.kind == "uniform":
        xs = rng.uniform(design.low, design.high, size=(n, design.dim))
    elif design.kind == "dirac":
        xs = np.tile(np.asarray(design.center, dtype=np.float64), (n, 1))
    elif design.kind == "truncated_gaussian":
        a = (design.low[0] - design.center[0]) / design.scale
        b = (design.high[0] - design.center[0]) / design.scale
        xs = scipy.stats.truncnorm.rvs(
            a, b, loc=design.center[0], scale=design.scale, size=n, random_state=rng
        ).reshape(n, 1)
    else:  # pragma: no cover - guarded in DesignMeasure
        raise ValueError(f"unsupported design measure {design.kind!r}")
    f0_at_xs = evaluate_batch(_design_context(scenario).f0, xs)
    fs = f0_at_xs + rng.normal(0.0, scenario.noise.std_at(xs))
    return Dataset(xs, fs)


def run_replication(
    scenario: ScenarioSpec, n: int, lam: float, replication_index: int
) -> ReplicationMetrics:
    """Runs one replication and measures every tracked quantity.

    Fits the ridge and auxiliary estimators on a fresh dataset, forms
    all squared RKHS distances against the continuous target as Gram
    quadratic forms, evaluates the empirical objective and the sup-norm
    certificate, checks the residual-bridge identity, and records the
    two deterministic bound flags.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    dctx = _design_context(scenario)
    lctx = _lambda_context(scenario, lam)
    kernel = scenario.kernel
    data = sample_dataset(scenario, n, replication_index, lambda_key=lam)

    K = gram(kernel, data.xs)
    fhat = fit_ridge(kernel, data, lam, gram_matrix=K)
    a = np.asarray(fhat.coeffs)
    C = cross_gram(kernel, data.xs, dctx.grid.nodes)
    proj0 = C @ dctx.f0.coeffs
    projl = C @ lctx.flam.coeffs
    Ka = K @ a
    aKa = float(a @ Ka)

    dist_hat_flambda_sq = _clamp_nonneg(aKa - 2.0 * float(a @ projl) + lctx.norm_flam_sq)
    dist_hat_f0_sq = _clamp_nonneg(aKa - 2.0 * float(a @ proj0) + dctx.norm_f0_sq)

    aux = fit_auxiliary(kernel, data, lctx.flam, lam, gram_matrix=K, flambda_at_xs=projl)
    t = np.asarray(aux.tilde.coeffs)
    Kt = K @ t
    dist_tilde_flambda_sq = _clamp_nonneg(float(t @ Kt) - 2.0 * float(t @ projl) + lctx.norm_flam_sq)
    d = a - t
    dist_hat_tilde_sq = _clamp_nonneg(float(d @ K @ d))

    bridge = bridge_distance_sq(aux, kernel, gram_matrix=K)
    if abs(bridge - dist_hat_tilde_sq) > 1e-8 * (1.0 + dist_hat_tilde_sq):
        raise ArithmeticError(
            f"residual bridge identity violated: {bridge} vs {dist_hat_tilde_sq}"
        )

    theta_hat = float(np.mean((data.fs - Ka) ** 2) + lam * aKa)
    mean_f_sq = float(np.mean(data.fs**2))
    ball_bound_ok = bool(lam * aKa <= mean_f_sq * (1.0 + 1e-9) + 1e-12)
    residual_rhs = float(aux.residuals @ aux.residuals) / (4.0 * lam * n)
    residual_bound_ok = bool(dist_hat_tilde_sq <= residual_rhs * (1.0 + 1e-9) + 1e-12)

    # All built-in families have sup k(x, x) = 1 on any support.
    sup_gap_hat_flambda = float(np.sqrt(dist_hat_flambda_sq))
    fhat_eval = evaluate_batch(fhat, dctx.eval_grid)
    sup_gap_grid_max = float(np.max(np.abs(fhat_eval - lctx.flam_eval)))

    return ReplicationMetrics(
        n=n,
        lam=lam,
        dist_hat_flambda_sq=dist_hat_flambda_sq,
        dist_tilde_flambda_sq=dist_tilde_flambda_sq,
        dist_hat_tilde_sq=dist_hat_tilde_sq,
        dist_hat_f0_sq=dist_hat_f0_sq,
        theta_hat=theta_hat,
        sup_gap_hat_flambda=sup_gap_hat_flambda,
        sup_gap_grid_max=sup_gap_grid_max,
        ball_bound_ok=ball_bound_ok,
        residual_bound_ok=residual_bound_ok,
    )


def worker_count() -> int:
    """Parallelism from RKHS_THREADS: unset = 1, 0 = all cores, N = N."""
    raw = os.environ.get("RKHS_THREADS", "").strip()
    if raw == "":
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"RKHS_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError("RKHS_THREADS must be nonnegative")
    return value if value > 0 else (os.cpu_count() or 1)


def _run_many(
    scenario: ScenarioSpec, n: int, lam: float, R: int
) -> tuple[list[ReplicationMetrics], list[int]]:
    """Runs R replications, ordered by index; returns (successes, failed indices).

    Replications execute on a thread pool when RKHS_THREADS asks for
    one; the shared contexts are immutable and results are folded in
    index order, so aggregates do not depend on the worker count.

    Only numerical failures (np.linalg.LinAlgError, which includes
    NotPositiveDefiniteError) are counted. An ArithmeticError means a
    paper identity broke, which is a wiring fault rather than bad luck
    in the draw, so it propagates and stops the run.
    """
    _design_context(scenario)
    _lambda_context(scenario, lam)

    def one(index: int) -> ReplicationMetrics | None:
        try:
            return run_replication(scenario, n, lam, index)
        except np.linalg.LinAlgError:
            return None

    workers = worker_count()
    if workers <= 1:
        results = [one(i) for i in range(R)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(R)))
    successes = [r for r in results if r is not None]
    failed = [i for i, r in enumerate(results) if r is None]
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

    dctx = _design_context(scenario)
    lctx = _lambda_context(scenario, lam)
    condvar = scenario.noise.condvar_at(dctx.grid.nodes)
    theory = theoretical_tilde_risk(scenario.kernel, lctx.sol, condvar, n).value

    return AggregateResult(
        n=n,
        lam=lam,
        R=R,
        n_failed=len(failed),
        means=means,
        stderrs=stderrs,
        theoretical_tilde_risk=theory,
        theta_star=lctx.theta_star,
        ball_violations=sum(1 for r in successes if not r.ball_bound_ok),
        residual_violations=sum(1 for r in successes if not r.residual_bound_ok),
    )


def rate_fit(ns: list[int], means: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of log(mean) against log(n).

    Raises:
        ValueError: For fewer than 3 points or nonpositive means.
    """
    ns_arr = np.asarray(ns, dtype=np.float64)
    means_arr = np.asarray(means, dtype=np.float64)
    if ns_arr.shape[0] < 3 or ns_arr.shape != means_arr.shape:
        raise ValueError("rate_fit needs at least 3 matching points")
    if np.any(means_arr <= 0) or np.any(ns_arr <= 0):
        raise ValueError("rate_fit needs positive sample sizes and means")
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
    """
    eps = None
    fractions: list[float] = []
    for n in ns:
        lam = coefficient * float(n) ** (-alpha)
        successes, _ = _run_many(scenario, n, lam, R)
        norms = np.sqrt([r.dist_hat_f0_sq for r in successes])
        if eps is None:
            eps = 0.5 * float(norms.mean())
        fractions.append(float(np.mean(norms >= eps)))
    assert eps is not None
    return eps, fractions
