"""Command-line front end: experiment configs, CSV/JSON emission, plots.

Subcommands:
    run <config.json>   Monte Carlo sweep over sample sizes from a JSON
                        config; writes results.csv, results.json, and
                        optionally loglog.svg and band.svg.
    lemma2              Randomized suite for the resolvent sandwich bound
                        (lam+K)^-1 K (lam+K)^-1 <= 1/(4 lam) in the
                        Loewner order.
    demo                One n=100 replication of the canonical scenario;
                        writes band.svg and correlation.svg.

Every command is deterministic given its seed and config. RKHS_THREADS
caps replication parallelism (unset = sequential, 0 = all cores).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .estimator import fit_ridge, gp_posterior_band
from .experiments import (
    AggregateResult,
    NOISE_FAMILIES,
    NoiseModel,
    ScenarioSpec,
    W0_CHOICES,
    canonical_scenario,
    flambda_values,
    monte_carlo,
    rate_fit,
    sample_dataset,
    target_values,
)
from .fredholm import DesignMeasure
from .kernels import FAMILIES, KernelSpec
from .linalg import loewner_leq, sandwich, sym_eig
from .svgplot import Figure

DEMO_N = 100
DEMO_LAMBDA = 0.2
LEMMA2_LAMBDAS = (1e-3, 1e-1, 1.0, 10.0)
# Run is aborted when more than this fraction of replications fail.
MAX_FAILURE_FRACTION = 0.10


class ConfigError(ValueError):
    """Config parse failure carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.path = path


@dataclass(frozen=True)
class LambdaRule:
    """Regularization schedule: fixed lam or the power law C * n^(-alpha)."""

    kind: str
    value: float = 0.1
    coefficient: float = 1.0
    alpha: float = 0.2

    def lam_for(self, n: int) -> float:
        if self.kind == "fixed":
            return self.value
        return self.coefficient * float(n) ** (-self.alpha)

    def to_dict(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "value": self.value}
        return {"kind": "power_law", "coefficient": self.coefficient, "alpha": self.alpha}


@dataclass(frozen=True)
class RunConfig:
    """A full experiment: scenario, sample sizes, schedule, output sink."""

    scenario: ScenarioSpec
    ns: tuple[int, ...]
    lambda_rule: LambdaRule
    R: int
    outputs: str
    emit_plots: bool = True


def _number(value: object, path: str) -> float:
    """A JSON number as a float, before any model coerces it with float().

    float() would also accept strings and booleans (true -> 1.0), and it
    overflows on integers beyond the float range. Finiteness and range
    are left to the caller.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(path, f"number out of range: {value}") from None


def _check_numbers(obj: dict, keys: tuple[str, ...], path: str, lists: bool) -> None:
    """Type-checks the number fields of a block that its model parses itself.

    With lists=True a field may also be a list of numbers (coordinates).
    """
    for key in keys:
        if key not in obj:
            continue
        value = obj[key]
        if lists and isinstance(value, list):
            for i, item in enumerate(value):
                _number(item, f"{path}.{key}[{i}]")
        else:
            _number(value, f"{path}.{key}")


def _req(obj: dict, key: str, kind: type, path: str, default=None, required: bool = True):
    if key not in obj:
        if required:
            raise ConfigError(path, "missing required field")
        return default
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = _number(value, path)
    if kind is not object and not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    # json accepts NaN and Infinity, which no config number may be.
    if kind is float and not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return value


def _parse_scenario(obj: dict) -> ScenarioSpec:
    kernel_obj = _req(obj, "kernel", dict, "scenario.kernel")
    family = _req(kernel_obj, "family", str, "scenario.kernel.family")
    if family.lower() not in FAMILIES:
        raise ConfigError("scenario.kernel.family", f"expected one of {FAMILIES}")
    bandwidth = _req(kernel_obj, "bandwidth", float, "scenario.kernel.bandwidth", 1.0, False)
    dim = _req(kernel_obj, "dim", int, "scenario.kernel.dim", 1, False)
    try:
        kernel = KernelSpec(family, bandwidth, dim)
    except ValueError as exc:
        raise ConfigError("scenario.kernel", str(exc)) from exc

    design_obj = _req(obj, "design", dict, "scenario.design")
    kind = _req(design_obj, "kind", str, "scenario.design.kind")
    if kind.lower() not in ("uniform", "truncated_gaussian", "dirac"):
        raise ConfigError(
            "scenario.design.kind", "expected 'uniform', 'truncated_gaussian', or 'dirac'"
        )
    _check_numbers(design_obj, ("low", "high", "center"), "scenario.design", lists=True)
    _check_numbers(design_obj, ("scale",), "scenario.design", lists=False)
    try:
        design = DesignMeasure.from_dict(design_obj)
    except ValueError as exc:
        raise ConfigError("scenario.design", str(exc)) from exc

    w0 = _req(obj, "w0", str, "scenario.w0", "sin2pi", False)
    if w0 not in W0_CHOICES:
        raise ConfigError("scenario.w0", f"expected one of {sorted(W0_CHOICES)}")
    noise_obj = _req(obj, "noise", dict, "scenario.noise", None, False)
    noise_keys = [f.name for f in fields(NoiseModel)]
    for key in noise_obj or ():
        if key not in noise_keys:
            raise ConfigError(f"scenario.noise.{key}", f"unknown key; expected one of {noise_keys}")
    if "family" in (noise_obj or ()) and noise_obj["family"] not in NOISE_FAMILIES:
        raise ConfigError("scenario.noise.family", f"expected one of {NOISE_FAMILIES}")
    _check_numbers(noise_obj or {}, ("sigma",), "scenario.noise", lists=False)
    try:
        noise = NoiseModel.from_dict(noise_obj) if noise_obj is not None else NoiseModel()
    except ValueError as exc:
        raise ConfigError("scenario.noise", str(exc)) from exc
    grid_m = _req(obj, "grid_m", int, "scenario.grid_m", 256, False)
    base_seed = _req(obj, "base_seed", int, "scenario.base_seed", 20260815, False)
    try:
        return ScenarioSpec(kernel, design, w0, noise, grid_m, base_seed)
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from exc


def parse_config(obj: object) -> RunConfig:
    """Validates a decoded JSON config, naming the offending field on error."""
    if not isinstance(obj, dict):
        raise ConfigError("<root>", "config must be a JSON object")

    scen_obj = _req(obj, "scenario", dict, "scenario")
    scenario = _parse_scenario(scen_obj)

    ns_raw = _req(obj, "ns", list, "ns")
    if not ns_raw:
        raise ConfigError("ns", "must be a nonempty list of integers")
    ns: list[int] = []
    for i, v in enumerate(ns_raw):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ConfigError(f"ns[{i}]", "expected a positive integer")
        ns.append(v)

    rule_obj = _req(obj, "lambda_rule", dict, "lambda_rule")
    kind = _req(rule_obj, "kind", str, "lambda_rule.kind")
    if kind == "fixed":
        value = _req(rule_obj, "value", float, "lambda_rule.value")
        if value <= 0:
            raise ConfigError("lambda_rule.value", "must be positive")
        rule = LambdaRule("fixed", value=value)
    elif kind == "power_law":
        coefficient = _req(rule_obj, "coefficient", float, "lambda_rule.coefficient", 1.0, False)
        alpha = _req(rule_obj, "alpha", float, "lambda_rule.alpha")
        if coefficient <= 0:
            raise ConfigError("lambda_rule.coefficient", "must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("lambda_rule.alpha", "must be in (0, 1]")
        rule = LambdaRule("power_law", coefficient=coefficient, alpha=alpha)
    else:
        raise ConfigError("lambda_rule.kind", "expected 'fixed' or 'power_law'")

    R = _req(obj, "R", int, "R")
    if R < 2:
        raise ConfigError("R", "must be at least 2")
    outputs = _req(obj, "outputs", str, "outputs", "out", False)
    emit_plots = _req(obj, "emit_plots", bool, "emit_plots", True, False)
    return RunConfig(scenario, tuple(ns), rule, R, outputs, emit_plots)


THEORY_COLUMN = {
    "dist_tilde_flambda_sq": "theoretical_tilde_risk",
    "theta_hat": "theta_star",
}


def write_results_csv(path: str, aggregates: list[AggregateResult]) -> None:
    """Long-format CSV: one row per (n, metric), full-precision decimals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda", "R", "metric", "mean", "stderr", "theory"])
        for agg in aggregates:
            for metric in agg.means:
                theory_attr = THEORY_COLUMN.get(metric)
                theory = repr(getattr(agg, theory_attr)) if theory_attr else ""
                writer.writerow(
                    [agg.n, repr(agg.lam), agg.R, metric,
                     repr(agg.means[metric]), repr(agg.stderrs[metric]), theory]
                )


def _aggregate_dict(agg: AggregateResult) -> dict:
    return {
        "n": agg.n,
        "lambda": agg.lam,
        "R": agg.R,
        "n_failed": agg.n_failed,
        "means": agg.means,
        "stderrs": agg.stderrs,
        "theoretical_tilde_risk": agg.theoretical_tilde_risk,
        "theta_star": agg.theta_star,
        "ball_violations": agg.ball_violations,
        "residual_violations": agg.residual_violations,
        "effective_dimension": agg.effective_dimension,
    }


def _band_figure(scenario: ScenarioSpec, n: int, lam: float, title: str) -> tuple[Figure, float]:
    """Fit curve with the posterior band on one replication.

    Returns the figure and the fraction of grid points where the true
    target lies within two posterior standard deviations.
    """
    data = sample_dataset(scenario, n, 0, lambda_key=lam)
    grid_x = np.linspace(scenario.design.low[0], scenario.design.high[0], 200).reshape(-1, 1)
    # The posterior mean at lam_gp = n * lam is the ridge fit.
    mean, var = gp_posterior_band(scenario.kernel, data, n * lam, grid_x)
    sd = np.sqrt(var)
    f0_curve = target_values(scenario, grid_x)
    coverage = float(np.mean(np.abs(f0_curve - mean) <= 2.0 * sd))

    fig = Figure(title=title, xlabel="x", ylabel="f(x)")
    fig.add_band(grid_x[:, 0], mean - sd, mean + sd, color="blue", opacity=0.25)
    fig.add_line(grid_x[:, 0], mean, color="blue")
    fig.add_line(grid_x[:, 0], f0_curve, color="green", dash="5,4")
    fig.add_scatter(data.xs[:, 0], data.fs, color="red", radius=2.5)
    fig.add_annotation(f"n={n} lambda={lam:g}")
    return fig, coverage


def cmd_run(config_path: str, out_override: str | None = None) -> int:
    """Runs the configured Monte Carlo sweep; returns a process exit code."""
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = out_override or config.outputs
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 4

    aggregates: list[AggregateResult] = []
    for n in config.ns:
        lam = config.lambda_rule.lam_for(n)
        try:
            agg = monte_carlo(config.scenario, n, lam, config.R)
        except RuntimeError as exc:
            print(f"error: n={n}: {exc}", file=sys.stderr)
            return 3
        except ArithmeticError as exc:
            print(f"error: n={n}: invariant broken: {exc}", file=sys.stderr)
            return 3
        aggregates.append(agg)
        print(
            f"n={n} lambda={lam:.6g} R={agg.R} failed={agg.n_failed} "
            f"mean||f0-fhat||^2={agg.means['dist_hat_f0_sq']:.6g}"
        )

    total = config.R * len(config.ns)
    failed = sum(agg.n_failed for agg in aggregates)
    if failed > MAX_FAILURE_FRACTION * total:
        print(f"error: {failed}/{total} replications failed", file=sys.stderr)
        return 3

    slope_info = None
    if len(config.ns) >= 3:
        slope, intercept = rate_fit(
            list(config.ns), [agg.means["dist_hat_f0_sq"] for agg in aggregates]
        )
        slope_info = {"slope": slope, "intercept": intercept}
        print(f"fitted rate slope: {slope:.4f}")

    try:
        write_results_csv(os.path.join(out_dir, "results.csv"), aggregates)
        payload = {
            "config": {
                "scenario": config.scenario.to_dict(),
                "ns": list(config.ns),
                "lambda_rule": config.lambda_rule.to_dict(),
                "R": config.R,
            },
            "results": [_aggregate_dict(agg) for agg in aggregates],
            "rate": slope_info,
        }
        with open(os.path.join(out_dir, "results.json"), "w") as fh:
            json.dump(payload, fh, indent=2)

        if config.emit_plots:
            fig = Figure(
                title="Estimation error vs sample size",
                xlabel="n", ylabel="mean squared RKHS error",
                xlog=True, ylog=True,
            )
            means = [agg.means["dist_hat_f0_sq"] for agg in aggregates]
            fig.add_line(list(config.ns), means, color="blue")
            fig.add_scatter(list(config.ns), means, color="blue", radius=3)
            if slope_info:
                fig.add_annotation(f"fitted slope {slope_info['slope']:.3f}")
                fit_line = [
                    float(np.exp(slope_info["intercept"]) * n ** slope_info["slope"])
                    for n in config.ns
                ]
                fig.add_line(list(config.ns), fit_line, color="gray", dash="4,3")
            with open(os.path.join(out_dir, "loglog.svg"), "w") as fh:
                fh.write(fig.to_svg())

            if config.scenario.design.kind != "dirac" and config.scenario.design.dim == 1:
                n_plot = config.ns[-1]
                band, _ = _band_figure(
                    config.scenario, n_plot, config.lambda_rule.lam_for(n_plot),
                    "Fit with posterior band",
                )
                with open(os.path.join(out_dir, "band.svg"), "w") as fh:
                    fh.write(band.to_svg())
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 4
    return 0


def _random_psd(rng: np.random.Generator, dim: int, eig_high: float = 100.0) -> np.ndarray:
    eigs = rng.uniform(0.0, eig_high, dim)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    K = (basis * eigs) @ basis.T
    return 0.5 * (K + K.T)


def cmd_lemma2(count: int, max_dim: int, seed: int, out_dir: str) -> int:
    """Randomized Loewner-order suite for the resolvent sandwich bound."""
    if count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return 2
    rng = np.random.default_rng(seed)
    max_margin = -np.inf
    violations = 0
    for _ in range(count):
        dim = int(rng.integers(1, max_dim + 1))
        K = _random_psd(rng, dim)
        for lam in LEMMA2_LAMBDAS:
            S = sandwich(K, lam)
            bound = 1.0 / (4.0 * lam)
            margin = float(sym_eig(S)[0][-1]) - bound
            max_margin = max(max_margin, margin)
            if not loewner_leq(S, bound * np.eye(dim), 1e-8):
                violations += 1
                os.makedirs(out_dir, exist_ok=True)
                dump = os.path.join(out_dir, "lemma2_violation.json")
                with open(dump, "w") as fh:
                    json.dump({"lam": lam, "margin": margin, "K": K.tolist()}, fh, indent=2)
                print(f"violation at lam={lam}: margin {margin:.3e}, matrix dumped to {dump}")

    scalar_margin = 0.0
    for lam in LEMMA2_LAMBDAS:
        S = sandwich(np.array([[lam]]), lam)
        scalar_margin = max(scalar_margin, abs(float(S[0, 0]) - 1.0 / (4.0 * lam)))

    print(f"checked {count} random PSD matrices x {len(LEMMA2_LAMBDAS)} lambdas: "
          f"violations {violations}")
    print(f"max eigenvalue margin above bound: {max_margin:.3e}")
    print(f"scalar equality-case margin: {scalar_margin:.3e}")
    return 0 if violations == 0 else 1


def cmd_demo(seed: int, out_dir: str) -> int:
    """One canonical-scenario replication: posterior band and weight scatter."""
    scenario = canonical_scenario(base_seed=seed)
    n, lam = DEMO_N, DEMO_LAMBDA
    try:
        os.makedirs(out_dir, exist_ok=True)

        band, coverage = _band_figure(scenario, n, lam, "Kernel ridge fit with posterior band")
        with open(os.path.join(out_dir, "band.svg"), "w") as fh:
            fh.write(band.to_svg())

        data = sample_dataset(scenario, n, 0, lambda_key=lam)
        fhat = fit_ridge(scenario.kernel, data, lam)
        lam_w = lam * n * np.asarray(fhat.coeffs)
        gap = data.fs - flambda_values(scenario, lam, data.xs)
        r = float(np.corrcoef(lam_w, gap)[0, 1])

        fig = Figure(
            title="Scaled ridge weights vs residual to the continuous target",
            xlabel="lambda * w_i", ylabel="f_i - f_lambda(X_i)",
        )
        fig.add_scatter(lam_w, gap, color="blue", radius=2.5)
        lo, hi = float(np.min(lam_w)), float(np.max(lam_w))
        fig.add_line([lo, hi], [lo, hi], color="gray", dash="4,3")
        fig.add_annotation(f"pearson r = {r:.4f}")
        with open(os.path.join(out_dir, "correlation.svg"), "w") as fh:
            fh.write(fig.to_svg())
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 4

    print(f"pearson correlation (lambda*w vs f - f_lambda): {r:.4f}")
    print(f"band coverage |f0 - fhat| <= 2 sd: {coverage:.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rkhsreg",
        description="Kernel ridge regression experiments: Monte Carlo sweeps, "
        "matrix-bound suites, and a one-shot demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo sweep from a JSON config")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")

    p_lemma = sub.add_parser("lemma2", help="randomized resolvent sandwich bound suite")
    p_lemma.add_argument("--count", type=int, default=1000)
    p_lemma.add_argument("--max-dim", type=int, default=20)
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.add_argument("--out", default="out")

    p_demo = sub.add_parser("demo", help="one canonical replication with plots")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "lemma2":
        return cmd_lemma2(args.count, args.max_dim, args.seed, args.out)
    return cmd_demo(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
