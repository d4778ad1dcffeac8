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

Every command is deterministic given its seed and config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from .estimator import fit_ridge, gp_posterior_band
from .experiments import (
    AggregateResult,
    ScenarioSpec,
    canonical_scenario,
    continuous_solution,
    flambda_values,
    monte_carlo,
    rate_fit,
    sample_dataset,
    target_values,
)
from .kernels import ConfigError
from .linalg import sandwich, sym_eig
from .svgplot import Figure

DEMO_N = 100
DEMO_LAMBDA = 0.2
LEMMA2_LAMBDAS = (1e-3, 1e-1, 1.0, 10.0)
# Run is aborted when more than this fraction of replications fail.
MAX_FAILURE_FRACTION = 0.10
# The largest |z| NumPy's standard_normal can draw: its ziggurat returns
# r + x from the tail, with r = 3.6541528853610088 and
# x = -log(1 - U) / r for a 53-bit U < 1, so x <= 53 ln 2 / r < 10.06.
NORMAL_DRAW_BOUND = 3.6541528853610088 + 53 * math.log(2) / 3.6541528853610088


@dataclass(frozen=True)
class LambdaRule:
    """Regularization schedule: fixed lam or the power law C * n^(-alpha).

    "fixed" needs value; "power_law" needs alpha, and coefficient
    defaults to 1. Neither kind takes the other's fields: a run would
    ignore them, and results.json would not record them.
    """

    kind: str
    value: float | None = None
    coefficient: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "fixed":
            for name in ("coefficient", "alpha"):
                if getattr(self, name) is not None:
                    raise ConfigError(name, "not a field of a fixed rule")
            if self.value is None:
                raise ConfigError("value", "missing required field")
            if not self.value > 0:
                raise ConfigError("value", "must be positive")
            # The risk theory and the grid objective square lam.
            if not self.value * self.value < math.inf:
                raise ConfigError("value", f"lam^2 overflows at {self.value!r}")
        elif self.kind == "power_law":
            if self.value is not None:
                raise ConfigError("value", "not a field of a power_law rule")
            if self.alpha is None:
                raise ConfigError("alpha", "missing required field")
            if self.coefficient is None:
                object.__setattr__(self, "coefficient", 1.0)
            if not self.coefficient > 0:
                raise ConfigError("coefficient", "must be positive")
            # lam = coefficient * n^-alpha is at most coefficient, and lam is squared.
            if not self.coefficient * self.coefficient < math.inf:
                raise ConfigError("coefficient", f"coefficient^2 overflows at {self.coefficient!r}")
            if not 0.0 < self.alpha <= 1.0:
                raise ConfigError("alpha", "must be in (0, 1]")
        else:
            raise ConfigError("kind", "expected 'fixed' or 'power_law'")

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
    outputs: str = "out"
    emit_plots: bool = True

    def __post_init__(self) -> None:
        if not self.ns:
            raise ConfigError("ns", "must be a nonempty list of integers")
        for i, n in enumerate(self.ns):
            if n < 1:
                raise ConfigError(f"ns[{i}]", "expected a positive integer")
            # A repeated n reruns the same replication streams and has no rate to fit.
            if i and n <= self.ns[i - 1]:
                raise ConfigError(f"ns[{i}]", f"must exceed ns[{i - 1}] = {self.ns[i - 1]}; "
                                  "ns is strictly increasing")
        if self.R < 2:
            raise ConfigError("R", "must be at least 2")
        # A response's noise is at most NORMAL_DRAW_BOUND times the largest
        # noise scale on the support. A run squares the responses and sums
        # n of them (the ball bound's mean f^2), and squares each metric's
        # deviations, values as large as a mean f^2, and sums R of them
        # (its standard error). Both sums must stay finite floats.
        scenario = self.scenario
        noise = NORMAL_DRAW_BOUND * float(np.max(scenario.noise.std_at(scenario.design.eval_grid)))
        square = noise * noise
        if not (self.ns[-1] * square < math.inf and self.R * square * square < math.inf):
            raise ConfigError(
                "scenario.noise.sigma",
                f"the squared responses of n = {self.ns[-1]} or their variance over "
                f"R = {self.R} replications overflow at sigma = {scenario.noise.sigma!r}",
            )


def _value(tp: object, value: object, path: str) -> object:
    """Checks one JSON value against a field's declared type, once.

    Numbers must be JSON numbers (float() would take "0.3" and true),
    finite and within the float range. A tuple field takes one item or
    a list of items; a dataclass field takes a JSON object.
    """
    if is_dataclass(tp):
        return _build(tp, value, path)
    if type(None) in typing.get_args(tp):  # an optional field is omitted, never null
        tp = next(arg for arg in typing.get_args(tp) if arg is not type(None))
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        if not isinstance(value, list):
            return (_value(item, value, path),)
        return tuple(_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {type(value).__name__}")
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(path, f"number out of range: {value}") from None
        # json accepts NaN and Infinity, which no config number may be.
        if not math.isfinite(number):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return number
    if not isinstance(value, tp) or isinstance(value, bool) and tp is not bool:
        raise ConfigError(path, f"expected {tp.__name__}, got {type(value).__name__}")
    return value


def _build(cls: type, obj: object, path: str) -> object:
    """Builds dataclass cls from a JSON object at config path `path`.

    Unknown keys, missing required fields and mistyped values are
    reported here; value checks belong to cls, whose ConfigError gets
    the block path as prefix.
    """
    block = path or "<root>"
    if not isinstance(obj, dict):
        raise ConfigError(block, f"expected an object, got {type(obj).__name__}")
    prefix = f"{path}." if path else ""
    names = [f.name for f in fields(cls)]
    for key in obj:
        if key not in names:
            raise ConfigError(prefix + key or block, f"unknown key {key!r}; expected one of {names}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = _value(hints[f.name], obj[f.name], prefix + f.name)
        elif f.default is MISSING:
            raise ConfigError(prefix + f.name, "missing required field")
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(prefix + exc.path, exc.message) from exc


def parse_config(obj: object) -> RunConfig:
    """Validates a decoded JSON config, naming the offending field on error."""
    return _build(RunConfig, obj, "")


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
    """The aggregate's fields in declaration order, with lam written as "lambda"."""
    return {("lambda" if key == "lam" else key): value for key, value in asdict(agg).items()}


def _band_figure(scenario: ScenarioSpec, n: int, lam: float, title: str) -> tuple[Figure, float]:
    """Fit curve with the posterior band on one replication.

    Returns the figure and the fraction of grid points where the true
    target lies within two posterior standard deviations.
    """
    data = sample_dataset(scenario, n, 0, lambda_key=lam)
    grid_x = np.linspace(scenario.design.low[0], scenario.design.high[0], 200).reshape(-1, 1)
    # The posterior mean at lam_gp = n * lam is the ridge fit.
    op = continuous_solution(scenario, lam).operator
    nystrom = op.nystrom_coefficients(n)
    low_rank = None if nystrom is None else op.at_points(data.xs, nystrom)
    mean, var = gp_posterior_band(scenario.kernel, data, n * lam, grid_x, low_rank)
    sd = np.sqrt(var)
    f0_curve = target_values(scenario, grid_x)
    coverage = float(np.mean(np.abs(f0_curve - mean) <= 2.0 * sd))

    fig = Figure(title=title, xlabel="x", ylabel="f(x)")
    fig.add_band(grid_x[:, 0], mean - sd, mean + sd, color="blue")
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
    except ValueError as exc:
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

    means = [agg.means["dist_hat_f0_sq"] for agg in aggregates]
    slope_info = None
    # A mean of 0 (an exact fit) has no logarithm: no slope is fitted,
    # and the log-log figure leaves that point out.
    if len(config.ns) >= 3 and min(means) > 0:
        slope, intercept = rate_fit(list(config.ns), means)
        slope_info = {"slope": slope, "intercept": intercept}
        print(f"fitted rate slope: {slope:.4f}")

    try:
        write_results_csv(os.path.join(out_dir, "results.csv"), aggregates)
        payload = {
            "config": {
                "scenario": asdict(config.scenario),
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
            shown_ns = [n for n, mean in zip(config.ns, means) if mean > 0]
            shown_means = [mean for mean in means if mean > 0]
            fig.add_line(shown_ns, shown_means, color="blue")
            fig.add_scatter(shown_ns, shown_means, color="blue", radius=3)
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
                try:
                    band, _ = _band_figure(
                        config.scenario, n_plot, config.lambda_rule.lam_for(n_plot),
                        "Fit with posterior band",
                    )
                except np.linalg.LinAlgError as exc:
                    # Replication 0, which the band re-solves, may be among
                    # the failures the sweep allowed.
                    print(f"error: n={n_plot}: posterior band failed: {exc}", file=sys.stderr)
                    return 3
                with open(os.path.join(out_dir, "band.svg"), "w") as fh:
                    fh.write(band.to_svg())
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 4
    return 0


def _random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    eigs = rng.uniform(0.0, 100.0, dim)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    K = (basis * eigs) @ basis.T
    return 0.5 * (K + K.T)


def cmd_lemma2(count: int, max_dim: int, seed: int, out_dir: str) -> int:
    """Randomized Loewner-order suite for the resolvent sandwich bound."""
    for flag, value, low in (("--count", count, 1), ("--max-dim", max_dim, 1), ("--seed", seed, 0)):
        if value < low:
            print(f"error: {flag} must be at least {low}", file=sys.stderr)
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
            # The relative margin of linalg.loewner_leq(S, bound*I, 1e-8).
            if margin > 1e-8 * max(1.0, bound):
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
    try:
        scenario = canonical_scenario(base_seed=seed)
    except ValueError as exc:
        print(f"error: --seed: {exc}", file=sys.stderr)
        return 2
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
    p_lemma.add_argument("--out", default=RunConfig.outputs)

    p_demo = sub.add_parser("demo", help="one canonical replication with plots")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--out", default=RunConfig.outputs)

    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            return cmd_run(args.config, args.out)
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 5
    if args.command == "lemma2":
        return cmd_lemma2(args.count, args.max_dim, args.seed, args.out)
    return cmd_demo(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
