"""Command-line interface: config validation with field paths, run
outputs, the matrix-bound suite, and the deterministic demo."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rkhsreg.cli as cli
import rkhsreg.experiments as exp
from rkhsreg.cli import ConfigError, LambdaRule, main, parse_config
from rkhsreg.experiments import AggregateResult, METRIC_FIELDS
from rkhsreg.linalg import NotPositiveDefiniteError


def _base_config(out_dir, **overrides):
    cfg = {
        "scenario": {
            "kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 1},
            "design": {"kind": "uniform", "low": [0.0], "high": [1.0]},
            "w0": "sin2pi",
            "noise": {"kind": "homoscedastic", "sigma": 0.2},
            "grid_m": 64,
            "base_seed": 11,
        },
        "ns": [10, 12],
        "lambda_rule": {"kind": "fixed", "value": 0.2},
        "R": 2,
        "outputs": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_config_field_paths():
    good = _base_config("out")
    parse_config(good)
    design = good["scenario"]["design"]
    tg = {"kind": "truncated_gaussian", "low": 0.0, "high": 1.0, "center": 0.5, "scale": 0.2}

    def scenario(**blocks):
        return {**good, "scenario": {**good["scenario"], **blocks}}

    cases = [
        ({**good, "scenario": {**good["scenario"], "kernel": {"family": "banana"}}},
         "scenario.kernel.family"),
        ({k: v for k, v in good.items() if k != "ns"}, "ns"),
        ({**good, "ns": [10, 0]}, "ns[1]"),
        # ns is strictly increasing: a repeat reruns the same streams
        ({**good, "ns": [20, 20, 20]}, "ns[1]"),
        ({**good, "ns": [10, 40, 20]}, "ns[2]"),
        ({**good, "lambda_rule": {"kind": "power_law", "alpha": 1.5}}, "lambda_rule.alpha"),
        ({**good, "lambda_rule": {"kind": "fixed", "value": -1.0}}, "lambda_rule.value"),
        ({**good, "lambda_rule": {"kind": "geometric"}}, "lambda_rule.kind"),
        ({**good, "R": 1}, "R"),
        ({**good, "scenario": {**good["scenario"], "w0": "bogus"}}, "scenario.w0"),
        ({**good, "scenario": {**good["scenario"], "design": {"kind": "pareto"}}},
         "scenario.design.kind"),
        ({**good, "scenario": {**good["scenario"], "noise": {"sigma": -0.5}}},
         "scenario.noise.sigma"),
        (scenario(noise={"kind": "pink"}), "scenario.noise.kind"),
        (scenario(kernel={"family": "gaussian", "bandwidth": 0.0}), "scenario.kernel.bandwidth"),
        (scenario(kernel={"family": "gaussian", "dim": 0}), "scenario.kernel.dim"),
        (scenario(grid_m=4), "scenario.grid_m"),
        (scenario(base_seed=2**64), "scenario.base_seed"),
        # a box of more than 3 dimensions
        (scenario(kernel={"family": "gaussian", "dim": 4},
                  design={"kind": "uniform", "low": [0.0] * 4, "high": [1.0] * 4}),
         "scenario.design.low"),
        # the affine profile sigma * (0.25 + x1) would be negative below x1 = -0.25
        (scenario(design={"kind": "uniform", "low": -0.5, "high": 1.0},
                  noise={"kind": "heteroscedastic", "family": "affine"}),
         "scenario.noise.family"),
        # json accepts NaN and Infinity; neither may reach a solve.
        ({**good, "lambda_rule": {"kind": "fixed", "value": float("nan")}}, "lambda_rule.value"),
        ({**good, "lambda_rule": {"kind": "fixed", "value": float("inf")}}, "lambda_rule.value"),
        ({**good, "lambda_rule": {"kind": "power_law", "coefficient": float("nan"), "alpha": 0.2}},
         "lambda_rule.coefficient"),
        ({**good, "scenario": {**good["scenario"],
                               "design": {"kind": "uniform", "low": [float("nan")], "high": [1.0]}}},
         "scenario.design.low[0]"),
        ({**good, "scenario": {**good["scenario"], "noise": {"sigma": float("nan")}}},
         "scenario.noise.sigma"),
        # an unknown noise key would otherwise be ignored silently
        ({**good, "scenario": {**good["scenario"],
                               "noise": {"kind": "heteroscedastic", "profile": "sine"}}},
         "scenario.noise.profile"),
        # a family is checked for every noise kind, not only heteroscedastic
        ({**good, "scenario": {**good["scenario"],
                               "noise": {"kind": "homoscedastic", "family": "sine-ish"}}},
         "scenario.noise.family"),
        # number fields take JSON numbers only: float() would turn "0.3"
        # into 0.3 and true into 1.0, and overflow on huge integers
        (scenario(noise={"sigma": [0.3]}), "scenario.noise.sigma"),
        (scenario(noise={"sigma": True}), "scenario.noise.sigma"),
        (scenario(noise={"sigma": "0.3"}), "scenario.noise.sigma"),
        (scenario(design={**design, "low": True, "high": 2}), "scenario.design.low"),
        (scenario(design={**design, "high": "1.0"}), "scenario.design.high"),
        (scenario(design={**design, "low": [0.0, False], "high": [1.0, 1.0]}),
         "scenario.design.low[1]"),
        (scenario(design={**design, "low": [[0.0]]}), "scenario.design.low[0]"),
        (scenario(design={**design, "high": 10**400}), "scenario.design.high"),
        (scenario(design={**tg, "center": True}), "scenario.design.center"),
        (scenario(design={**tg, "scale": [0.2]}), "scenario.design.scale"),
        (scenario(design={**tg, "scale": "0.2"}), "scenario.design.scale"),
        ({**good, "lambda_rule": {"kind": "fixed", "value": 10**400}}, "lambda_rule.value"),
        # every block takes only its own fields: a misspelled key would
        # otherwise leave its field at the default and run another scenario
        (scenario(kernel={"family": "gaussian", "bandwith": 0.05}), "scenario.kernel.bandwith"),
        (scenario(design={**design, "lo": 0.5}), "scenario.design.lo"),
        (scenario(grid=64), "scenario.grid"),
        ({**good, "lambda_rule": {"kind": "power_law", "alph": 0.2}}, "lambda_rule.alph"),
        ({**good, "Rr": 5}, "Rr"),
        ({**good, "": 5}, "<root>"),
        # the field a rule kind needs has no default
        ({**good, "lambda_rule": {"kind": "fixed"}}, "lambda_rule.value"),
        ({**good, "lambda_rule": {"kind": "power_law"}}, "lambda_rule.alpha"),
        # a rule kind takes none of the other kind's fields
        ({**good, "lambda_rule": {"kind": "fixed", "value": 0.2, "alpha": 0.5}},
         "lambda_rule.alpha"),
        ({**good, "lambda_rule": {"kind": "fixed", "value": 0.2, "coefficient": 1.0}},
         "lambda_rule.coefficient"),
        ({**good, "lambda_rule": {"kind": "power_law", "alpha": 0.5, "value": 0.2}},
         "lambda_rule.value"),
        (scenario(kernel={}), "scenario.kernel.family"),
        # value checks across fields name the field they reject
        (scenario(design={**design, "low": 1.0, "high": 0.5}), "scenario.design.high"),
        (scenario(design={**design, "low": [0.0, 0.0]}), "scenario.design.high"),
        (scenario(design={**tg, "low": [0.0, 0.0]}), "scenario.design.low"),
        (scenario(design={**tg, "scale": 0.0}), "scenario.design.scale"),
        (scenario(design={**tg, "low": 1.0, "high": 0.5}), "scenario.design.high"),
        (scenario(kernel={"family": "gaussian", "dim": 2}), "scenario.kernel.dim"),
    ]
    for broken, expected_path in cases:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(broken)
        assert excinfo.value.path == expected_path
        assert expected_path in str(excinfo.value)


def test_run_ignores_rkhs_threads(tmp_path, monkeypatch, capsys):
    # A run is fixed by its config and seed: RKHS_THREADS, even set to a
    # value that is not a number, changes neither its exit code, its
    # stderr nor its results.csv.
    monkeypatch.delenv("RKHS_THREADS", raising=False)
    plain = tmp_path / "plain"
    assert main(["run", _write_config(tmp_path, _base_config(plain))]) == 0
    capsys.readouterr()
    monkeypatch.setenv("RKHS_THREADS", "abc")
    threaded = tmp_path / "threaded"
    assert main(["run", _write_config(tmp_path, _base_config(threaded))]) == 0
    assert capsys.readouterr().err == ""
    assert (threaded / "results.csv").read_bytes() == (plain / "results.csv").read_bytes()


def test_run_rejects_list_sigma(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["scenario"]["noise"] = {"sigma": [0.3]}
    assert main(["run", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "scenario.noise.sigma" in err
    assert "Traceback" not in err


def test_run_rejects_negative_affine_noise(tmp_path, capsys):
    # On [-1, 0] the affine profile sigma * (0.25 + x1) is negative at
    # most draws, which would fail inside the noise draw.
    cfg = _base_config(tmp_path / "out")
    cfg["scenario"]["design"] = {"kind": "uniform", "low": [-1.0], "high": [0.0]}
    cfg["scenario"]["noise"] = {"kind": "heteroscedastic", "family": "affine"}
    assert main(["run", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "scenario.noise.family" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_takes_a_box_of_at_most_three_dimensions(tmp_path, capsys):
    for dim, code in ((3, 0), (4, 2)):
        cfg = _base_config(tmp_path / f"out{dim}", emit_plots=False)
        cfg["scenario"]["kernel"]["dim"] = dim
        cfg["scenario"]["design"] = {"kind": "uniform", "low": [0.0] * dim, "high": [1.0] * dim}
        assert main(["run", _write_config(tmp_path, cfg)]) == code
    captured = capsys.readouterr()
    assert "n=12 " in captured.out
    assert "scenario.design.low" in captured.err
    assert "Traceback" not in captured.err
    assert (tmp_path / "out3" / "results.csv").exists()
    assert not (tmp_path / "out4").exists()


def _edit(*path, **values):
    """A config edit that updates the block at path with values."""
    def edit(cfg):
        block = cfg
        for key in path:
            block = block[key]
        block.update(values)
    return edit


TRUNCATED_GAUSSIAN = {"kind": "truncated_gaussian", "center": 0.0, "scale": 1.0}


@pytest.mark.parametrize(
    "edit, field",
    [
        # h*h is 0: the kernel profile's 1/2h^2 would divide by zero.
        (_edit("scenario", "kernel", bandwidth=1e-300), "scenario.kernel.bandwidth"),
        # h*h overflows.
        (_edit("scenario", "kernel", bandwidth=1e300), "scenario.kernel.bandwidth"),
        # lam^2, which the grid objective and the risk theory form, overflows.
        (_edit("lambda_rule", value=1e300), "lambda_rule.value"),
        (
            _edit(lambda_rule={"kind": "power_law", "coefficient": 1e300, "alpha": 0.5}),
            "lambda_rule.coefficient",
        ),
        # Squared distances between points of the box overflow.
        (_edit("scenario", "design", low=1e300, high=1.5e300), "scenario.design.high"),
        (
            _edit("scenario", "design", **TRUNCATED_GAUSSIAN, low=-1e200, high=1e200),
            "scenario.design.high",
        ),
    ],
    ids=["bandwidth-1e-300", "bandwidth-1e300", "lambda-1e300", "coefficient-1e300",
         "box-1e300", "truncated-gaussian-2e200"],
)
def test_run_rejects_a_config_outside_the_float_range(tmp_path, capsys, edit, field):
    # Float overflow and division by zero raise ArithmeticErrors, which a
    # run reports as broken invariants: such configs must stop at parsing.
    cfg = _base_config(tmp_path / "out")
    edit(cfg)
    assert main(["run", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err
    assert "invariant broken" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sigma", [1e150, 1e160])
def test_run_rejects_a_noise_scale_whose_squares_overflow(tmp_path, capsys, sigma):
    # The mc-small-n config (n = 50, R = 1000): at sigma 1e160 a squared
    # response overflows, at 1e150 a metric's variance over R does. Both
    # stop at parsing, naming the field.
    cfg = _base_config(tmp_path / "out", ns=[50], R=1000)
    cfg["scenario"]["grid_m"] = 256
    cfg["scenario"]["noise"]["sigma"] = sigma
    assert main(["run", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config field 'scenario.noise.sigma'" in err
    assert "invariant broken" not in err and "Traceback" not in err
    # The limit is sigma * 13.7 <= (max float / R)^(1/4): 1e70 is inside it.
    cfg["scenario"]["noise"]["sigma"] = 1e70
    assert parse_config(cfg).scenario.noise.sigma == 1e70
    assert cli.NORMAL_DRAW_BOUND == pytest.approx(13.71, abs=0.01)


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["gaussian", "uniform", "dirac", "truncated_gaussian", "fixed",
                       "power_law", "heteroscedastic", "sine", "sin2pi"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _field_paths(obj, prefix=()):
    """Every (key path) into a nested dict config, nested blocks included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


FIELD_PATHS = sorted(set(_field_paths(_base_config("out")))) + [
    ("scenario", "design", "center"), ("scenario", "design", "scale"),
    ("scenario", "noise", "family"), ("lambda_rule", "coefficient"),
    ("lambda_rule", "alpha"), ("emit_plots",),
]


@given(
    st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.booleans(), JSON_VALUES), max_size=3),
    st.booleans(),
    JSON_VALUES,
)
def test_parse_config_fuzz_raises_only_config_error(edits, replace_root, root):
    # Any JSON document either parses or fails with a ConfigError naming
    # a field; no other exception (TypeError, OverflowError, ...) escapes.
    cfg = json.loads(json.dumps(_base_config("out")))
    for path, delete, value in edits:
        block = cfg
        for key in path[:-1]:
            if not isinstance(block.get(key), dict):
                block[key] = {}
            block = block[key]
        if delete:
            block.pop(path[-1], None)
        else:
            block[path[-1]] = value
    try:
        parse_config(root if replace_root else cfg)
    except ConfigError as exc:
        assert exc.path


def test_lambda_rule_schedules():
    assert LambdaRule("fixed", value=0.7).lam_for(100) == 0.7
    rule = LambdaRule("power_law", coefficient=2.0, alpha=0.5)
    assert rule.lam_for(16) == pytest.approx(0.5, abs=1e-15)


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["run", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_run_rejects_missing_file(capsys):
    assert main(["run", "/nonexistent/config.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_run_reports_config_field(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["scenario"]["kernel"]["family"] = "banana"
    assert main(["run", _write_config(tmp_path, cfg)]) == 2
    assert "scenario.kernel.family" in capsys.readouterr().err


def test_run_rejects_literal_nan(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["lambda_rule"]["value"] = float("nan")
    path = _write_config(tmp_path, cfg)
    assert "NaN" in (tmp_path / "config.json").read_text()
    assert main(["run", path]) == 2
    assert "lambda_rule.value" in capsys.readouterr().err


def test_run_stops_on_broken_identity(tmp_path, monkeypatch, capsys):
    orig = exp.run_replication

    def miswired(scenario, n, lam, indices):
        # The sweep runs chunks of indices: the chunk holding index 1 breaks.
        if 1 in indices:
            raise ArithmeticError("residual bridge identity violated: 0.5 vs 0.25")
        return orig(scenario, n, lam, indices)

    monkeypatch.setattr(exp, "run_replication", miswired)
    assert main(["run", _write_config(tmp_path, _base_config(tmp_path / "out"))]) == 3
    err = capsys.readouterr().err
    assert "invariant broken: residual bridge identity violated" in err
    assert "Traceback" not in err


def test_run_stops_on_wrong_ridge_factor(tmp_path, monkeypatch, capsys):
    # A factor of lam*(1 + 1e-3) + K/n passes its own solve residual
    # check; the residual-bridge identity catches it and stops the run.
    orig = exp._ridge_factor
    monkeypatch.setattr(
        exp, "_ridge_factor", lambda K, lam, low_rank=None: orig(K, lam * (1 + 1e-3), low_rank)
    )
    assert main(["run", _write_config(tmp_path, _base_config(tmp_path / "out"))]) == 3
    err = capsys.readouterr().err
    assert "invariant broken: residual bridge identity violated" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage", ["f0_in_range", "solve_coefficient"])
def test_run_stops_on_scaled_fredholm_right_hand_side(tmp_path, monkeypatch, capsys, stage):
    # A right-hand side 0.1% off the target passes the node identity,
    # since the grid solve is consistent with what it was given; the
    # target checks of the design and lambda contexts catch it.
    orig = getattr(exp, stage)
    if stage == "f0_in_range":
        def scaled(op, w0_values):
            f0, c0 = orig(op, w0_values)
            return 1.001 * f0, c0
    else:
        def scaled(op, f0_values, lam):
            return orig(op, 1.001 * f0_values, lam)
    monkeypatch.setattr(exp, stage, scaled)
    exp._design_context.cache_clear()
    exp._lambda_context.cache_clear()
    assert main(["run", _write_config(tmp_path, _base_config(tmp_path / "out"))]) == 3
    err = capsys.readouterr().err
    assert "invariant broken" in err and "right-hand side" in err
    assert "Traceback" not in err


def test_run_at_large_n_factors_no_n_by_n_matrix(tmp_path, cho_factor_calls):
    # n = 800 is far above 10 times the grid rank: the replications and
    # the band figure all factor only r x r matrices.
    cfg = _base_config(tmp_path / "out", ns=[800])
    assert main(["run", _write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "out" / "band.svg").exists()
    assert cho_factor_calls and all(shape[0] < 800 for shape in cho_factor_calls)


def test_run_on_a_graded_truncated_gaussian_grid(tmp_path, capsys):
    # Scale 0.05 on [0, 1] grades the 256 quadrature weights down to about
    # 1e-25; the grid solve must hold its node identity there.
    cfg = _base_config(tmp_path / "out", ns=[50], R=4)
    cfg["scenario"]["design"] = {
        "kind": "truncated_gaussian", "low": 0.0, "high": 1.0, "center": 0.5, "scale": 0.05,
    }
    cfg["scenario"]["grid_m"] = 256
    assert main(["run", _write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "results.csv").exists()


class _SharedShift:
    """A ridge factor whose solve adds c times one column to every column.

    The ridge weights and the bridge vector shift by the same vector, so
    u = a - t and the residual-bridge identity still hold; only the
    ball and residual bounds can see the corrupted fit. The product
    handed back with the solution shifts with it, as the product of the
    corrupted columns. The factor is a replication chunk's stack, whose
    solutions are (B, n, k).
    """

    def __init__(self, factor, column, c):
        self.factor, self.column, self.c = factor, column, c

    def solve_with_product(self, B):
        X, KX, errors = self.factor.solve_with_product(B)
        shift = self.c * X[..., [self.column]], self.c * KX[..., [self.column]]
        return X + shift[0], KX + shift[1], errors


@pytest.mark.parametrize(
    "column, c, bound",
    [(0, 10.0, "ball"), (1, 1.0, "residual")],
    ids=["ridge-weights-x11", "bridge-vector-x2"],
)
def test_run_stops_on_broken_bound(tmp_path, monkeypatch, capsys, column, c, bound):
    orig = exp._ridge_factor
    monkeypatch.setattr(
        exp, "_ridge_factor",
        lambda K, lam, low_rank=None: _SharedShift(orig(K, lam, low_rank), column, c),
    )
    out_dir = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, _base_config(out_dir))]) == 3
    err = capsys.readouterr().err
    assert f"invariant broken: {bound} bound violated at n=10, replication 0" in err
    assert "Traceback" not in err
    assert not (out_dir / "results.json").exists()


def test_run_stops_on_broken_sup_norm_certificate(tmp_path, monkeypatch, capsys):
    # The ridge fit tripled on the sup-norm grid, the one product of the
    # grid operator over a product point set. No identity reads those
    # values and the ball and residual bounds hold, so only the
    # certificate max |fhat - f_lambda| <= ||fhat - f_lambda||_k can
    # stop the run.
    orig = exp.GridOperator.on_product
    monkeypatch.setattr(exp.GridOperator, "on_product", lambda op, *args: 3.0 * orig(op, *args))
    out_dir = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, _base_config(out_dir))]) == 3
    err = capsys.readouterr().err
    assert "invariant broken: sup-norm bound violated at n=10, replication 0" in err
    assert "Traceback" not in err
    assert not (out_dir / "results.json").exists()


def test_run_stops_on_negative_quadratic_form(tmp_path, monkeypatch, capsys):
    orig = exp._lambda_context

    def corrupted(scenario, lam):
        lctx = orig(scenario, lam)
        return dataclasses.replace(lctx, sol=dataclasses.replace(lctx.sol, flambda_norm_sq=-1.0))

    monkeypatch.setattr(exp, "_lambda_context", corrupted)
    assert main(["run", _write_config(tmp_path, _base_config(tmp_path / "out"))]) == 3
    err = capsys.readouterr().err
    assert "invariant broken: quadratic form is negative" in err
    assert "Traceback" not in err


def test_run_smoke_produces_outputs(tmp_path):
    out_dir = tmp_path / "out"
    cfg = _base_config(out_dir)
    assert main(["run", _write_config(tmp_path, cfg)]) == 0
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "lambda", "R", "metric", "mean", "stderr", "theory"]
    assert len(rows) == 1 + 2 * len(METRIC_FIELDS)
    # theory filled exactly for the auxiliary risk and objective rows
    for row in rows[1:]:
        if row[3] in ("dist_tilde_flambda_sq", "theta_hat"):
            assert row[6] != ""
            float(row[6])
        else:
            assert row[6] == ""
    payload = json.loads((out_dir / "results.json").read_text())
    assert [r["n"] for r in payload["results"]] == [10, 12]
    assert all(0.0 < r["effective_dimension"] <= 64 for r in payload["results"])
    assert payload["rate"] is None  # fewer than 3 sample sizes
    assert (out_dir / "loglog.svg").exists()
    assert (out_dir / "band.svg").exists()


def test_run_emits_rate_slope(tmp_path):
    out_dir = tmp_path / "out"
    cfg = _base_config(
        out_dir,
        ns=[20, 40, 80],
        lambda_rule={"kind": "power_law", "coefficient": 1.0, "alpha": 0.2},
        R=30,
    )
    cfg["scenario"]["w0"] = "sin2pi_small"
    assert main(["run", _write_config(tmp_path, cfg)]) == 0
    payload = json.loads((out_dir / "results.json").read_text())
    assert payload["rate"]["slope"] < 0
    svg = (out_dir / "loglog.svg").read_text()
    assert "fitted slope" in svg


@pytest.mark.parametrize("ns", [[10, 12], [10, 12, 14]])
def test_run_with_zero_mean_error_skips_the_rate(tmp_path, capsys, ns):
    # A zero target observed without noise is fitted exactly at every n,
    # so each mean is 0: no slope exists and the log axes omit the points.
    out_dir = tmp_path / "out"
    cfg = _base_config(out_dir, ns=ns)
    cfg["scenario"]["w0"] = "zero"
    cfg["scenario"]["noise"]["sigma"] = 0.0
    assert main(["run", _write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("mean||f0-fhat||^2=0\n") == len(ns)
    assert "fitted rate slope" not in captured.out
    assert "Traceback" not in captured.err
    payload = json.loads((out_dir / "results.json").read_text())
    assert [r["means"]["dist_hat_f0_sq"] for r in payload["results"]] == [0.0] * len(ns)
    assert payload["rate"] is None
    svg = (out_dir / "loglog.svg").read_text()
    assert "fitted slope" not in svg and "<circle" not in svg


def test_run_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    cfg = _base_config(blocker)
    assert main(["run", _write_config(tmp_path, cfg)]) == 4
    assert "not writable" in capsys.readouterr().err


def test_run_out_flag_overrides_config(tmp_path):
    cfg = _base_config(tmp_path / "ignored")
    override = tmp_path / "actual"
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(override)]) == 0
    assert (override / "results.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_run_far_from_the_origin_exits_0(tmp_path, capsys):
    # On [1000, 1001] the target poly3 reaches about 1e9 at the nodes, and
    # the grid solve's node identity holds to about 1e-15 of that: the
    # identity's tolerance is relative to the target's size, so such a
    # valid config runs (at the absolute 1e-6 it exited 3 with "identity
    # residual 1.013e-06"). n = 200 takes the Gram-free data side.
    cfg = _base_config(tmp_path / "out", ns=[50, 200], R=4, emit_plots=False)
    cfg["scenario"].update(
        design={"kind": "uniform", "low": 1000.0, "high": 1001.0}, w0="poly3", grid_m=256
    )
    cfg["lambda_rule"]["value"] = 0.05
    assert main(["run", _write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_run_failure_rate_exit_code(tmp_path, monkeypatch, capsys):
    cfg = _base_config(tmp_path / "out")
    path = _write_config(tmp_path, cfg)

    def broken_mc(scenario, n, lam, R):
        raise RuntimeError("only 0 of 2 replications succeeded")

    monkeypatch.setattr(cli, "monte_carlo", broken_mc)
    assert main(["run", path]) == 3
    assert "replications succeeded" in capsys.readouterr().err

    def lossy_mc(scenario, n, lam, R):
        zeros = {name: 0.1 for name in METRIC_FIELDS}
        return AggregateResult(
            n=n, lam=lam, R=R, n_failed=1, means=zeros, stderrs=zeros,
            theoretical_tilde_risk=0.0, theta_star=0.0,
            ball_violations=0, residual_violations=0, effective_dimension=1.0,
        )

    monkeypatch.setattr(cli, "monte_carlo", lossy_mc)
    assert main(["run", path]) == 3
    assert "replications failed" in capsys.readouterr().err


def test_run_reports_a_failed_posterior_band(tmp_path, monkeypatch, capsys):
    # band.svg re-solves replication 0, which may be among the failures
    # the sweep allowed: a failed band solve is named, not a traceback.
    def failing_band(*args):
        raise NotPositiveDefiniteError("Cholesky solution fails its residual check")

    monkeypatch.setattr(cli, "gp_posterior_band", failing_band)
    out_dir = tmp_path / "out"
    assert main(["run", _write_config(tmp_path, _base_config(out_dir))]) == 3
    err = capsys.readouterr().err
    assert "error: n=12: posterior band failed: Cholesky solution fails its residual check" in err
    assert "Traceback" not in err
    assert (out_dir / "results.csv").exists() and not (out_dir / "band.svg").exists()


def test_lemma2_command(tmp_path, capsys):
    assert main(["lemma2", "--count", "3", "--max-dim", "5", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "violations 0" in out
    assert "scalar equality-case margin" in out


@pytest.mark.parametrize("eigenvalue, code", [
    (lambda bound: 2.0 * bound, 1),
    (lambda bound: bound + 2.0e-8 * max(1.0, bound), 1),
    (lambda bound: bound + 0.5e-8 * max(1.0, bound), 0),
], ids=["twice-the-bound", "just-outside", "just-inside"])
def test_lemma2_violation_threshold(tmp_path, monkeypatch, capsys, eigenvalue, code):
    # A sandwich eigenvalue above 1/(4 lam) is a violation once its margin
    # exceeds 1e-8 * max(1, bound).
    def sandwich(K, lam):
        return eigenvalue(1.0 / (4.0 * lam)) * np.eye(K.shape[0])

    monkeypatch.setattr(cli, "sandwich", sandwich)
    assert main(["lemma2", "--count", "2", "--max-dim", "3", "--out", str(tmp_path)]) == code
    out = capsys.readouterr().out
    assert ("violation at lam=" in out) == (code == 1)
    assert ("violations 0" in out) == (code == 0)
    dump = tmp_path / "lemma2_violation.json"
    assert dump.exists() == (code == 1)
    if code == 1:
        record = json.loads(dump.read_text())
        assert set(record) == {"lam", "margin", "K"} and record["margin"] > 0


def test_lemma2_rejects_bad_count(capsys):
    assert main(["lemma2", "--count", "0"]) == 2
    assert main(["lemma2", "--max-dim", "0"]) == 2
    assert main(["lemma2", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--max-dim" in err and "--seed" in err
    assert "Traceback" not in err


def test_demo_rejects_bad_seed(tmp_path, capsys):
    assert main(["demo", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_demo_outputs_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["demo", "--seed", "7", "--out", str(out_a)]) == 0
    first = capsys.readouterr().out
    assert main(["demo", "--seed", "7", "--out", str(out_b)]) == 0
    for name in ("band.svg", "correlation.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    pearson = float(first.split("pearson correlation")[1].split(":")[1].split()[0])
    assert pearson >= 0.9
    assert "band coverage" in first


def test_svg_files_are_wellformed_xml(tmp_path):
    import xml.etree.ElementTree as ET

    assert main(["demo", "--seed", "3", "--out", str(tmp_path)]) == 0
    for name in ("band.svg", "correlation.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        assert root.tag.endswith("svg")
