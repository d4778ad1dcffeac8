"""Command-line interface: config validation with field paths, run
outputs, the matrix-bound suite, and the deterministic demo."""

import csv
import json

import numpy as np
import pytest

import rkhsreg.cli as cli
import rkhsreg.experiments as exp
from rkhsreg.cli import ConfigError, LambdaRule, main, parse_config
from rkhsreg.experiments import AggregateResult, METRIC_FIELDS


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
    cases = [
        ({**good, "scenario": {**good["scenario"], "kernel": {"family": "banana"}}},
         "scenario.kernel.family"),
        ({k: v for k, v in good.items() if k != "ns"}, "ns"),
        ({**good, "ns": [10, 0]}, "ns[1]"),
        ({**good, "lambda_rule": {"kind": "power_law", "alpha": 1.5}}, "lambda_rule.alpha"),
        ({**good, "lambda_rule": {"kind": "fixed", "value": -1.0}}, "lambda_rule.value"),
        ({**good, "lambda_rule": {"kind": "geometric"}}, "lambda_rule.kind"),
        ({**good, "R": 1}, "R"),
        ({**good, "scenario": {**good["scenario"], "w0": "bogus"}}, "scenario.w0"),
        ({**good, "scenario": {**good["scenario"], "design": {"kind": "pareto"}}},
         "scenario.design.kind"),
        ({**good, "scenario": {**good["scenario"], "noise": {"sigma": -0.5}}},
         "scenario.noise"),
        # json accepts NaN and Infinity; neither may reach a solve.
        ({**good, "lambda_rule": {"kind": "fixed", "value": float("nan")}}, "lambda_rule.value"),
        ({**good, "lambda_rule": {"kind": "fixed", "value": float("inf")}}, "lambda_rule.value"),
        ({**good, "lambda_rule": {"kind": "power_law", "coefficient": float("nan"), "alpha": 0.2}},
         "lambda_rule.coefficient"),
        ({**good, "scenario": {**good["scenario"],
                               "design": {"kind": "uniform", "low": [float("nan")], "high": [1.0]}}},
         "scenario.design"),
        ({**good, "scenario": {**good["scenario"], "noise": {"sigma": float("nan")}}},
         "scenario.noise"),
    ]
    for broken, expected_path in cases:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(broken)
        assert excinfo.value.path == expected_path
        assert expected_path in str(excinfo.value)


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

    def miswired(scenario, n, lam, index):
        if index == 1:
            raise ArithmeticError("residual bridge identity violated: 0.5 vs 0.25")
        return orig(scenario, n, lam, index)

    monkeypatch.setattr(exp, "run_replication", miswired)
    assert main(["run", _write_config(tmp_path, _base_config(tmp_path / "out"))]) == 3
    err = capsys.readouterr().err
    assert "invariant broken: residual bridge identity violated" in err
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
            ball_violations=0, residual_violations=0,
        )

    monkeypatch.setattr(cli, "monte_carlo", lossy_mc)
    assert main(["run", path]) == 3
    assert "replications failed" in capsys.readouterr().err


def test_lemma2_command(tmp_path, capsys):
    assert main(["lemma2", "--count", "3", "--max-dim", "5", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "violations 0" in out
    assert "scalar equality-case margin" in out


def test_lemma2_rejects_bad_count(capsys):
    assert main(["lemma2", "--count", "0"]) == 2


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
