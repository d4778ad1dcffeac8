"""Tests of the benchmark's tracer and of the untraced worker path.

Run with ``python3 -m pytest benchmarks/tests``.
"""

import json

import numpy as np
import pytest
import scipy.linalg

import rkhsreg
import rkhsreg.cli
import tracer
import worker
from tracer import Span, Tracer, install, rkhsreg_modules, self_times


def patched_names() -> list[str]:
    """Every ``module.attr`` in rkhsreg (and scipy.linalg) bound to a traced wrapper."""
    names = [f"{mod.__name__}.{attr}" for mod in rkhsreg_modules()
             for attr, value in vars(mod).items() if hasattr(value, "__traced__")]
    if hasattr(scipy.linalg.cho_factor, "__traced__"):
        names.append("scipy.linalg.cho_factor")
    return names


def test_self_time_with_nested_children():
    spans = [
        Span("a", 0, 100, -1, 0.0),
        Span("b", 10, 60, 0, 0.0),
        Span("c", 20, 30, 1, 0.0),
    ]
    # a loses only its direct child b; b loses its child c.
    assert self_times(spans) == [50, 40, 10]


def test_self_time_with_back_to_back_children():
    spans = [
        Span("a", 0, 100, -1, 0.0),
        Span("b", 10, 40, 0, 0.0),
        Span("c", 40, 70, 0, 0.0),
        Span("d", 70, 70, 0, 0.0),
    ]
    assert self_times(spans) == [40, 30, 30, 0]


def test_wrapped_calls_record_parent_and_clock():
    ticks = iter(range(0, 1000, 10))
    t = Tracer(clock=lambda: next(ticks))
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert t.spans == [
        Span("outer", 0, 50, -1, 0.0),
        Span("inner", 10, 20, 0, 0.0),
        Span("inner", 30, 40, 0, 0.0),
    ]
    assert self_times(t.spans) == [30, 10, 10]


def test_install_rebinds_every_importing_module_and_restores():
    originals = {
        "kernels": rkhsreg.kernels.gram,
        "experiments": rkhsreg.experiments.gram,
        "cli": rkhsreg.cli.monte_carlo,
        "cho_factor": scipy.linalg.cho_factor,
    }
    t = Tracer()
    restore = install(t)
    try:
        assert rkhsreg.experiments.gram.__traced__ == "kernels.gram"
        assert rkhsreg.fredholm.gram is rkhsreg.kernels.gram
        assert rkhsreg.cli.monte_carlo.__traced__ == "experiments.monte_carlo"
        assert rkhsreg.gram is rkhsreg.kernels.gram
        spec = rkhsreg.KernelSpec("gaussian", 0.5, 1)
        pts = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
        A = rkhsreg.gram(spec, pts) + np.eye(7)
        rkhsreg.solve_spd(A, np.ones(7))
    finally:
        restore()
    assert patched_names() == []
    assert rkhsreg.kernels.gram is originals["kernels"]
    assert rkhsreg.experiments.gram is originals["experiments"]
    assert rkhsreg.cli.monte_carlo is originals["cli"]
    assert scipy.linalg.cho_factor is originals["cho_factor"]
    names = [s.name for s in t.spans]
    assert names == ["kernels.gram", "kernels.as_points", "linalg.solve_spd", "linalg.cholesky"]
    assert t.spans[0].work == 49.0
    assert t.spans[1].parent == 0
    assert t.spans[3].work == pytest.approx(7**3 / 3)
    assert t.spans[3].parent == 2


TINY_CONFIG = {
    "scenario": {
        "kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 1},
        "design": {"kind": "uniform", "low": 0.0, "high": 1.0},
        "grid_m": 16,
        "base_seed": 7,
    },
    "ns": [6],
    "lambda_rule": {"kind": "fixed", "value": 0.5},
    "R": 3,
    "emit_plots": False,
}


def _run_worker(tmp_path, monkeypatch, trace):
    # A seed of its own per mode, so the in-process lru_cache of design
    # contexts cannot hide set-up spans from the traced run.
    scenario = dict(TINY_CONFIG["scenario"], base_seed=7 + trace)
    config = dict(TINY_CONFIG, scenario=scenario, outputs=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    seen = []
    original = rkhsreg.cli.cmd_run

    def probe(config_path, out_override=None):
        seen.append(patched_names())
        return original(config_path, out_override)

    monkeypatch.setattr(rkhsreg.cli, "cmd_run", probe)
    timings, records = worker.run(str(path), 0, trace)
    assert timings["exit_code"] == 0
    return seen, records


def test_untraced_run_leaves_every_rkhsreg_name_unpatched(tmp_path, monkeypatch):
    seen, records = _run_worker(tmp_path, monkeypatch, trace=False)
    assert seen == [[]]
    assert records == []
    assert patched_names() == []


def test_traced_run_patches_during_the_run_only(tmp_path, monkeypatch):
    seen, records = _run_worker(tmp_path, monkeypatch, trace=True)
    assert "rkhsreg.experiments.gram" in seen[0]
    assert "rkhsreg.cli.parse_config" in seen[0]
    assert "scipy.linalg.cho_factor" in seen[0]
    assert patched_names() == []
    names = {rec[0] for rec in records}
    assert {"cli.parse_config", "experiments.target_values", "fredholm.build_grid",
            "experiments.monte_carlo", "experiments.run_replication",
            "linalg.cholesky"} <= names
    assert {name.split(".")[0] for name in names} <= set(tracer.LAYERS)
