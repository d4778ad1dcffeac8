"""The rkhsreg benchmark: `rkhsreg run` on three checked-in workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (benchmarks/worker.py) running
the user path: import rkhsreg, ``parse_config`` on a generated copy of
``benchmarks/workloads/NAME.json`` whose ``scenario.base_seed`` is the
seed, the scenario's design context through ``target_values``, then
``cli.cmd_run`` with its CSV, JSON and SVG outputs. A fresh interpreter
per repetition keeps the ``lru_cache``d design and lambda contexts from
carrying over, as on every real ``rkhsreg run``. Repetitions of one run
share the seed, so they repeat the same work. They start until the next
one would end after S seconds (at least three per mode), and every one
is gated:

- worker exit code 0 and ``cmd_run`` exit code 0;
- no failed replication (``n_failed`` in results.json) and zero
  ``ball_violations`` and ``residual_violations``;
- ``results.json`` records the seed as ``scenario.base_seed``;
- on the mc-* workloads, mean ``dist_tilde_flambda_sq`` within 4
  standard errors of ``theoretical_tilde_risk``, the standard error
  taken about that theoretical value (see ``tilde_risk_z``);
- on the default seed, ``results.csv`` equal to
  ``benchmarks/reference/NAME.csv`` within ``reference/tolerance.json``.

A repetition that fails the gate counts all its replications as failed
and its timings are dropped. ``--trace 0`` reports the end-to-end
metrics as medians over repetitions: ``setup_s``, ``reps_per_s``,
``peak_rss_mb`` (the worker's ``ru_maxrss``, which also holds the 512 x
512 calibration buffers where they exceed the sweep's own) and
``ok_frac``, the share of attempted replications in repetitions that
passed the gate. ``ok_frac`` stands in for ``failed_frac``, which is
printed: an end-to-end metric must never be 0. ``--trace 1``
alternates untraced and traced repetitions and reports per-layer counts
and self times per attempted replication of the sweep (set-up layers in
ms per run), the tracing overhead against the untraced repetitions, and
the ROADMAP re-anchor figures next to the matching traced numbers.

Every time is reported at reference host speed. This 2-core box is
shared, and its speed flips between states up to 1.8x apart over
seconds to minutes: a fixed Python loop's 30-second medians ranged
0.072-0.092 s, and raw mc-small-n runs of 30 s ranged 685-1020 reps/s.
Each worker therefore times fixed calibration kernels
(``worker.calibrate``): the ``interp`` kernel right after set-up, and
the workload's kernel right before and right after the sweep. Set-up
times are scaled by the ``interp`` reference time in ``CALIBRATION``
over its measured time, sweep times by the workload kernel's reference
over the mean of its two measurements. The sweep kernel matches the
sweep's profile: interpreter and small-array NumPy work for mc-small-n,
BLAS on a 512 x 512 matrix for the others. Within one mc-small-n run,
calibration time correlated 0.94 with sweep time, and scaling cut the
spread of reps_per_s over its repetitions from 0.69 to 0.14. The raw
values are printed next to the scaled ones.

Every repetition runs with ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``
and ``RKHS_THREADS`` unset, whatever the caller's shell says: on a
2-core box two BLAS threads made the n=800 sweep about 1.8x slower and
noisier. Work files go to ``.bench_build/rkhsreg/NAME/trace<0|1>/`` and
are replaced by the next run of the same workload and mode. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, Span, descendants, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "rkhsreg"
DEFAULT_SEED = 20260815
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_REPETITIONS = 3
# A run, warm-up included, must end well within the 180 s it may take.
HARD_LIMIT_S = 150.0
TILDE_RISK_Z = 4.0
# Typical times of the worker.calibrate kernels on the 2-core Xeon box
# (OpenBLAS 0.3.31, one thread) the workloads were sized on.
CALIBRATION = {"interp": 0.0022, "blas": 0.005}


@dataclass(frozen=True)
class Workload:
    check_tilde_risk: bool
    # worker.calibrate kernel whose profile matches the sweep
    calibration: str
    # (label, ROADMAP re-anchor value in ms, traced metric it matches)
    roadmap: tuple[tuple[str, float, str], ...]


MC_PER_REP = "roadmap.monte_carlo.ms_per_rep"
SOLVE_PER_CALL = "roadmap.solve_coefficient.ms_per_call"
WORKLOADS = {
    "mc-small-n": Workload(
        check_tilde_risk=True,
        calibration="interp",
        roadmap=(("monte_carlo ms/rep at n=50", 1.4, MC_PER_REP),
                 ("solve_coefficient ms/call at m=256", 4.2, SOLVE_PER_CALL)),
    ),
    "mc-large-n": Workload(
        check_tilde_risk=True,
        calibration="blas",
        roadmap=(("monte_carlo ms/rep at n=800", 176.0, MC_PER_REP),
                 ("solve_coefficient ms/call at m=256", 4.2, SOLVE_PER_CALL)),
    ),
    "grid-lambda-path": Workload(
        check_tilde_risk=False,
        calibration="blas",
        roadmap=(("solve_coefficient ms/call at m=1024", 155.0, SOLVE_PER_CALL),),
    ),
}
NOT_COVERED = ("the ROADMAP figures at n=200 and n=400 (7.6 and 23 ms/rep) "
               "are not covered by these workloads")

# Spans of the sweep reported per attempted replication: (name, report calls too).
SWEEP_SPANS = (
    ("kernels.gram", True), ("kernels.cross_gram", True),
    ("linalg.solve_spd", True), ("linalg.cholesky", True),
    ("estimator.fit_ridge", True), ("estimator.gp_posterior_band", False),
    ("auxiliary.fit_auxiliary", False), ("auxiliary.bridge_distance_sq", False),
    ("auxiliary.theoretical_tilde_risk", False),
    ("fredholm.solve_coefficient", True),
    ("experiments.sample_dataset", False), ("experiments.run_replication", False),
    ("experiments.monte_carlo", False),
    ("cli.cmd_run", False),
)
# Set-up spans run once per process, so they are reported in ms per run.
SETUP_SPANS = ("fredholm.build_grid", "fredholm.f0_in_range")


def declared() -> dict:
    """BENCHMARK.json: why each workload was chosen and the metrics it reports."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def log(message: str) -> None:
    print(message, flush=True)


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("RKHS_THREADS", None)
    # Cache rkhsreg's bytecode as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(args: list[str], log_path: Path, timeout: float) -> int:
    """Runs benchmarks/worker.py; kills it and waits if it outlives ``timeout``."""
    with open(log_path, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args],
            stdout=out, stderr=subprocess.STDOUT, env=worker_env(), cwd=ROOT,
        )
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _close(got: str, want: str, rtol: float, atol: float) -> bool:
    if got == "" or want == "":
        return got == want
    return abs(float(got) - float(want)) <= atol + rtol * abs(float(want))


def reference_mismatches(workload: str, csv_path: Path) -> list[str]:
    """Rows of results.csv that differ from the checked-in reference aggregates."""
    with open(BENCH / "reference" / "tolerance.json") as fh:
        tol = json.load(fh)
    with open(BENCH / "reference" / f"{workload}.csv", newline="") as fh:
        expected = list(csv.reader(fh))
    try:
        with open(csv_path, newline="") as fh:
            actual = list(csv.reader(fh))
    except OSError as exc:
        return [f"no results.csv: {exc}"]
    if len(actual) != len(expected) or actual[:1] != expected[:1]:
        return [f"results.csv has {len(actual)} rows, the reference {len(expected)}"]
    bad = []
    for got, want in zip(actual[1:], expected[1:]):
        # n, lambda, R, metric, mean, stderr, theory
        same_key = (got[0], got[2], got[3]) == (want[0], want[2], want[3])
        numbers = [(got[i], want[i]) for i in (1, 4, 5, 6)]
        if not (same_key and all(_close(g, w, tol["rtol"], tol["atol"]) for g, w in numbers)):
            bad.append((got, want))
    if not bad:
        return []
    got, want = bad[0]
    return [f"{len(bad)} of {len(expected) - 1} results.csv rows differ from the reference, "
            f"first {got} against {want}"]


def tilde_risk_z(agg: dict) -> float:
    """z-score of mean ``dist_tilde_flambda_sq`` against its closed form.

    The standard error is taken about the theoretical value (score form),
    from the second moment ``stderr^2 (R-1) + (mean - theory)^2``. The
    risk is a skewed squared norm (skewness about 2.1 at n=50 and 1.5 at
    n=800), so the sample standard error collapses on samples that miss
    the tail: resampling 400 replications at n=800 put |z| > 4 at 0.5%
    of seeds for R=24 with the sample form and 0.02% with this one.
    """
    R = agg["R"] - agg["n_failed"]
    gap = agg["means"]["dist_tilde_flambda_sq"] - agg["theoretical_tilde_risk"]
    second_moment = agg["stderrs"]["dist_tilde_flambda_sq"] ** 2 * (R - 1) + gap**2
    return gap / (second_moment / R) ** 0.5


def gate(workload: str, seed: int, exit_code: int, timings: dict | None,
         out_dir: Path) -> tuple[list[str], int, list[float]]:
    """Correctness gate of one repetition.

    Returns why it failed (empty if it passed), the failed replications
    and, on the mc-* workloads, the tilde-risk z-score of each n.
    """
    reasons = [] if exit_code == 0 else [f"worker exit code {exit_code}"]
    if timings is None or timings["exit_code"] != 0:
        reasons.append("cmd_run did not return 0")
    try:
        with open(out_dir / "results.json") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return reasons + [f"no results.json: {exc}"], 0, []
    recorded_seed = payload["config"]["scenario"]["base_seed"]
    if recorded_seed != seed:
        reasons.append(f"results.json records seed {recorded_seed}")
    zs = []
    for agg in payload["results"]:
        n = agg["n"]
        if agg["n_failed"]:
            reasons.append(f"n={n}: {agg['n_failed']} failed replications")
        if agg["ball_violations"] or agg["residual_violations"]:
            reasons.append(f"n={n}: {agg['ball_violations']} ball and "
                           f"{agg['residual_violations']} residual violations")
        if WORKLOADS[workload].check_tilde_risk:
            z = tilde_risk_z(agg)
            zs.append(z)
            if not abs(z) <= TILDE_RISK_Z:
                reasons.append(f"n={n}: tilde risk {z:+.2f} standard errors from theory")
    if seed == DEFAULT_SEED:
        reasons += reference_mismatches(workload, out_dir / "results.csv")
    return reasons, sum(agg["n_failed"] for agg in payload["results"]), zs


@dataclass
class Repetition:
    workload: Workload
    traced: bool
    attempted: int
    replication_failures: int
    reasons: list[str]
    timings: dict | None
    tilde_z: list[float]

    @property
    def ok(self) -> bool:
        return not self.reasons

    @property
    def setup_scale(self) -> float:
        """Factor taking a set-up time to reference host speed (<1 on a slow host)."""
        return CALIBRATION["interp"] / self.timings["calib_setup_s"]

    @property
    def setup_s(self) -> float:
        return self.timings["setup_s"] * self.setup_scale

    @property
    def scale(self) -> float:
        """Factor taking a sweep time to reference host speed (<1 on a slow host)."""
        measured = self.timings["calib_s"]
        return CALIBRATION[self.workload.calibration] / (sum(measured) / len(measured))

    @property
    def raw_reps_per_s(self) -> float:
        return self.attempted / self.timings["sweep_s"]

    @property
    def reps_per_s(self) -> float:
        return self.raw_reps_per_s / self.scale


def repetition(workload: str, seed: int, rep_dir: Path, traced: bool,
               timeout: float) -> Repetition:
    """One gated worker run on a config generated from the workload and the seed."""
    rep_dir.mkdir()
    with open(BENCH / "workloads" / f"{workload}.json") as fh:
        config = json.load(fh)
    config["scenario"]["base_seed"] = seed
    config["outputs"] = str(rep_dir / "out")
    config_path, result = rep_dir / "config.json", rep_dir / "result.json"
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)
    args = ["--config", str(config_path), "--result", str(result)] + (["--trace"] if traced else [])
    args += ["--calibrate", WORKLOADS[workload].calibration]
    code = run_worker(args + ["--spawn-ns", str(time.monotonic_ns())], rep_dir / "log.txt", timeout)
    try:
        with open(result) as fh:
            timings = json.load(fh)
    except (OSError, ValueError):
        timings = None
    reasons, replication_failures, zs = gate(workload, seed, code, timings, rep_dir / "out")
    attempted = config["R"] * len(config["ns"])
    return Repetition(WORKLOADS[workload], traced, attempted, replication_failures, reasons,
                      timings, zs)


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{len(values)} sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{len(values)} samples, quartiles {q1:.6g} .. {q3:.6g}"


def end_to_end(reps: list[Repetition], attempted: int, failed: int) -> dict:
    """Medians over the untraced repetitions that passed the gate."""
    valid = [r for r in reps if r.ok and not r.traced]
    if not valid:
        return {}
    columns = {
        "setup_s": ("s", [r.setup_s for r in valid]),
        "reps_per_s": ("1/s", [r.reps_per_s for r in valid]),
        "peak_rss_mb": ("MB", [r.timings["peak_rss_mb"] for r in valid]),
    }
    metrics = {}
    for name, (unit, values) in columns.items():
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        log(f"  {name:<12} {metrics[name]['value']:12.6g} {unit:<5} median of {spread(values)}")
    for name, values, scales in (
            ("setup_s", [r.timings["setup_s"] for r in valid], [r.setup_scale for r in valid]),
            ("reps_per_s", [r.raw_reps_per_s for r in valid], [r.scale for r in valid])):
        log(f"  (raw {name} {statistics.median(values):.6g} median of {spread(values)}; "
            f"host speed scale {statistics.median(scales):.4g})")
    metrics["ok_frac"] = {"value": (attempted - failed) / attempted, "unit": "frac"}
    log(f"  {'ok_frac':<12} {metrics['ok_frac']['value']:12.6g} frac  "
        f"{attempted - failed} of {attempted} replications in repetitions that passed the gate")
    return metrics


def layer_metrics(rep: Repetition) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition, as name -> (value, unit)."""
    with open(rep.timings["spans_file"]) as fh:
        spans = [Span(*rec) for rec in json.load(fh)]
    own = self_times(spans)
    root = next(i for i, s in enumerate(spans) if s.name == "cli.cmd_run" and s.parent < 0)
    sweep = descendants(spans, root)
    per_rep = 1.0 / rep.attempted
    ms = rep.scale / 1e6  # sweep nanoseconds to reference-speed milliseconds

    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    work: dict[str, float] = {}
    setup_ns: dict[str, int] = {}
    replication_ms: list[float] = []
    for i, span in enumerate(spans):
        if i not in sweep:
            setup_ns[span.name] = setup_ns.get(span.name, 0) + own[i]
            continue
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ns[span.name] = self_ns.get(span.name, 0) + own[i]
        incl_ns[span.name] = incl_ns.get(span.name, 0) + span.end - span.start
        work[span.name] = work.get(span.name, 0.0) + span.work
        if span.name == "experiments.run_replication":
            replication_ms.append((span.end - span.start) * ms)

    setup_ms = rep.setup_scale / 1e6
    m: dict[str, tuple[float, str]] = {
        "import.rkhsreg_s": (rep.timings["import_s"] * rep.setup_scale, "s")}
    for name, with_calls in SWEEP_SPANS:
        if with_calls:
            m[f"{name}.calls"] = (calls.get(name, 0) * per_rep, "calls/rep")
        m[f"{name}.self_ms"] = (self_ns.get(name, 0) * ms * per_rep, "ms/rep")
    kernel_entries = sum(v for k, v in work.items() if k.startswith("kernels."))
    m["kernels.entries"] = (kernel_entries * per_rep, "entries/rep")
    m["linalg.cholesky.flops"] = (work.get("linalg.cholesky", 0.0) * per_rep, "flop/rep")
    retries = calls.get("linalg.cholesky", 0) - calls.get("linalg.solve_spd", 0)
    m["linalg.solve_spd.jitter_retries"] = (retries * per_rep, "retries/rep")
    for name in SETUP_SPANS:
        m[f"{name}.self_ms"] = (setup_ns.get(name, 0) * setup_ms + self_ns.get(name, 0) * ms, "ms")
    if replication_ms:
        deciles = statistics.quantiles(replication_ms, n=10, method="inclusive")
        m["experiments.run_replication.ms_p50"] = (statistics.median(replication_ms), "ms")
        m["experiments.run_replication.ms_p90"] = (deciles[8], "ms")
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_ms"] = (layer_ns * ms * per_rep, "ms/rep")
    m["trace.self_sum_ms"] = (sum(self_ns.values()) * ms * per_rep, "ms/rep")
    m["trace.ms_per_rep"] = (1e3 / rep.reps_per_s, "ms/rep")
    m[MC_PER_REP] = (incl_ns.get("experiments.monte_carlo", 0) * ms * per_rep, "ms/rep")
    solves = calls.get("fredholm.solve_coefficient", 0)
    m[SOLVE_PER_CALL] = (incl_ns.get("fredholm.solve_coefficient", 0) * ms / max(solves, 1), "ms")
    return m


def per_layer(workload: str, reps: list[Repetition]) -> dict:
    """Medians over the traced repetitions that passed the gate."""
    traced = [r for r in reps if r.ok and r.traced]
    untraced = [r for r in reps if r.ok and not r.traced]
    if not traced or not untraced:
        return {}
    rows = [layer_metrics(r) for r in traced]
    units = {name: unit for name, (_, unit) in rows[0].items()}
    values = {name: statistics.median(row[name][0] for row in rows) for name in units}
    untraced_ms = statistics.median(1e3 / r.reps_per_s for r in untraced)
    values["trace.overhead_frac"] = values["trace.ms_per_rep"] / untraced_ms - 1.0
    values["process.cpu_per_wall"] = statistics.median(
        r.timings["cpu_s"] / r.timings["sweep_s"] for r in untraced)
    units.update({"trace.overhead_frac": "ratio", "process.cpu_per_wall": "ratio"})

    log(f"  medians over {len(traced)} traced and {len(untraced)} untraced repetitions")
    for name, value in values.items():
        log(f"  {name:<40} {value:14.6g} {units[name]}")
    gap = values["trace.self_sum_ms"] / untraced_ms - 1.0
    log(f"  self times sum to {values['trace.self_sum_ms']:.6g} ms/rep against "
        f"1000 / reps_per_s = {untraced_ms:.6g} ms/rep untraced: {gap:+.2%}, "
        f"tracing overhead {values['trace.overhead_frac']:+.2%}")
    for label, roadmap_ms, metric in WORKLOADS[workload].roadmap:
        log(f"  ROADMAP re-anchor {label}: {roadmap_ms:g}, traced here {values[metric]:.4g} "
            f"({values[metric] / roadmap_ms - 1.0:+.0%})")
    log(f"  {NOT_COVERED}")
    hidden = ("roadmap.", "trace.ms_per_rep")
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items() if not name.startswith(hidden)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "rkhsreg" / "__init__.py").is_file():
        print(f"error: no rkhsreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = WORK / args.workload / f"trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if run_worker(["--check"], run_dir / "check.txt", HARD_LIMIT_S) != 0:
        print(f"error: cannot import rkhsreg from {ROOT / 'src'}; see {run_dir / 'check.txt'}",
              file=sys.stderr)
        return 2

    spec = declared()
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {why}")
    deadline = started + args.seconds
    reps: list[Repetition] = []
    durations: list[float] = []
    while True:
        remaining = HARD_LIMIT_S - (time.monotonic() - started)
        if len(reps) >= MIN_REPETITIONS * (1 + args.trace):
            expected = statistics.median(durations)
            if time.monotonic() + expected > deadline or expected > remaining:
                break
        elif remaining <= 0:
            break
        # The traced run alternates untraced and traced repetitions.
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.monotonic()
        rep = repetition(args.workload, args.seed, run_dir / f"rep{len(reps):02d}",
                         traced, remaining)
        durations.append(time.monotonic() - t0)
        reps.append(rep)
        for reason in rep.reasons[:3]:
            log(f"  gate failed on repetition {len(reps) - 1}: {reason}")
        if len(rep.reasons) > 3:
            log(f"  ... and {len(rep.reasons) - 3} more")

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.attempted for r in reps if not r.ok)
    machine = next((r.timings["machine"] for r in reps if r.timings), {})
    log(f"machine {json.dumps(machine, sort_keys=True)}")
    log(f"gate: {sum(r.ok for r in reps)} of {len(reps)} repetitions passed"
        + (", reference aggregates compared" if args.seed == DEFAULT_SEED else "")
        + f"; failed_frac {sum(r.replication_failures for r in reps) / attempted:.6g}"
        + "".join(f"; tilde risk z {z:+.2f}" for z in reps[0].tilde_z))
    if args.trace:
        metrics = per_layer(args.workload, reps)
    else:
        metrics = end_to_end(reps, attempted, failed)
    declared_units = {m["name"]: m["unit"]
                      for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if metrics and got != declared_units:
        print(f"error: metrics {got} do not match BENCHMARK.json {declared_units}",
              file=sys.stderr)
        return 1
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(run_dir / "summary.json", "w") as fh:
        repetitions = [{"traced": r.traced, "reasons": r.reasons, "timings": r.timings}
                       for r in reps]
        json.dump({**summary, "seed": args.seed, "machine": machine,
                   "repetitions": repetitions}, fh, indent=1)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
