"""One repetition of `rkhsreg run` in a fresh interpreter.

    python3 benchmarks/worker.py --config CONFIG --result RESULT --spawn-ns T
        --calibrate interp|blas [--trace]
    python3 benchmarks/worker.py --check

The parent (benchmarks/run.py) passes ``T = time.monotonic_ns()`` taken
just before it started this process, so set-up is timed from
interpreter start (CLOCK_MONOTONIC is shared between processes). Set-up
ends once rkhsreg is imported, the config is parsed by ``parse_config``
and the scenario's design context (grid, f0, evaluation grid) is built
through the public ``target_values``; the sweep is the ``cmd_run`` call
that follows, outputs included. The ``interp`` calibration kernel runs
right after set-up, and the ``--calibrate`` kernel right before and
right after the sweep, outside every timed span, so that the parent can
scale set-up and sweep times to reference host speed. ``--check`` only
imports rkhsreg from this checkout, which also leaves its bytecode
cached for the timed runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RKHS_THREADS")


def import_rkhsreg():
    """Imports rkhsreg (with its CLI) from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rkhsreg.cli

    origin = Path(rkhsreg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"rkhsreg imported from {origin}, not from {SRC}")
    return rkhsreg


def machine() -> dict:
    """Core count, BLAS, library versions and the thread variables in force."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def calibrate(kernel: str) -> float:
    """Mean seconds of a fixed kernel that stands for the host's momentary speed.

    ``interp`` mixes interpreter work with NumPy calls on small arrays,
    the profile of small-n replications; ``blas`` factors and maps a
    512 x 512 matrix in preallocated buffers, the profile of large-n and
    grid work. One untimed call first takes page faults and lazy
    initialization out of the timings. The kernels must never change:
    run.CALIBRATION holds their reference times.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    if kernel == "interp":
        v = rng.standard_normal(64)

        def once() -> None:
            x = 0
            for i in range(20000):
                x += i * i
            for _ in range(400):
                np.exp(v) @ v

        count = 48
    else:
        a = rng.standard_normal((512, 512))
        A = a @ a.T + 512.0 * np.eye(512)
        work = np.empty_like(A)

        def once() -> None:
            np.copyto(work, A)
            scipy.linalg.cholesky(work, lower=True, overwrite_a=True, check_finite=False)
            np.multiply(A, -1.0 / 512.0, out=work)
            np.exp(work, out=work)

        count = 8
    once()
    times = []
    for _ in range(count):
        start = time.perf_counter()
        once()
        times.append(time.perf_counter() - start)
    return sum(times) / count


def run(config_path: str, spawn_ns: int, trace: bool,
        kernel: str = "interp") -> tuple[dict, list]:
    """Set-up then ``cmd_run`` on ``config_path``; returns (timings, span records)."""
    import_start = time.monotonic_ns()
    rkhsreg = import_rkhsreg()
    import_end = time.monotonic_ns()
    restore = tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        restore = install(tracer)
    try:
        with open(config_path) as fh:
            config = rkhsreg.cli.parse_config(json.load(fh))
        origin = [[0.0] * config.scenario.kernel.dim]
        rkhsreg.target_values(config.scenario, origin)
        setup_end = time.monotonic_ns()
        calib_setup = calibrate("interp")
        calib_before = calibrate(kernel)
        sweep_start = time.monotonic_ns()
        cpu_start = time.process_time()
        exit_code = rkhsreg.cli.cmd_run(config_path)
        sweep_end = time.monotonic_ns()
        cpu_s = time.process_time() - cpu_start
        calib_after = calibrate(kernel)
    finally:
        if restore is not None:
            restore()
    timings = {
        "exit_code": exit_code,
        "import_s": (import_end - import_start) / 1e9,
        "setup_s": (setup_end - spawn_ns) / 1e9,
        "sweep_s": (sweep_end - sweep_start) / 1e9,
        "calib_setup_s": calib_setup,
        "calib_s": [calib_before, calib_after],
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rkhsreg_file": rkhsreg.__file__,
    }
    return timings, (tracer.records if tracer is not None else [])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config")
    parser.add_argument("--result")
    parser.add_argument("--spawn-ns", type=int)
    parser.add_argument("--calibrate", choices=("interp", "blas"), default="interp")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.check:
        import_rkhsreg()
        return 0
    if not (args.config and args.result and args.spawn_ns):
        parser.error("--config, --result and --spawn-ns are required")
    timings, records = run(args.config, args.spawn_ns, args.trace, args.calibrate)
    timings["machine"] = machine()
    result = Path(args.result)
    if records:
        spans_file = result.with_name("spans.json")
        with open(spans_file, "w") as fh:
            json.dump(records, fh, separators=(",", ":"))
        timings["spans_file"] = str(spans_file)
    with open(result, "w") as fh:
        json.dump(timings, fh, indent=1)
    return timings["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
