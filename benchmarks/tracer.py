"""In-memory span tracer for the rkhsreg benchmark.

The tracer never edits the package: `install` rebinds each public
function of a layer module under every name an rkhsreg module holds it
by (``experiments.gram``, ``fredholm.gram``, ``cli.monte_carlo``, the
package namespace, ...), and wraps ``scipy.linalg.cho_factor`` as the
``linalg.cholesky`` span. A span is ``(name, start_ns, end_ns, parent,
work)``: ``parent`` is the index of the enclosing span (-1 at the root)
and ``work`` is a count worked out from argument shapes (kernel values
for kernel assembly, n^3/3 flops for a Cholesky factorization, 0
otherwise). Spans stay in memory until the caller writes them out.

The span stack is a plain list, so the tracer assumes one thread; the
benchmark runs with ``RKHS_THREADS`` unset.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

LAYERS = ("kernels", "linalg", "estimator", "auxiliary", "fredholm", "experiments", "cli")
CHOLESKY = "linalg.cholesky"


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    work: float


def _rows(points: object, dim: int) -> int:
    """Number of points in a kernel argument, as ``kernels.as_points`` reads it."""
    size = getattr(points, "size", None)
    if size is None:
        size = len(points) if isinstance(points, (list, tuple)) else 1
    return max(1, int(size) // dim)


def _kernel_entries(name: str, args: tuple) -> float:
    spec = args[0]
    if name == "gram":
        return float(_rows(args[1], spec.dim) ** 2)
    if name == "cross_gram":
        return float(_rows(args[1], spec.dim) * _rows(args[2], spec.dim))
    if name == "kernel_eval":
        return 1.0
    return 0.0


def _cholesky_flops(args: tuple) -> float:
    n = args[0].shape[0]
    return n**3 / 3.0


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.records: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, work: Callable[[tuple], float] | None = None) -> Callable:
        records, stack, clock = self.records, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(records)
            rec = [name, 0, 0, stack[-1] if stack else -1, work(args) if work else 0.0]
            records.append(rec)
            stack.append(index)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__traced__ = name
        return traced

    @property
    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self.records]


def rkhsreg_modules() -> list:
    """The rkhsreg package and every loaded submodule."""
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "rkhsreg" or key.startswith("rkhsreg."))]


def traced_functions() -> dict[int, tuple[str, Callable]]:
    """Maps id(function) to (span name, function) for every public layer function."""
    found: dict[int, tuple[str, Callable]] = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"rkhsreg.{layer}")
        if mod is None:
            continue
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                found[id(value)] = (f"{layer}.{attr}", value)
    return found


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebinds every public layer function, wherever rkhsreg imported it, to a traced wrapper.

    Import the rkhsreg modules to be traced (``rkhsreg.cli`` included)
    first: only modules already in ``sys.modules`` are rebound. Returns
    the function that rebinds the originals.
    """
    import scipy.linalg

    wrappers: dict[int, Callable] = {}
    for key, (name, fn) in traced_functions().items():
        layer, attr = name.split(".")
        work = (lambda args, attr=attr: _kernel_entries(attr, args)) if layer == "kernels" else None
        wrappers[key] = tracer.wrap(name, fn, work)
    saved: list[tuple[object, str, object]] = []

    def rebind(owner: object, attr: str, value: object) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for mod in rkhsreg_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                rebind(mod, attr, wrappers[id(value)])
    rebind(scipy.linalg, "cho_factor", tracer.wrap(CHOLESKY, scipy.linalg.cho_factor, _cholesky_flops))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return restore


def _covered(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        clipped = [(max(spans[c].start, span.start), min(spans[c].end, span.end))
                   for c in children[index]]
        out.append(span.end - span.start - _covered((lo, hi) for lo, hi in clipped if hi > lo))
    return out


def descendants(spans: list[Span], root: int) -> set[int]:
    """Indices of ``root`` and every span below it (parents precede children)."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
    return inside
