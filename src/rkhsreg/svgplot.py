"""Minimal deterministic SVG plotting.

Emits line, scatter, and band primitives with fixed-precision
coordinates and no timestamps or environment-dependent metadata, so a
figure built from the same numbers is byte-identical across runs and
machines. Supports linear and log axes, enough for the experiment
plots; it is not a general plotting library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PALETTE = {
    "blue": "#1f77b4",
    "green": "#2ca02c",
    "red": "#d62728",
    "gray": "#7f7f7f",
}
WIDTH, HEIGHT = 640, 460


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _nice_step(span: float) -> float:
    if span <= 0:
        return 1.0
    raw = span / 5.0
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    # lo/hi are log10 values; ticks returned in log10 space.
    lo_d, hi_d = math.floor(lo), math.ceil(hi)
    if hi - lo >= 1.5:
        return [float(d) for d in range(math.ceil(lo), math.floor(hi) + 1)]
    ticks = []
    for d in range(lo_d, hi_d + 1):
        for mult in (1.0, 2.0, 5.0):
            t = d + math.log10(mult)
            if lo - 1e-9 <= t <= hi + 1e-9:
                ticks.append(t)
    return ticks


def _tick_label(value: float, log: bool) -> str:
    if log:
        return f"{10.0 ** value:.3g}"
    return f"{value:.6g}"


@dataclass
class Figure:
    """Accumulates plot elements, then renders to an SVG string."""

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    xlog: bool = False
    ylog: bool = False
    _lines: list = field(default_factory=list)
    _scatters: list = field(default_factory=list)
    _bands: list = field(default_factory=list)
    _notes: list = field(default_factory=list)

    def add_line(self, xs, ys, color: str = "blue", dash: str | None = None) -> None:
        self._lines.append((list(map(float, xs)), list(map(float, ys)), color, dash))

    def add_scatter(self, xs, ys, color: str = "red", radius: float = 2.5) -> None:
        self._scatters.append((list(map(float, xs)), list(map(float, ys)), color, radius))

    def add_band(self, xs, lower, upper, color: str = "blue") -> None:
        self._bands.append((list(map(float, xs)), list(map(float, lower)), list(map(float, upper)), color))

    def add_annotation(self, text: str) -> None:
        self._notes.append(str(text))

    def _tx(self, x: float) -> float:
        return math.log10(x) if self.xlog else x

    def _ty(self, y: float) -> float:
        return math.log10(y) if self.ylog else y

    def _bounds(self) -> tuple[float, float, float, float]:
        xs: list[float] = []
        ys: list[float] = []
        for lx, ly, *_ in self._lines:
            xs += [self._tx(v) for v in lx]
            ys += [self._ty(v) for v in ly]
        for sx, sy, *_ in self._scatters:
            xs += [self._tx(v) for v in sx]
            ys += [self._ty(v) for v in sy]
        for bx, blo, bhi, *_ in self._bands:
            xs += [self._tx(v) for v in bx]
            ys += [self._ty(v) for v in blo] + [self._ty(v) for v in bhi]
        if not xs:
            return 0.0, 1.0, 0.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        pad_x = 0.05 * (x1 - x0) or 0.5
        pad_y = 0.05 * (y1 - y0) or 0.5
        return x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y

    def to_svg(self) -> str:
        left, right, top, bottom = 62.0, 16.0, 34.0, 48.0
        pw = WIDTH - left - right
        ph = HEIGHT - top - bottom
        x0, x1, y0, y1 = self._bounds()

        def px(x: float) -> float:
            return left + (self._tx(x) - x0) / (x1 - x0) * pw

        def py(y: float) -> float:
            return top + (y1 - self._ty(y)) / (y1 - y0) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
            f'fill="none" stroke="black" stroke-width="1"/>',
        ]

        x_ticks = _log_ticks(x0, x1) if self.xlog else _linear_ticks(x0, x1)
        for t in x_ticks:
            cx = left + (t - x0) / (x1 - x0) * pw
            out.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(top + ph)}" x2="{_fmt(cx)}" '
                f'y2="{_fmt(top + ph + 5)}" stroke="black" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(top + ph + 18)}" text-anchor="middle">'
                f"{_tick_label(t, self.xlog)}</text>"
            )
        y_ticks = _log_ticks(y0, y1) if self.ylog else _linear_ticks(y0, y1)
        for t in y_ticks:
            cy = top + (y1 - t) / (y1 - y0) * ph
            out.append(
                f'<line x1="{_fmt(left - 5)}" y1="{_fmt(cy)}" x2="{_fmt(left)}" '
                f'y2="{_fmt(cy)}" stroke="black" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(left - 8)}" y="{_fmt(cy + 4)}" text-anchor="end">'
                f"{_tick_label(t, self.ylog)}</text>"
            )

        for bx, blo, bhi, color in self._bands:
            pts = [f"{_fmt(px(x))},{_fmt(py(v))}" for x, v in zip(bx, bhi)]
            pts += [f"{_fmt(px(x))},{_fmt(py(v))}" for x, v in zip(reversed(bx), reversed(blo))]
            out.append(
                f'<polygon points="{" ".join(pts)}" fill="{PALETTE[color]}" '
                'opacity="0.25" stroke="none"/>'
            )
        for lx, ly, color, dash in self._lines:
            pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(lx, ly))
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{PALETTE[color]}" '
                f'stroke-width="1.8"{dash_attr}/>'
            )
        for sx, sy, color, radius in self._scatters:
            for x, y in zip(sx, sy):
                out.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="{radius:g}" '
                    f'fill="{PALETTE[color]}"/>'
                )

        if self.title:
            out.append(
                f'<text x="{_fmt(left + pw / 2)}" y="20" text-anchor="middle" '
                f'font-size="14">{self.title}</text>'
            )
        if self.xlabel:
            out.append(
                f'<text x="{_fmt(left + pw / 2)}" y="{_fmt(HEIGHT - 12)}" '
                f'text-anchor="middle">{self.xlabel}</text>'
            )
        if self.ylabel:
            cy = top + ph / 2
            out.append(
                f'<text x="14" y="{_fmt(cy)}" text-anchor="middle" '
                f'transform="rotate(-90 14 {_fmt(cy)})">{self.ylabel}</text>'
            )
        for i, note in enumerate(self._notes):
            out.append(
                f'<text x="{_fmt(left + 10)}" y="{_fmt(top + 18 + 16 * i)}">{note}</text>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"
