"""Small deterministic SVG chart writer.

Produces self-contained SVG line/scatter charts with error bars, tick labels,
and a legend.  Every chart is 640 x 440 px, with about five ticks per axis
and 6% padding around the data.  Output is a pure function of the inputs: no
timestamps, no random identifiers, fixed float formatting, so charts are
byte-identical across runs, and golden files in ``tests/data`` pin each chart
kind the command-line tools write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

PALETTE = ("#1f6fb2", "#d95f02", "#2a9d3c", "#7a4fa3", "#c23b77")

_WIDTH, _HEIGHT = 640, 440
_TICKS = 5  # ticks aimed for per axis
_PAD = 0.06  # padding on each side, as a share of the data range
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64.0, 16.0, 34.0, 46.0
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_FONT = 'font-family="Helvetica,Arial,sans-serif"'


@dataclass(frozen=True)
class Series:
    """One plottable series: points, a line, or both, with optional y errors."""

    xs: Sequence[float]
    ys: Sequence[float]
    yerr: Optional[Sequence[float]] = None
    label: str = ""
    style: str = "points"  # "points", "line", or "points+line"
    color: Optional[str] = None

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if self.yerr is not None and len(self.yerr) != len(self.ys):
            raise ValueError("yerr must match ys length")
        if self.style not in ("points", "line", "points+line"):
            raise ValueError(f"unknown style {self.style!r}")


def _fmt(value: float) -> str:
    """Fixed coordinate formatting: two decimals, no negative zero."""
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: int) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x: float, y, size: int, fill: str, body: str,
          anchor: Optional[str] = "middle", rotate: bool = False) -> str:
    """A text element of ``body``, escaped; a str ``y`` is written as given.
    ``rotate`` turns it a quarter turn anticlockwise about (x, y)."""
    y = y if isinstance(y, str) else _fmt(y)
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {_fmt(x)} {y})"' if rotate else ""
    return (f'<text x="{_fmt(x)}" y="{y}" {_FONT} font-size="{size}"{anchor} '
            f'fill="{fill}"{turn}>{_escape(body)}</text>')


def _nice_ticks(lo: float, hi: float) -> Optional[list]:
    """About ``_TICKS`` round ticks over lo < hi on a 1-2-5 ladder, or None
    if the step rounds to zero or would not move a tick."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("axis range must be finite")
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw)) if raw else 0.0
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if raw <= s * mag + 1e-12)
    if not step:
        return None
    ticks = []
    t = math.ceil(lo / step - 1e-9) * step
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:  # below the float spacing at t
            return None
        t += step
    return ticks


def _tick_label(value: float) -> str:
    return f"{value:.10g}"


def _axes(series: Sequence[Series]) -> tuple:
    """``(lo, hi, ticks)`` of the x and the y axis over every point and
    error-bar end, padded by ``_PAD`` of the span; one too flat for ticks is
    widened by 0.5 a side, or by its magnitude where rounding loses 0.5."""
    xs, ys = [], []
    for s in series:
        err = s.yerr if s.yerr is not None else [0.0] * len(s.ys)
        for x, y, e in zip(s.xs, s.ys, err):
            xs.append(float(x))
            ys += (float(y) - float(e), float(y) + float(e))
    if not xs:
        raise ValueError("nothing to plot")
    axes = ()
    for lo, hi in ((min(xs), max(xs)), (min(ys), max(ys))):
        for half in (0.0, 0.5, max(-lo, hi)):
            a, b = lo - half, hi + half
            pad = (b - a) * _PAD
            ticks = None if b <= a else _nice_ticks(a - pad, b + pad)  # NaN raises
            if ticks is not None:
                break
        axes += ((a - pad, b + pad, ticks),)
    return axes


def render_chart(series: Sequence[Series], title: str = "", xlabel: str = "",
                 ylabel: str = "") -> str:
    """Render series to an SVG string (deterministic for fixed inputs)."""
    if not series:
        raise ValueError("nothing to plot")
    (x_lo, x_hi, x_ticks), (y_lo, y_hi, y_ticks) = _axes(series)
    right, bottom = _MARGIN_LEFT + _PLOT_W, _MARGIN_TOP + _PLOT_H

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (float(x) - x_lo) / (x_hi - x_lo) * _PLOT_W

    def sy(y: float) -> float:
        return bottom - (float(y) - y_lo) / (y_hi - y_lo) * _PLOT_H

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(_PLOT_W)}" height="{_fmt(_PLOT_H)}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>',
    ]
    # gridlines and tick labels
    for t in x_ticks:
        out += (_line(sx(t), _MARGIN_TOP, sx(t), bottom, "#dddddd", 1),
                _text(sx(t), bottom + 16, 11, "#333333", _tick_label(t)))
    for t in y_ticks:
        out += (_line(_MARGIN_LEFT, sy(t), right, sy(t), "#dddddd", 1),
                _text(_MARGIN_LEFT - 6, sy(t) + 4, 11, "#333333", _tick_label(t), "end"))
    # series
    colors = [s.color or PALETTE[i % len(PALETTE)] for i, s in enumerate(series)]
    for s, color in zip(series, colors):
        if "line" in s.style and len(s.xs) >= 2:
            pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        for x, y, e in zip(s.xs, s.ys, s.yerr if s.yerr is not None else ()):
            if e <= 0:
                continue
            px, y0, y1 = sx(x), sy(y - e), sy(y + e)
            out += (_line(px, y0, px, y1, color, 1), _line(px - 3, y0, px + 3, y0, color, 1),
                    _line(px - 3, y1, px + 3, y1, color, 1))
        if "points" in s.style:
            out += (f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>'
                    for x, y in zip(s.xs, s.ys))
    # labels; the title's baseline is "20", not "20.00", so charts keep their bytes
    if title:
        out.append(_text(_WIDTH / 2, "20", 14, "#111111", title))
    if xlabel:
        out.append(_text(_MARGIN_LEFT + _PLOT_W / 2, _HEIGHT - 10, 12, "#111111", xlabel))
    if ylabel:
        out.append(_text(16.0, _MARGIN_TOP + _PLOT_H / 2, 12, "#111111", ylabel, rotate=True))
    # legend
    for j, (s, color) in enumerate([(s, c) for s, c in zip(series, colors) if s.label]):
        lx, ly = right - 150, _MARGIN_TOP + 14 + 16 * j
        out += (_line(lx, ly - 4, lx + 18, ly - 4, color, 2),
                _text(lx + 24, ly, 11, "#111111", s.label, None))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_chart(path, series: Sequence[Series], title: str = "", xlabel: str = "",
                ylabel: str = "") -> None:
    """Render and write a chart to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_chart(series, title, xlabel, ylabel))
