"""Deterministic SVG rendering."""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import mirrorbench.plotting as plotting_module
from mirrorbench.plotting import PALETTE, Series, render_chart, write_chart
from mirrorbench.plotting import _escape, _fmt, _nice_ticks, _tick_label


def _sample_series():
    return [
        Series(xs=[1, 2, 3, 4], ys=[0.9, 0.7, 0.55, 0.45],
               yerr=[0.02, 0.02, 0.03, 0.03], label="measured", style="points"),
        Series(xs=[1, 2, 3, 4], ys=[0.88, 0.71, 0.56, 0.44], label="fit",
               style="line"),
    ]


def test_render_is_deterministic():
    a = render_chart(_sample_series(), title="decay", xlabel="L", ylabel="p")
    b = render_chart(_sample_series(), title="decay", xlabel="L", ylabel="p")
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")


def test_render_contains_expected_elements():
    svg = render_chart(_sample_series(), title="decay curve", xlabel="length",
                       ylabel="survival")
    assert "decay curve" in svg
    assert "length" in svg and "survival" in svg
    assert svg.count("<circle") == 4
    assert "<polyline" in svg
    # error bars: one stem and two caps per point with nonzero error
    assert svg.count("stroke-width=\"1\"") >= 12
    assert "measured" in svg and "fit" in svg


def test_render_escapes_markup_in_labels():
    svg = render_chart([Series(xs=[0, 1], ys=[0, 1], label="a<b>&c")])
    assert "a&lt;b&gt;&amp;c" in svg
    assert "a<b>" not in svg


def test_render_has_no_timestamps():
    svg = render_chart(_sample_series())
    for token in ("date", "time", "Date", "Time", "20"):
        # no datetime-looking strings; years would start with 20
        assert "2025" not in svg and "2026" not in svg
    assert "<!--" not in svg


def test_points_plus_line_style():
    svg = render_chart([Series(xs=[0, 1, 2], ys=[1, 2, 3], style="points+line")])
    assert svg.count("<circle") == 3
    assert "<polyline" in svg


def test_write_chart(tmp_path):
    path = tmp_path / "chart.svg"
    write_chart(path, _sample_series(), title="t")
    text = path.read_text()
    assert text == render_chart(_sample_series(), title="t")


def test_series_validation():
    with pytest.raises(ValueError):
        Series(xs=[1, 2], ys=[1])
    with pytest.raises(ValueError):
        Series(xs=[1], ys=[1], yerr=[0.1, 0.2])
    with pytest.raises(ValueError):
        Series(xs=[1], ys=[1], style="dots")
    with pytest.raises(ValueError):
        render_chart([])


def test_nice_ticks():
    assert _nice_ticks(0.0, 10.0) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    ticks = _nice_ticks(0.0, 1.0)
    assert ticks[0] == 0.0 and abs(ticks[1] - 0.2) < 1e-12
    ticks = _nice_ticks(-0.05, 0.05)
    assert any(t == 0.0 for t in ticks)


def test_single_point_series_renders():
    svg = render_chart([Series(xs=[5], ys=[2.0], yerr=[0.5])])
    assert "<circle" in svg


@pytest.mark.parametrize("points,flat", [
    (dict(xs=[1, 2], ys=[1000.0, 1000.0000000000001]), dict(xs=[1, 2], ys=[1000.0, 1000.0])),
    (dict(xs=[1000.0, 1000.0000000000001], ys=[1, 2]), dict(xs=[1000.0, 1000.0], ys=[1, 2])),
    (dict(xs=[1, 2], ys=[1e16, 1e16 + 2]), None),
    (dict(xs=[1, 2], ys=[1e16, 1e16]), None),
], ids=["y-one-spacing-at-1000", "x-one-spacing-at-1000", "y-one-spacing-at-1e16",
        "y-flat-at-1e16"])
def test_a_nearly_flat_axis_is_widened_and_renders(points, flat):
    # an axis one float spacing wide had a tick step below that spacing, so
    # ``t += step`` never moved and render_chart never returned; at 1e16,
    # where widening by 0.5 is lost to rounding, a flat axis divided by zero.
    # In a subprocess with a time bound, each renders, at 1000 as flat data do
    script = ("import sys\n"
              "from mirrorbench.plotting import Series, render_chart\n"
              f"sys.stdout.write(render_chart([Series(**{points!r})]))\n")
    src = os.path.dirname(os.path.dirname(plotting_module.__file__))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("<text") >= 4  # at least two ticks on each axis
    if flat is not None:
        assert out.stdout == render_chart([Series(**flat)])


def test_an_axis_whose_tick_step_rounds_to_zero_is_widened_and_renders():
    # a span of one subnormal gave a step of 0 and math.log10(0) raised; the
    # step underflows below 1e-323 too.  Such an axis renders as flat data do
    assert _nice_ticks(0.0, 5e-324) is None
    assert _nice_ticks(0.0, 3e-323) is None
    assert (render_chart([Series(xs=[1, 2], ys=[0.0, 5e-324])])
            == render_chart([Series(xs=[1, 2], ys=[0.0, 0.0])]))


# The chart writer as it was before its elements went through one line and
# one text helper, kept as the reference that ``render_chart`` must equal byte
# for byte: ``_reference_render_chart`` verbatim, calling the old range and
# tick helpers, with the sizes, tick target and padding as parameters.
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


def _reference_nice_ticks(lo: float, hi: float, target: int = 5) -> list:
    """Round tick positions using a 1-2-5 step ladder."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("axis range must be finite")
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw = span / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if raw <= s * mag + 1e-12)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _reference_data_range(series, pad_frac: float = 0.06) -> tuple:
    xs = [float(x) for s in series for x in s.xs]
    ys = []
    for s in series:
        err = s.yerr if s.yerr is not None else [0.0] * len(s.ys)
        for y, e in zip(s.ys, err):
            ys.append(float(y) - float(e))
            ys.append(float(y) + float(e))
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = (x_hi - x_lo) * pad_frac
    y_pad = (y_hi - y_lo) * pad_frac
    return x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad


def _reference_render_chart(series, title: str = "", xlabel: str = "",
                            ylabel: str = "", width: int = 640, height: int = 440) -> str:
    """Render series to an SVG string (deterministic for fixed inputs)."""
    if not series:
        raise ValueError("nothing to plot")
    x_lo, x_hi, y_lo, y_hi = _reference_data_range(series)
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (float(x) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + plot_h - (float(y) - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    out.append(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    font = 'font-family="Helvetica,Arial,sans-serif"'
    # gridlines and tick labels
    for t in _reference_nice_ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_MARGIN_TOP)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(_MARGIN_TOP + plot_h)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_MARGIN_TOP + plot_h + 16)}" '
            f'{font} font-size="11" text-anchor="middle" fill="#333333">'
            f'{_escape(_tick_label(t))}</text>'
        )
    for t in _reference_nice_ticks(y_lo, y_hi):
        py = sy(t)
        out.append(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(py)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 6)}" y="{_fmt(py + 4)}" '
            f'{font} font-size="11" text-anchor="end" fill="#333333">'
            f'{_escape(_tick_label(t))}</text>'
        )
    # series
    colors = [s.color or PALETTE[i % len(PALETTE)] for i, s in enumerate(series)]
    for i, s in enumerate(series):
        color = colors[i]
        if "line" in s.style and len(s.xs) >= 2:
            pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        if s.yerr is not None:
            for x, y, e in zip(s.xs, s.ys, s.yerr):
                if e <= 0:
                    continue
                px, y0, y1 = sx(x), sy(y - e), sy(y + e)
                out.append(
                    f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
                    f'y2="{_fmt(y1)}" stroke="{color}" stroke-width="1"/>'
                )
                for yy in (y0, y1):
                    out.append(
                        f'<line x1="{_fmt(px - 3)}" y1="{_fmt(yy)}" '
                        f'x2="{_fmt(px + 3)}" y2="{_fmt(yy)}" '
                        f'stroke="{color}" stroke-width="1"/>'
                    )
        if "points" in s.style:
            for x, y in zip(s.xs, s.ys):
                out.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                    f'fill="{color}"/>'
                )
    # labels
    if title:
        out.append(
            f'<text x="{_fmt(width / 2)}" y="20" {font} font-size="14" '
            f'text-anchor="middle" fill="#111111">{_escape(title)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(height - 10)}" '
            f'{font} font-size="12" text-anchor="middle" fill="#111111">'
            f'{_escape(xlabel)}</text>'
        )
    if ylabel:
        cx, cy = 16.0, _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" {font} font-size="12" '
            f'text-anchor="middle" fill="#111111" '
            f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">{_escape(ylabel)}</text>'
        )
    # legend
    labeled = [(i, s) for i, s in enumerate(series) if s.label]
    for j, (i, s) in enumerate(labeled):
        color = colors[i]
        ly = _MARGIN_TOP + 14 + 16 * j
        lx = _MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 18)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 24)}" y="{_fmt(ly)}" {font} font-size="11" '
            f'fill="#111111">{_escape(s.label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# coordinates on a grid of sevenths (and plain ints, as the CLI's lengths),
# so that two distinct values of a series differ by far more than their
# rounding and the tick ladder always advances
_VALUES = st.one_of(st.integers(-100, 100), st.integers(-3000, 3000).map(lambda k: k / 7))
_ERRORS = st.one_of(st.just(0.0), st.integers(1, 300).map(lambda k: k / 7))
_LABELS = st.one_of(st.just(""), st.text("ab <>&\"'", max_size=6))


@st.composite
def _random_series(draw):
    size = draw(st.integers(1, 12))
    xs = draw(st.lists(_VALUES, min_size=size, max_size=size))
    flat = draw(st.booleans())
    ys = ([draw(_VALUES)] * size if flat
          else draw(st.lists(_VALUES, min_size=size, max_size=size)))
    yerr = draw(st.one_of(st.none(), st.lists(_ERRORS, min_size=size, max_size=size)))
    return Series(xs=xs, ys=ys, yerr=yerr, label=draw(_LABELS),
                  style=draw(st.sampled_from(("points", "line", "points+line"))),
                  color=draw(st.one_of(st.none(), st.sampled_from(("#888888", "red")))))


@settings(max_examples=150, deadline=None)
@given(series=st.lists(_random_series(), min_size=1, max_size=6),
       title=_LABELS, xlabel=_LABELS, ylabel=_LABELS)
def test_render_chart_equals_the_reference_writer(series, title, xlabel, ylabel):
    # 1-6 series (past the five-colour palette), every style, explicit
    # colours, labels with markup and empty ones, zero and positive error
    # bars, single points and flat series
    assert (render_chart(series, title, xlabel, ylabel)
            == _reference_render_chart(series, title=title, xlabel=xlabel, ylabel=ylabel))


def test_render_chart_equals_the_reference_writer_on_the_sample_charts():
    for series in (_sample_series(), [Series(xs=[5], ys=[2.0], yerr=[0.5])],
                   [Series(xs=[0, 1], ys=[0, 1], label="a<b>&c")]):
        assert render_chart(series, "t", "x", "y") == _reference_render_chart(
            series, title="t", xlabel="x", ylabel="y")
        assert render_chart(series) == _reference_render_chart(series)
