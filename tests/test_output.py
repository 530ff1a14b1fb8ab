"""geoeq.output against the per-cell and per-point emitters it replaced.

The reference section below is the CSV and SVG code as it stood before
tables and charts were formatted an array at a time, copied verbatim.
The properties require the same bytes from both, or the same exception.
The tick helpers, which the rewrite kept, are shared rather than copied.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoeq import output
from geoeq.output import _nice_ticks, _tick_label

# ---------------------------------------------------------------------------
# Reference: per-cell CSV, per-point SVG

_SIG_DIGITS = 12


def format_value(value) -> str:
    """Render one CSV cell: floats at 12 significant digits, rest as-is."""
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0.0:  # fold -0.0 into "0"
            return "0"
        return f"{value:.{_SIG_DIGITS}g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(cell) for cell in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


@dataclass
class Series:
    label: str
    points: list[tuple[float, float]]
    color: str
    dash: str | None = None
    width: float = 1.6


def _finite_points(series: list[Series]):
    for s in series:
        for x, y in s.points:
            if math.isfinite(x) and math.isfinite(y):
                yield x, y


def line_chart(title: str, x_label: str, y_label: str, series: list[Series],
               *, width: int = 760, height: int = 500,
               annotations: list[tuple[float, float, str]] | None = None,
               y_range: tuple[float, float] | None = None) -> str:
    """Assemble a standalone SVG line chart as a string."""
    pts = list(_finite_points(series))
    if not pts:
        raise ValueError("nothing to plot: no finite points in any series")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    if y_range is not None:
        y_lo, y_hi = y_range
    else:
        y_lo, y_hi = min(ys), max(ys)
        pad = 0.05 * (y_hi - y_lo or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    m_left, m_right, m_top, m_bottom = 62, 16, 34, 46
    plot_w = width - m_left - m_right
    plot_h = height - m_top - m_bottom

    def sx(x: float) -> float:
        return m_left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return m_top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">'
        f"{title}</text>",
    ]

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{m_top}" x2="{px:.2f}" '
                     f'y2="{m_top + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{m_top + plot_h + 16}" '
                     f'text-anchor="middle" font-size="11">{_tick_label(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{m_left}" y1="{py:.2f}" x2="{m_left + plot_w}" '
                     f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{m_left - 6}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-size="11">{_tick_label(t)}</text>')

    parts.append(f'<rect x="{m_left}" y="{m_top}" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="#555555"/>')
    parts.append(f'<text x="{m_left + plot_w / 2:.1f}" y="{height - 10}" '
                 f'text-anchor="middle" font-size="12">{x_label}</text>')
    parts.append(f'<text x="16" y="{m_top + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-size="12" transform="rotate(-90 16 {m_top + plot_h / 2:.1f})">'
                 f"{y_label}</text>")

    clip_lo, clip_hi = y_lo - 0.5 * (y_hi - y_lo), y_hi + 0.5 * (y_hi - y_lo)
    for s in series:
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        segment: list[str] = []
        chunks: list[list[str]] = []
        for x, y in s.points:
            if math.isfinite(x) and math.isfinite(y) and clip_lo <= y <= clip_hi:
                segment.append(f"{sx(x):.2f},{sy(y):.2f}")
            elif segment:
                chunks.append(segment)
                segment = []
        if segment:
            chunks.append(segment)
        for chunk in chunks:
            if len(chunk) < 2:
                continue
            parts.append(f'<polyline points="{" ".join(chunk)}" fill="none" '
                         f'stroke="{s.color}" stroke-width="{s.width}"{dash}/>')

    legend_y = m_top + 14
    for i, s in enumerate([s for s in series if s.label]):
        ly = legend_y + 16 * i
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        parts.append(f'<line x1="{m_left + plot_w - 150}" y1="{ly}" '
                     f'x2="{m_left + plot_w - 120}" y2="{ly}" stroke="{s.color}" '
                     f'stroke-width="{s.width}"{dash}/>')
        parts.append(f'<text x="{m_left + plot_w - 114}" y="{ly + 4}" '
                     f'font-size="11">{s.label}</text>')

    for ax, ay, text in annotations or []:
        px, py = sx(ax), sy(ay)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.5" fill="#111111"/>')
        parts.append(f'<text x="{px + 6:.2f}" y="{py - 6:.2f}" font-size="11">'
                     f"{text}</text>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"



# ---------------------------------------------------------------------------
# Strategies

_SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300]
_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_SPECIAL))
_CELLS = st.one_of(_FLOATS, st.booleans(), st.none(), st.just(""),
                   st.integers(-10**15, 10**15),
                   st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


_ARRAY_CELLS = {np.float64: _FLOATS, np.float32: st.floats(width=32),
                np.int64: st.integers(-2**63, 2**63 - 1), np.bool_: st.booleans()}


@st.composite
def _tables(draw):
    """Columns of equal length: float64, float32, int64 or bool arrays, or
    lists of mixed cells."""
    n_rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        dtype = draw(st.sampled_from([list, *_ARRAY_CELLS]))
        if dtype is list:
            columns.append(draw(st.lists(_CELLS, min_size=n_rows, max_size=n_rows)))
        else:
            cells = draw(st.lists(_ARRAY_CELLS[dtype], min_size=n_rows, max_size=n_rows))
            columns.append(np.array(cells, dtype=dtype))
    return columns


_GAPS = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _charts(draw):
    """Series with NaN gaps, clipped runs and single-point runs, and a y range."""
    # "wide" charts also take floats of any size, which overflow the scaling
    wide = draw(st.booleans())
    values = st.one_of(st.floats(-3.0, 3.0), _GAPS, st.sampled_from([-0.0, 0.0]),
                       *([st.floats(allow_nan=True, allow_infinity=True)] if wide else []))
    series = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 25))
        xs = draw(st.lists(values, min_size=n, max_size=n))
        ys = draw(st.lists(_GAPS if draw(st.integers(0, 5)) == 0 else values,
                           min_size=n, max_size=n))
        series.append((draw(st.sampled_from(["", "first", "second"])),
                       xs, ys, draw(st.sampled_from(output.PALETTE)),
                       draw(st.sampled_from([None, "6,4"])),
                       draw(st.sampled_from([1.6, 2.0]))))
    y_range = draw(st.one_of(st.none(), st.just((-0.02, 1.02)),
                             st.tuples(st.floats(-2.0, 0.0), st.floats(0.1, 2.0))))
    annotations = draw(st.one_of(st.none(), st.lists(
        st.tuples(st.one_of(st.floats(-3.0, 3.0), _GAPS), st.floats(-3.0, 3.0),
                  st.sampled_from(["crossing", "stable"])), max_size=3)))
    return series, y_range, annotations


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "table.csv"


def _csv_bytes(path, write, header, table) -> bytes:
    write(path, header, table)
    return path.read_bytes()


def _outcome(chart, *args, **kwargs):
    """The chart's text, or the type of what it raised."""
    try:
        return chart(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc)


# ---------------------------------------------------------------------------
# Byte equality with the reference


@settings(deadline=None, max_examples=200, derandomize=True)
@given(table=_tables())
def test_csv_bytes_equal_the_per_cell_writer(csv_path, table):
    header = [f"c{i}" for i in range(len(table))]
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in table])
    assert (_csv_bytes(csv_path, output.write_csv, header, table)
            == _csv_bytes(csv_path, write_csv, header, rows))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(chart=_charts(), as_arrays=st.booleans())
def test_svg_bytes_equal_the_per_point_chart(chart, as_arrays):
    series, y_range, annotations = chart
    # where the x span or the padded y span overflows, the reference writes
    # nan points and line_chart scales by halves
    # (test_a_range_without_a_finite_tick_step_...)
    finite = [(x, y) for _, x_s, y_s, *_ in series for x, y in zip(x_s, y_s)
              if math.isfinite(x) and math.isfinite(y)]
    if finite:
        finite_x, finite_y = zip(*finite)
        assume(math.isfinite(max(finite_x) - min(finite_x)))
        if y_range is None:
            pad = 0.05 * (max(finite_y) - min(finite_y) or 1.0)
            assume(math.isfinite((max(finite_y) + pad) - (min(finite_y) - pad)))
    wrap = np.array if as_arrays else list
    new = [output.Series(label, wrap(xs), wrap(ys), color, dash, width)
           for label, xs, ys, color, dash, width in series]
    old = [Series(label, list(zip(xs, ys)), color, dash, width)
           for label, xs, ys, color, dash, width in series]
    args = ("title", "x", "y")
    assert (_outcome(output.line_chart, *args, new, annotations=annotations, y_range=y_range)
            == _outcome(line_chart, *args, old, annotations=annotations, y_range=y_range))


# ---------------------------------------------------------------------------
# Cases


@pytest.mark.parametrize("value, text", [
    (-0.0, "0"), (0.0, "0"), (np.float64(-0.0), "0"), (math.nan, "nan"),
    (math.inf, "inf"), (-math.inf, "-inf"), (1.0 / 3.0, "0.333333333333"),
    (5e-324, "4.94065645841e-324"), (1e300, "1e+300"), (True, "true"),
    (None, "null"), ("", ""), ("stable", "stable"), (10**13, "10000000000000"),
])
def test_format_value(value, text):
    assert output.format_value(value) == text


def test_csv_cell_formats(tmp_path):
    path = tmp_path / "t.csv"
    output.write_csv(path, ["x", "label"], [np.array([-0.0, math.nan, -math.inf, 0.1]),
                                            ["a", True, None, ""]])
    assert path.read_bytes() == b"x,label\n0,a\nnan,true\n-inf,null\n0.1,\n"
    output.write_csv(path, ["x", "label"], [])
    assert path.read_bytes() == b"x,label\n"


@pytest.mark.parametrize("series", [
    [],
    [output.Series("gaps", [0.0, math.nan, 1.0], [math.nan, 1.0, math.inf], "#000000")],
])
def test_nothing_to_plot(series):
    with pytest.raises(ValueError, match="nothing to plot"):
        output.line_chart("t", "x", "y", series)


def test_a_range_narrower_than_float_spacing_still_gets_ticks():
    # the tick loop used to spin forever once a step no longer moved it
    svg = output.line_chart("t", "x", "y", [
        output.Series("", [1.0, 1.0 + 2.0**-52], [1.0, 1.0 + 2.0**-52], "#000000")])
    assert svg.count("<polyline") == 1


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0], [0.0, 5e-324]),  # the tick step underflows to 0
    ([-1e308, 1e308], [0.0, 1.0]),  # the tick step overflows
    ([0.0, 1.0], [-1e308, 1e308]),  # the y span, and so its pad, overflows
    ([0.0, 1.0], [-1.7e308, 0.0]),  # the padded y span overflows
], ids=["subnormal-range", "overflowing-range", "overflowing-y-range", "overflowing-y-pad"])
def test_a_range_without_a_finite_tick_step_still_gets_a_chart(xs, ys):
    svg = output.line_chart("t", "x", "y", [output.Series("", xs, ys, "#000000")])
    assert svg.startswith("<svg") and svg.endswith("</svg>\n") and svg.count("<polyline") == 1
    assert "nan" not in svg
