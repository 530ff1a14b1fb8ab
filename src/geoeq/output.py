"""Deterministic CSV, JSON, and SVG emission.

CSV cells are ``%.12g`` floats (-0.0 written ``0``, non-finite values
``nan``, ``inf``, ``-inf``), formatted a float64 column at a time; other
columns go cell by cell through :func:`format_value`.  JSON floats are
Python's shortest round-trip repr.  SVG is a rendering with no numeric
authority: a chart scales all its series as one array, writes coordinates
as ``%.2f`` and draws each run of two or more finite, unclipped points as
one polyline.  Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .equilibria import Branch

__all__ = [
    "format_value",
    "write_csv",
    "write_json",
    "Series",
    "line_chart",
    "branch_chart",
    "branch_segments",
]

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

# Largest share jump that still links a rest point to one at the next sample.
_LINK_TOL = 0.06
# A float CSV cell, 12 significant digits; "%.12g" % x matches f"{x:.12g}".
_FLOAT_CELL = "%.12g"
# The largest double: a padded y range stops there.
_FLOAT_MAX = float(np.finfo(float).max)


def format_value(value) -> str:
    """Render one CSV cell: floats at 12 significant digits, rest as-is."""
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return _FLOAT_CELL % (value + 0.0)  # + 0.0 folds -0.0 into "0"
    return str(value)


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write a table given as one sequence of cells per header entry (or none)."""
    cells, fields = [], []
    for col in columns:
        floats = isinstance(col, np.ndarray) and col.dtype == np.float64
        if isinstance(col, np.ndarray):  # cells as Python scalars, -0.0 folded
            col = (col + 0.0 if floats else col).tolist()
        cells.append(col if floats else [format_value(v) for v in col])
        fields.append(_FLOAT_CELL if floats else "%s")
    row = ",".join(fields)
    lines = [",".join(header), *(row % r for r in zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _json_default(obj):
    if hasattr(obj, "__dataclass_fields__"):
        return {name: getattr(obj, name) for name in obj.__dataclass_fields__}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path: Path, document: dict) -> None:
    text = json.dumps(document, indent=2, default=_json_default, allow_nan=True)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# SVG


@dataclass
class Series:
    label: str
    x: object  # sequence of floats, the same length as y
    y: object
    color: str
    dash: str | None = None
    width: float = 1.6


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    if not 0.0 < raw < math.inf:  # a step that underflows to 0 or overflows
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # a range narrower than the spacing of floats near it
            break
        t += step
    return ticks


def _tick_label(t: float) -> str:
    return f"{t:.6g}"


def _half(lo: float, hi: float) -> float:
    """0.5 where the span hi - lo overflows, so an axis is scaled half over half;
    else 1, since half a subnormal span can round to 0."""
    return 0.5 if math.isinf(hi - lo) else 1.0


def line_chart(title: str, x_label: str, y_label: str, series: list[Series],
               *, width: int = 760, height: int = 500,
               annotations: list[tuple[float, float, str]] | None = None,
               y_range: tuple[float, float] | None = None) -> str:
    """Assemble a standalone SVG line chart as a string."""
    gap = [math.nan]  # before, between and after the series, so no run spans two
    xs, ys = (np.concatenate([gap, *(c for s in series for c in (getattr(s, f), gap))])
              for f in ("x", "y"))
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.any():
        raise ValueError("nothing to plot: no finite points in any series")
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    if y_range is not None:
        y_lo, y_hi = y_range
    else:
        y_lo, y_hi = float(ys[finite].min()), float(ys[finite].max())
        half = _half(y_lo, y_hi)
        pad = 0.05 * (half * y_hi - half * y_lo or 1.0) / half
        y_lo, y_hi = max(y_lo - pad, -_FLOAT_MAX), min(y_hi + pad, _FLOAT_MAX)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    m_left, m_right, m_top, m_bottom = 62, 16, 34, 46
    plot_w = width - m_left - m_right
    plot_h = height - m_top - m_bottom

    # Scale a float (ticks, annotations) or a whole array (every series point).
    half_x, half_y = _half(x_lo, x_hi), _half(y_lo, y_hi)

    def sx(x):
        return m_left + (half_x * x - half_x * x_lo) / (half_x * x_hi - half_x * x_lo) * plot_w

    def sy(y):
        return m_top + (half_y * y_hi - half_y * y) / (half_y * y_hi - half_y * y_lo) * plot_h

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

    # Runs of drawable points.  The series are padded by undrawn points, so
    # the changes of `drawn` alternate: each run's start, then its end.
    clip_lo, clip_hi = y_lo - 0.5 * (y_hi - y_lo), y_hi + 0.5 * (y_hi - y_lo)
    drawn = finite & (clip_lo <= ys) & (ys <= clip_hi)
    edges = (np.flatnonzero(drawn[1:] != drawn[:-1]) + 1).tolist()
    with np.errstate(all="ignore"):  # NaN pads, and overflow of huge finite values
        coords = np.array([sx(xs), sy(ys)]).T.ravel().tolist()
    ends_of_series = list(itertools.accumulate(len(s.x) + 1 for s in series))
    for lo, hi in zip(edges[::2], edges[1::2]):
        if hi - lo < 2:
            continue
        s = series[bisect.bisect(ends_of_series, lo)]
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        points = " ".join(["%.2f,%.2f"] * (hi - lo)) % tuple(coords[2 * lo:2 * hi])
        parts.append(f'<polyline points="{points}" fill="none" '
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


def branch_segments(branch: Branch) -> list[dict]:
    """Greedy nearest-neighbor linking of equilibria across sweep samples.

    Returns segments of constant stability, each a dict with keys
    "stability" and "points" (list of (parameter value, h) pairs), ready
    for styling: solid for stable, dashed for unstable.
    """
    segments: list[dict] = []
    open_segs: list[dict] = []
    for value, eqs in branch.samples:
        used = [False] * len(eqs)
        still_open: list[dict] = []
        for seg in open_segs:
            last_h = seg["points"][-1][1]
            best_j, best_d = -1, _LINK_TOL
            for j, eq in enumerate(eqs):
                if used[j] or eq.stability != seg["stability"]:
                    continue
                d = abs(eq.h_star - last_h)
                if d < best_d:
                    best_j, best_d = j, d
            if best_j >= 0:
                used[best_j] = True
                seg["points"].append((value, eqs[best_j].h_star))
                still_open.append(seg)
            else:
                segments.append(seg)
        for j, eq in enumerate(eqs):
            if not used[j]:
                still_open.append({"stability": eq.stability,
                                   "points": [(value, eq.h_star)]})
        open_segs = still_open
    segments.extend(open_segs)
    segments.sort(key=lambda s: (s["points"][0][0], s["points"][0][1]))
    return segments


_STYLE = {
    "stable": {"color": "#1f77b4", "dash": None, "width": 2.0},
    "unstable": {"color": "#d62728", "dash": "6,4", "width": 1.6},
    "marginal": {"color": "#9467bd", "dash": "2,3", "width": 1.6},
}


def branch_chart(branch: Branch, title: str, x_label: str) -> str:
    """SVG bifurcation diagram: h of each rest point against the parameter."""
    series = []
    seen: set[str] = set()
    for seg in branch_segments(branch):
        style = _STYLE[seg["stability"]]
        label = seg["stability"] if seg["stability"] not in seen else ""
        seen.add(seg["stability"])
        x, y = zip(*seg["points"])
        series.append(Series(label=label, x=x, y=y, color=style["color"],
                             dash=style["dash"], width=style["width"]))
    annotations = [
        (b.value, 0.5, f"pitchfork ({b.criticality})") for b in branch.bifurcations
    ]
    return line_chart(title, x_label, "resident share of region L", series,
                      annotations=annotations, y_range=(-0.02, 1.02))
