"""Deterministic CSV, JSON, and SVG emission.

CSV and JSON carry the data at 12 significant digits; SVG is a convenience
rendering with no numeric authority.  Everything here is pure string
assembly so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

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

_SIG_DIGITS = 12

# Largest share jump that still links a rest point to one at the next sample.
_LINK_TOL = 0.06


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
    points: list[tuple[float, float]]
    color: str
    dash: str | None = None
    width: float = 1.6


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / target
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
        t += step
    return ticks


def _tick_label(t: float) -> str:
    return f"{t:.6g}"


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
        series.append(Series(label=label, points=seg["points"], color=style["color"],
                             dash=style["dash"], width=style["width"]))
    annotations = [
        (b.value, 0.5, f"pitchfork ({b.criticality})") for b in branch.bifurcations
    ]
    return line_chart(title, x_label, "resident share of region L", series,
                      annotations=annotations, y_range=(-0.02, 1.02))
