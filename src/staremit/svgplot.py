"""Dependency-free SVG line charts: one polyline per curve, axes, legend.

Deliberately minimal; figure output must be reproducible byte for byte,
so coordinates are formatted with fixed precision and nothing depends on
external plotting state.
"""

from __future__ import annotations

import numpy as np

from ._numtext import svg_points

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


def _escape(text) -> str:
    # what xml.sax.saxutils.escape does, without importing urllib.request
    # with it (40 ms and several MB of memory)
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _finite_range(arrays) -> tuple[float, float]:
    # min and max over the finite entries of all arrays, (0, 1) if none is;
    # an array's min and max are both finite exactly when all its entries are
    lo, hi = np.inf, -np.inf
    for a in arrays:
        v = np.asarray(a, dtype=float)
        a_lo, a_hi = v.min(initial=np.inf), v.max(initial=-np.inf)
        if not (np.isfinite(a_lo) and np.isfinite(a_hi)):
            v = v[np.isfinite(v)]
            a_lo, a_hi = v.min(initial=np.inf), v.max(initial=-np.inf)
        lo, hi = min(lo, a_lo), max(hi, a_hi)
    return (float(lo), float(hi)) if lo <= hi else (0.0, 1.0)


def render_line_chart(curves, title: str = "", width: int = 860, height: int = 520) -> str:
    """Render ``curves`` (sequence of ``(label, x, y)``) as an SVG string.

    Each curve is one polyline with one point per sample, written exactly
    as ``"%.2f,%.2f"`` of its pixel coordinates and joined by spaces. Every
    finite point maps into the plot box, so its coordinates are unsigned
    with at most four integer digits, the one layout the whole-array
    writer formats (``rint(100 v)`` and a digit table); a coordinate within
    1e-6 of a rounding tie is formatted by ``%`` itself, and a curve with
    a non-finite coordinate (which prints ``nan`` or ``inf``) goes through
    the per-point template, so the bytes never depend on which path ran.
    The axes span the finite coordinates of all curves, whatever their
    order; the y axis always covers [0, 1]. The axes are labelled
    ``t`` and ``P``; ``&``, ``<`` and ``>`` in the title and the curve
    labels are escaped.
    """
    if not curves:
        raise ValueError("need at least one curve")
    x_min, x_max = _finite_range(x for _, x, _ in curves)
    y_min, y_max = _finite_range(y for _, _, y in curves)
    y_min, y_max = min(0.0, y_min), max(1.0, y_max)
    if x_max == x_min:
        x_max = x_min + 1.0

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x):
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return _MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )

    n_ticks = 6
    for i in range(n_ticks):
        frac = i / (n_ticks - 1)
        xv = x_min + frac * (x_max - x_min)
        px = sx(xv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_MARGIN_TOP + plot_h)}" '
            f'x2="{_fmt(px)}" y2="{_fmt(_MARGIN_TOP + plot_h + 5)}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_MARGIN_TOP + plot_h + 19)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_tick_label(xv)}</text>"
        )
        yv = y_min + frac * (y_max - y_min)
        py = sy(yv)
        parts.append(
            f'<line x1="{_fmt(_MARGIN_LEFT - 5)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(py)}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 9)}" y="{_fmt(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{_tick_label(yv)}</text>"
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(height - 8)}" '
        'text-anchor="middle" font-family="sans-serif" font-size="13">t</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_fmt(_MARGIN_TOP + plot_h / 2)})">P</text>'
    )

    # the points go into the document as they are, not through an f-string
    pieces = ["\n".join(parts), "\n"]
    for k, (label, xs, ys) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        ly = _MARGIN_TOP + 16 + 16 * k
        lx = _MARGIN_LEFT + plot_w - 130
        pieces += [
            '<polyline points="',
            svg_points(sx(np.asarray(xs, dtype=float)), sy(np.asarray(ys, dtype=float))),
            f'" fill="none" stroke="{color}" stroke-width="1.3"/>\n',
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 24)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>\n',
            f'<text x="{_fmt(lx + 30)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>\n',
        ]
    pieces.append("</svg>\n")
    return "".join(pieces)
