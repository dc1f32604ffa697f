"""Dependency-free SVG line charts: one polyline per curve, axes, legend.

Deliberately minimal; figure output must be reproducible byte for byte,
so coordinates are formatted with fixed precision and nothing depends on
external plotting state. :func:`write_line_chart` writes a chart to a
binary sink piece by piece, its points a block at a time;
:func:`render_line_chart` is the same chart as one string.
"""

from __future__ import annotations

import numpy as np

from ._numtext import as_text, write_svg_points

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
    with at most four integer digits, the one layout the block writer
    formats (``rint(100 v)`` and a digit table); a coordinate within
    1e-6 of a rounding tie is formatted by ``%`` itself, and a curve with
    a non-finite coordinate (which prints ``nan`` or ``inf``) goes through
    the per-point template, so the bytes never depend on which path ran.
    The axes span the finite coordinates of all curves, whatever their
    order; the y axis always covers [0, 1]. The axes are labelled
    ``t`` and ``P``; ``&``, ``<`` and ``>`` in the title and the curve
    labels are escaped. The string is what :func:`write_line_chart` writes.
    """
    return as_text(write_line_chart, curves, title, width, height)


def write_line_chart(sink, curves, title: str = "", width: int = 860, height: int = 520) -> None:
    """Write :func:`render_line_chart` ``(curves, title, width, height)`` to
    the binary ``sink``: the frame and each curve's pieces as they are made,
    and its points a block at a time from its pixel coordinates."""
    if not curves:
        raise ValueError("need at least one curve")
    x_min, x_max = _finite_range(x for _, x, _ in curves)
    y_min, y_max = _finite_range(y for _, _, y in curves)
    y_min, y_max = min(0.0, y_min), max(1.0, y_max)
    if x_max == x_min:
        x_max = x_min + 1.0

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    # margin + ((v - origin) / span) * plot, in place on the one new array
    # (or scalar) that the subtraction makes
    def sx(x):
        px = np.subtract(np.asarray(x, dtype=float), x_min)
        px /= x_max - x_min
        px *= plot_w
        px += _MARGIN_LEFT
        return px

    def sy(y):
        py = np.subtract(y_max, np.asarray(y, dtype=float))
        py /= y_max - y_min
        py *= plot_h
        py += _MARGIN_TOP
        return py

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
    sink.write(("\n".join(parts) + "\n").encode())

    for k, (label, xs, ys) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        ly = _MARGIN_TOP + 16 + 16 * k
        lx = _MARGIN_LEFT + plot_w - 130
        sink.write(b'<polyline points="')
        write_svg_points(sink, sx(xs), sy(ys))
        sink.write((
            f'" fill="none" stroke="{color}" stroke-width="1.3"/>\n'
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 24)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{_fmt(lx + 30)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>\n'
        ).encode())
    sink.write(b"</svg>\n")
