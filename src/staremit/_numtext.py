"""Numbers as text: the CSV, JSON and SVG-point writers.

Every writer formats arrays, not single values, and produces exactly the
bytes of a per-value Python reference:

- CSV fields are ``"%.11e" % v``;
- JSON tables and the star model file are ``json.dumps(..., indent=2)``
  of their named columns as lists;
- SVG points are ``"%.2f,%.2f" % (x, y)``, joined by spaces.

The fixed-width writers scale each magnitude to an integer by powers of
ten, round it with ``rint`` and write its digits from tables of four
ASCII bytes per entry, read as one ``uint32`` each. Scaling rounds at
most three times (once when every power lies in [0, 22], where ``10**k``
is exact), so the integer is the correctly rounded one unless the scaled
value lies within a small margin of a rounding tie (1e-3 of a last digit
for CSV, 1e-6 for SVG). Those elements, exact binary ties among them,
are formatted by Python's ``%`` and their digits taken from that. A
value whose rounding carries into the next decade (``9.99999999999995e5``)
moves to the next exponent. A CSV table with a set sign bit, a non-finite
value or a three-digit exponent, and an SVG curve with a coordinate
outside the one point layout below, do not fit the fixed width and are
written by the per-value reference instead.

Streaming. Each writer hands its bytes to a binary sink (an open file, a
sink that passes them on to stdout, or an ``io.BytesIO`` behind
``as_text``) one block of up to ``_BLOCK`` rows or values at a time, so
no writer holds a whole output, and each tests its whole input before it
writes a byte: the sink need not be seekable. ``csv_table`` and
``svgplot.render_line_chart`` are joins over the same writers.

Block layout. A CSV table is its header, then one reused ``uint8`` block
buffer of ``(rows, columns, 18)``, filled and written 4096 rows at a time.
Each field is the 12 mantissa digits and ``e±dd`` copied as one 16-byte
block of four words (three 4-digit groups and an exponent word from a
199-entry table) one byte to the right, after which the first digit moves
left and ``.`` takes its place, then the separator. That is the only
layout the program's tables take: their times run from 0 and their
probabilities lie in [0, 1], so every field is unsigned. ``_e_fits``
tests each column before the header is written; a table with a value
that does not fit (a set sign bit, ``-0.0`` included, inf, NaN or a
three-digit exponent) goes whole to the per-value reference, so no table
mixes the two. A JSON table or model file is ``json.dumps``'s framing
around one ``float.__repr__`` join per block of values: with ``indent``,
``json`` falls back to its pure-Python encoder, which makes a Python
object per value and per separator, where the join makes one string per
block. Input with a non-finite value goes whole to ``json.dumps``.

An SVG point is a row of four words, two per coordinate: the integer
part right-aligned in one word with NUL in place of leading zeros, then
``.dd`` and the separator from a 100-entry table. That is the only layout
a chart produces: ``render_line_chart`` maps every finite point into its
plot box, so a coordinate is unsigned with at most four integer digits
while the chart is under 10000 px. A curve with any other coordinate (a
set sign bit, which ``-0.0`` prints as ``-0.00``, NaN, inf, or 9999.995
and up) goes whole to the per-point reference; the check runs over the
whole curve before any of it is written. Each block of rows is one
contiguous buffer, and one ``bytes.translate`` pass drops its NUL bytes.
"""

from __future__ import annotations

import io
import json

import numpy as np


def _words(chunks) -> np.ndarray:
    # byte strings of four bytes each, read as one native uint32 apiece
    return np.frombuffer(b"".join(chunks), dtype=np.uint32)


# ASCII digits of 0..9999, four bytes per entry
_QUADS = np.empty((10000, 4), dtype=np.uint8)
_K = np.arange(10000)
for _j in range(4):
    _QUADS[:, _j] = 48 + _K // 10 ** (3 - _j) % 10
_DIGITS = _QUADS.view(np.uint32).ravel().copy()
# the same right-aligned with NUL for each leading zero ("\0\0\0" + "0" for 0)
_QUADS[:, :3][_K[:, None] < 10 ** np.arange(3, 0, -1)] = 0
_BLANKED = _QUADS.view(np.uint32).ravel()
del _QUADS, _K, _j

# "e-99" .. "e+99", at index e + 99
_EXPONENTS = _words(b"e%+03d" % e for e in range(-99, 100))

# ".dd" and the separator that follows an SVG coordinate, at index dd
_COMMA_FRACTIONS = _words(b".%02d," % f for f in range(100))
_SPACE_FRACTIONS = _words(b".%02d " % f for f in range(100))

# 10**j, exact up to j = 22 and correctly rounded beyond
_POW10 = np.array([float(10**j) for j in range(90)])

# distance from a rounding tie, in units of the last digit, below which
# the scaled value is too close to call and Python formats the element
_CSV_TIE = 1e-3
_SVG_TIE = 1e-6

_DOT = ord(".")

# rows formatted and written at a time: a block's temporaries and its
# buffer stay in cache, and below the sizes at which the allocator maps
# fresh pages from the system
_BLOCK = 1 << 12

CSV_TEMPLATE = "%.11e"
SVG_FIELD = "%.2f"

# The widest text a field takes as the output budget counts it, separator
# included: a CSV field "-d.ddddddddddde-dd,", a JSON field of four spaces,
# a float repr of up to 24 characters and ",\n", and an SVG point
# "-dddddd.dd,-dddddd.dd " (a chart's own points take at most 16 bytes).
CSV_FIELD_BYTES = 19
JSON_FIELD_BYTES = 30
SVG_POINT_BYTES = 22


def _scale(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    # a * 10**k in at most three roundings: 10**|k| as two table factors,
    # multiplied for k >= 0 and divided for k < 0
    kk = np.abs(k)
    k1 = np.minimum(kk, 22)
    p1, p2 = _POW10[k1], _POW10[kk - k1]
    return np.where(k >= 0, a * p1 * p2, a / p1 / p2)


def _near_ties(x: np.ndarray, rounded: np.ndarray, tie: float) -> np.ndarray:
    # indices whose scaled value lies within `tie` of a rounding tie; both
    # differences are exact, so this is |frac(x) - 1/2| < tie
    return np.flatnonzero(np.abs(x - rounded) > 0.5 - tie)


def _e_fits(v: np.ndarray) -> bool:
    # whether every "%.11e" % v is an unsigned field with a two-digit
    # exponent: not for a set sign bit ("-0.0" included; it makes the int64
    # view negative), inf, NaN, 1e99 and up, or a nonzero value below 1e-99
    return (v.view(np.int64).min() >= 0 and v.max() < 1e99
            and np.count_nonzero(v < 1e-99) == np.count_nonzero(v == 0))


def _e_words(v: np.ndarray, out: np.ndarray) -> None:
    # "%.11e" % v without its dot, for values that pass _e_fits, as the
    # words of the three 4-digit groups and "e±dd" in each row of `out`
    # (n x 4 uint32)
    zero = v == 0
    safe = np.where(zero, 1.0, v)  # zeros are scaled as 1.0, mended below
    e = np.floor(np.log10(safe)).astype(np.int64)
    k = 11 - e
    x = safe * _POW10[k] if k.min() >= 0 and k.max() <= 22 else _scale(safe, k)
    # Next to a power of ten log10 may be one off, but such values round
    # to that power at 12 digits: x is then within rounding of 1e11, or of
    # 1e12, which carries into the next exponent like any other.
    m = np.rint(x)
    ties = _near_ties(x, m, _CSV_TIE)
    if m.max() >= 1e12:
        carry = m == 1e12
        m[carry] = 1e11
        e += carry
    if ties.size:
        texts = [CSV_TEMPLATE % f for f in v[ties].tolist()]
        m[ties] = [int(t[0] + t[2:13]) for t in texts]
        e[ties] = [int(t[14:]) for t in texts]
    if not (m.min() >= 1e11 and m.max() < 1e12 and e.min() >= -99 and e.max() <= 99):
        # the fit test passed, and earlier blocks may be written already
        raise RuntimeError("a CSV field left its layout after the fit test")
    mi = m.astype(np.int64)
    q0 = mi // 10**8
    rest = mi - q0 * 10**8
    q1 = rest // 10**4
    q2 = rest - q1 * 10**4
    for j, q in enumerate((q0, q1, q2)):
        np.take(_DIGITS, q, out=out[:, j], mode="wrap")
    np.take(_EXPONENTS, e + 99, out=out[:, 3], mode="wrap")
    if zero.any():
        out[zero, 0] = _DIGITS[0]  # "0.000" in place of "1.000"


def as_text(write, *args) -> str:
    """What ``write(sink, *args)`` writes to a binary sink, as ``str``."""
    sink = io.BytesIO()
    write(sink, *args)
    return sink.getvalue().decode()


def write_csv(sink, ts, columns: dict) -> None:
    """Write :func:`csv_table` ``(ts, columns)`` to the binary ``sink``.

    Every column is tested against the field layout before the header is
    written; rows then go out a block of up to ``_BLOCK`` at a time from
    one reused byte buffer.
    """
    cols = [np.asarray(c, dtype=float).ravel() for c in (ts, *columns.values())]
    n = min(c.size for c in cols)  # rows stop at the shortest column, as zip does
    cols = [c[:n] for c in cols]
    if n and not all(map(_e_fits, cols)):
        sink.write(csv_table_reference(ts, columns).encode())
        return
    sink.write(("t," + ",".join(columns) + "\n").encode())
    buf = np.empty((min(n, _BLOCK), len(cols), 18), dtype=np.uint8)
    buf[:, :, 17] = np.frombuffer(b"," * (len(cols) - 1) + b"\n", dtype=np.uint8)
    words = np.empty((buf.shape[0], 4), dtype=np.uint32)
    for start in range(0, n, _BLOCK):
        rows = buf[: min(_BLOCK, n - start)]
        block = words[: rows.shape[0]]
        for j, c in enumerate(cols):
            _e_words(c[start : start + _BLOCK], block)
            # one 16-byte item per row copies faster than 16 byte columns
            field = rows[:, j]
            field[:, 1:17].view("V16")[:, 0] = block.view("V16")[:, 0]
            field[:, 0] = field[:, 1]
            field[:, 1] = _DOT
        sink.write(rows)


def csv_table(ts, columns: dict) -> str:
    """Render ``t`` and named columns as CSV: header ``t,<names>``, then one
    row of ``"%.11e"`` fields per sample, LF line endings.

    The output is byte for byte that of :func:`csv_table_reference`, and
    is what :func:`write_csv` writes. Each column is formatted a block of
    rows at a time into its fields, every field ``d.ddddddddddde±dd`` and
    its separator: the values are scaled to 12-digit integers, and an
    element within 1e-3 of a last digit of a rounding tie is formatted by
    ``%`` instead (see the module docstring). A table with a value that
    does not fit that field (a set sign bit, ``-0.0`` included, inf, NaN,
    1e99 and up, or a nonzero value below 1e-99) is written by the
    reference template.
    """
    return as_text(write_csv, ts, columns)


def csv_table_reference(ts, columns: dict) -> str:
    """:func:`csv_table` one row at a time through the ``%`` template."""
    fmt = ",".join([CSV_TEMPLATE] * (len(columns) + 1))
    cols = [np.asarray(c, dtype=float).ravel().tolist() for c in (ts, *columns.values())]
    rows = [fmt % row for row in zip(*cols)]
    return "\n".join(["t," + ",".join(columns)] + rows) + "\n"


def _f_fits(v: np.ndarray) -> bool:
    # whether every "%.2f" % v is one word of integer part and ".dd": not
    # for a set sign bit ("-0.00" included), NaN, inf or 9999.995 and up
    return not np.signbit(v).any() and v.max() < 9999.995


def _f_words(v: np.ndarray, fractions: np.ndarray, out: np.ndarray) -> None:
    # "%.2f" % v and its separator as the two words of each row of `out`
    y = v * 100
    c = np.rint(y)
    ties = _near_ties(y, c, _SVG_TIE)
    if ties.size:
        c[ties] = [int((SVG_FIELD % f).replace(".", "")) for f in v[ties].tolist()]
    cents = c.astype(np.int64)
    whole = cents // 100
    np.take(_BLANKED, whole, out=out[:, 0], mode="wrap")
    np.take(fractions, cents - whole * 100, out=out[:, 1], mode="wrap")


def write_svg_points(sink, x, y) -> None:
    """Write ``" ".join("%.2f,%.2f" % p for p in zip(x, y))`` to the binary
    ``sink``, byte for byte, a block of up to ``_BLOCK`` points at a time.

    Each coordinate is ``rint(100 v)`` written from the word tables, the NUL
    bytes of blank integer digits dropped in one pass per block of rows; a
    value within 1e-6 of a rounding tie is formatted by ``%``. A coordinate
    with its sign bit set, not finite, or from 9999.995 up sends the whole
    curve to :func:`svg_points_reference`; that test covers the whole curve
    before any of it is written.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = min(x.size, y.size)  # points stop at the shorter array, as zip does
    x, y = x[:n], y[:n]
    if n == 0:
        return
    if not (_f_fits(x) and _f_fits(y)):
        sink.write(svg_points_reference(x, y).encode())
        return
    words = np.empty((min(n, _BLOCK), 4), dtype=np.uint32)
    for start in range(0, n, _BLOCK):
        block = words[: min(_BLOCK, n - start)]
        _f_words(x[start : start + _BLOCK], _COMMA_FRACTIONS, block[:, :2])
        _f_words(y[start : start + _BLOCK], _SPACE_FRACTIONS, block[:, 2:])
        points = block.view(np.uint8).ravel()
        if start + _BLOCK >= n:
            points = points[:-1]  # no space after the last point
        # drop every NUL byte in one pass
        sink.write(points.tobytes().translate(None, b"\0"))


def svg_points_reference(x, y) -> str:
    """``" ".join("%.2f,%.2f" % p for p in zip(x, y))``, one point at a time."""
    xs = np.asarray(x, dtype=float).ravel().tolist()
    ys = np.asarray(y, dtype=float).ravel().tolist()
    return " ".join(map(f"{SVG_FIELD},{SVG_FIELD}".__mod__, zip(xs, ys)))


def write_json(sink, columns: dict) -> None:
    """Write ``json.dumps(columns, indent=2) + "\\n"`` of named float lists to
    the binary ``sink``, byte for byte.

    A table is ``{"t": ts, **columns}``, a star model ``eps``, ``alpha_re``
    and ``alpha_im``. Inside the same two-space framing, each column goes
    out as one join of ``float.__repr__`` (what ``json`` writes for a finite
    float) per block of up to ``_BLOCK`` values. Input with a non-finite
    value, found before anything is written, goes whole through
    ``json.dumps`` itself.
    """
    arrays = {name: np.asarray(values, dtype=float) for name, values in columns.items()}
    if not all(np.isfinite(v).all() for v in arrays.values()):
        payload = {name: v.tolist() for name, v in arrays.items()}
        sink.write((json.dumps(payload, indent=2) + "\n").encode())
        return
    for i, (name, v) in enumerate(arrays.items()):
        sink.write(f"{',' if i else '{'}\n  {json.dumps(name)}: [".encode())
        for start in range(0, v.size, _BLOCK):
            text = ",\n    ".join(map(float.__repr__, v[start : start + _BLOCK].tolist()))
            sink.write(f"{',' if start else ''}\n    {text}".encode())
        sink.write(b"\n  ]" if v.size else b"]")
    sink.write(b"\n}\n" if arrays else b"{}\n")
