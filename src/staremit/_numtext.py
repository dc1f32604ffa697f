"""Numbers as text: the CSV, JSON and SVG-point writers.

Every writer formats whole arrays at once and produces exactly the bytes
of a per-value Python reference:

- CSV fields are ``"%.11e" % v``;
- JSON tables are ``json.dumps(..., indent=2)`` of the columns as lists;
- SVG points are ``"%.2f,%.2f" % (x, y)``, joined by spaces.

The fixed-width writers scale each magnitude to an integer by powers of
ten, round it with ``rint`` and write its digits from a table of four
ASCII digits per entry. Scaling rounds at most three times, so the
integer is the correctly rounded one unless the scaled value lies within
a small margin of a rounding tie (1e-3 of a last digit for CSV, 1e-6 for
SVG). Those elements, exact binary ties among them, are formatted by
Python's ``%`` and their digits taken from that. A value whose rounding
carries into the next decade (``9.99999999999995e5``) moves to the next
exponent. A table with a non-finite value, or one that needs a
three-digit exponent or more than six integer digits, does not fit the
fixed width and is written by the per-value reference instead.
"""

from __future__ import annotations

import json

import numpy as np

# ASCII digits of 0..9999, four bytes per entry, read as one uint32 each
_DIGITS = np.empty((10000, 4), dtype=np.uint8)
for _j in range(4):
    _DIGITS[:, _j] = 48 + np.arange(10000) // 10 ** (3 - _j) % 10
_DIGITS = _DIGITS.view(np.uint32).ravel()

# 10**j, exact up to j = 22 and correctly rounded beyond
_POW10 = np.array([float(10**j) for j in range(90)])

# distance from a rounding tie, in units of the last digit, below which
# the scaled value is too close to call and Python formats the element
_CSV_TIE = 1e-3
_SVG_TIE = 1e-6

_MINUS, _PLUS, _DOT, _E = b"-+.e"

CSV_TEMPLATE = "%.11e"
SVG_FIELD = "%.2f"


def _quads(values) -> np.ndarray:
    # the four ASCII digits of each integer in [0, 9999], one row each
    return _DIGITS[values].view(np.uint8).reshape(-1, 4)


def _scale(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    # a * 10**k in at most three roundings: 10**|k| as two table factors,
    # multiplied for k >= 0 and divided for k < 0
    kk = np.abs(k)
    k1 = np.minimum(kk, 22)
    p1, p2 = _POW10[k1], _POW10[kk - k1]
    return np.where(k >= 0, a * p1 * p2, a / p1 / p2)


def _signed(v: np.ndarray, width: int):
    # an n x (width + 1) byte matrix whose first column is "-", or n x
    # width when no value of v is negative; the sign slots to keep (None
    # when all are); and the view that takes the unsigned text
    sign = np.signbit(v)
    lead = int(sign.any())
    out = np.empty((v.size, lead + width), dtype=np.uint8)
    keep = None
    if lead:
        out[:, 0] = _MINUS
        if not sign.all():
            keep = np.ones(out.shape, dtype=bool)
            keep[:, 0] = sign
    return out, keep, out[:, lead:]


def _e_field(v: np.ndarray):
    # "%.11e" % v as (bytes, keep) for _join, or None if v does not fit
    a = np.abs(v)
    safe = np.where(a > 0, a, 1.0)
    if not (a.max() < 1e99 and safe.min() >= 1e-99):
        return None  # inf, NaN or a three-digit exponent
    e = np.floor(np.log10(safe)).astype(np.int64)
    x = _scale(a, 11 - e)
    # Next to a power of ten log10 may be one off, but such values round
    # to that power at 12 digits: x is then within rounding of 1e11, or of
    # 1e12, which carries into the next exponent like any other.
    m = np.rint(x)
    carry = m == 1e12
    m[carry] = 1e11
    e[carry] += 1
    for i in np.flatnonzero(np.abs(x - np.floor(x) - 0.5) < _CSV_TIE):
        text = CSV_TEMPLATE % a[i]
        m[i], e[i] = int(text[0] + text[2:13]), int(text[14:])
    if np.abs(e).max() > 99 or not np.all((m >= 1e11) & (m < 1e12) | (a == 0)):
        return None
    mi = m.astype(np.int64)
    out, keep, body = _signed(v, 17)
    head = _quads(mi // 10**8)
    body[:, 0] = head[:, 0]
    body[:, 1] = _DOT
    body[:, 2:5] = head[:, 1:]
    body[:, 5:9] = _quads(mi // 10**4 % 10**4)
    body[:, 9:13] = _quads(mi % 10**4)
    body[:, 13] = _E
    body[:, 14] = np.where(e < 0, _MINUS, _PLUS)
    body[:, 15:] = _quads(np.abs(e))[:, 2:]
    return out, keep


def _f_field(v: np.ndarray):
    # "%.2f" % v as (bytes, keep) for _join, or None if v does not fit
    a = np.abs(v)
    if not a.max() < 999999:
        return None  # inf, NaN or more than six integer digits
    y = a * 100
    n = np.rint(y)
    for i in np.flatnonzero(np.abs(y - np.floor(y) - 0.5) < _SVG_TIE):
        n[i] = int((SVG_FIELD % a[i]).replace(".", ""))
    ni = n.astype(np.int64)
    digits = np.concatenate([_quads(ni // 10**4), _quads(ni % 10**4)], axis=1)
    width = len(str(ni.max() // 100))  # integer digits of the largest value
    out, keep, body = _signed(v, width + 3)
    body[:, :width] = digits[:, 6 - width : 6]
    body[:, width] = _DOT
    body[:, width + 1 :] = digits[:, 6:]
    if width > 1 and ni.min() < 10 ** (width + 1):  # some have fewer digits
        if keep is None:
            keep = np.ones(out.shape, dtype=bool)
        lead = out.shape[1] - body.shape[1]
        # slot j holds the 10**(width - 1 - j) digit of the integer part
        for j in range(width - 1):
            keep[:, lead + j] = ni >= 10 ** (width + 1 - j)
    return out, keep


def _join(fields, seps: bytes) -> str:
    # the rows of (bytes, keep) fields, each followed by its separator
    # byte, with the bytes that keep drops left out
    n = fields[0][0].shape[0]
    buf = np.concatenate(
        [part for (field, _), sep in zip(fields, seps)
         for part in (field, np.full((n, 1), sep, dtype=np.uint8))],
        axis=1,
    )
    if all(keep is None for _, keep in fields):
        return buf.tobytes().decode("ascii")
    keep = np.concatenate(
        [part for field, keep in fields
         for part in (np.ones(field.shape, dtype=bool) if keep is None else keep,
                      np.ones((n, 1), dtype=bool))],
        axis=1,
    )
    return buf[keep].tobytes().decode("ascii")


def csv_table(ts, columns: dict) -> str:
    """Render ``t`` and named columns as CSV: header ``t,<names>``, then one
    row of ``"%.11e"`` fields per sample, LF line endings.

    The output is byte for byte that of :func:`csv_table_reference`. Each
    column is formatted as a whole array: its magnitudes are scaled to
    12-digit integers, and an element within 1e-3 of a last digit of a
    rounding tie is formatted by ``%`` instead (see the module
    docstring). A table with a value that does not fit
    ``d.ddddddddddde±dd`` (inf, NaN or a three-digit exponent) is written
    by the reference template.
    """
    cols = [np.asarray(c, dtype=float).ravel() for c in (ts, *columns.values())]
    header = "t," + ",".join(columns) + "\n"
    if cols[0].size == 0:
        return header
    fields = [_e_field(c) for c in cols]
    if any(f is None for f in fields):
        return csv_table_reference(ts, columns)
    return header + _join(fields, b"," * (len(cols) - 1) + b"\n")


def csv_table_reference(ts, columns: dict) -> str:
    """:func:`csv_table` one row at a time through the ``%`` template."""
    fmt = ",".join([CSV_TEMPLATE] * (len(columns) + 1))
    cols = [np.asarray(c, dtype=float).ravel().tolist() for c in (ts, *columns.values())]
    rows = [fmt % row for row in zip(*cols)]
    return "\n".join(["t," + ",".join(columns)] + rows) + "\n"


def svg_points(x, y) -> str:
    """``" ".join("%.2f,%.2f" % p for p in zip(x, y))``, byte for byte.

    Each coordinate is ``rint(100 |v|)`` written with the digit table,
    with leading blank integer slots and unused sign slots dropped by a
    mask; a value within 1e-6 of a rounding tie is formatted by ``%``
    instead. Coordinates that are not finite or need more than six
    integer digits send the whole curve to :func:`svg_points_reference`.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = min(x.size, y.size)  # points stop at the shorter array, as zip does
    x, y = x[:n], y[:n]
    if n == 0:
        return ""
    fields = [_f_field(x), _f_field(y)]
    if any(f is None for f in fields):
        return svg_points_reference(x, y)
    return _join(fields, b", ")[:-1]


def svg_points_reference(x, y) -> str:
    """:func:`svg_points` one point at a time through the ``%`` template."""
    xs = np.asarray(x, dtype=float).ravel().tolist()
    ys = np.asarray(y, dtype=float).ravel().tolist()
    return " ".join(map(f"{SVG_FIELD},{SVG_FIELD}".__mod__, zip(xs, ys)))


def json_table(ts, columns: dict) -> str:
    """``json.dumps({"t": ts, **columns}, indent=2) + "\\n"`` of float lists.

    Each column is one join of ``float.__repr__`` (what ``json`` writes
    for a finite float) inside the same two-space framing; a table with a
    non-finite value goes through ``json.dumps`` itself.
    """
    arrays = {"t": np.asarray(ts, dtype=float)}
    for name, values in columns.items():
        arrays[name] = np.asarray(values, dtype=float)
    payload = {name: v.tolist() for name, v in arrays.items()}
    if not all(np.isfinite(v).all() for v in arrays.values()):
        return json.dumps(payload, indent=2) + "\n"
    fields = [
        f"  {json.dumps(name)}: [\n    " + ",\n    ".join(map(float.__repr__, v)) + "\n  ]"
        if v else f"  {json.dumps(name)}: []"
        for name, v in payload.items()
    ]
    return "{\n" + ",\n".join(fields) + "\n}\n"
