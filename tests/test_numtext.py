"""The whole-array writers against their per-value ``%`` references."""

import json
import re
import xml.etree.ElementTree as ET
from functools import partial
from types import SimpleNamespace
from unittest import mock
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staremit import _numtext, svgplot
from staremit._numtext import (
    as_text,
    csv_table,
    csv_table_reference,
    svg_points_reference,
    write_csv,
    write_json,
    write_svg_points,
)

# one curve's points as text, as a chart's polyline holds them
svg_points = partial(as_text, write_svg_points)


_SIGN = st.sampled_from([1.0, -1.0])

# doubles over exponents -90..90 of either sign
_RANDOM = st.builds(
    lambda m, e, s: s * m * 10.0**e,
    st.floats(1.0, 10.0, exclude_max=True), st.integers(-90, 90), _SIGN,
)


def _exact_tie(o, p, s):
    # (2k+1) / 2**p with a 13-significant-digit decimal expansion ending in
    # 5, exactly halfway between two 12-digit values
    lo, hi = -(-10**12 // 5**p), 10**13 // 5**p
    return s * ((lo + o % (hi - lo - 1)) | 1) / 2**p


# the double nearest a 13-digit decimal ending in 5, i.e. within half an
# ulp of a tie, on either side of it
_NEAR_TIE = st.builds(
    lambda d, e, s: s * float(f"{d}5e{e}"),
    st.integers(10**11, 10**12 - 1), st.integers(-85, 85), _SIGN,
)
# powers of ten and their neighbours, where log10 may be one off
_POWER_OF_TEN = st.builds(
    lambda e, step, s: s * float(np.nextafter(10.0**e, step * np.inf) if step else 10.0**e),
    st.integers(-98, 98), st.sampled_from([-1, 0, 1]), _SIGN,
)
# 9.99999999999995eN and its neighbours: the rounding carries into N + 1
_CARRY = st.builds(
    lambda e, nudge, s: s * float(f"9.9999999999{nudge}e{e}"),
    st.integers(-97, 97), st.sampled_from(["95", "96", "949", "951", "99"]), _SIGN,
)
_ROUNDED = st.builds(
    lambda x, digits: round(x, digits),
    st.floats(-1e4, 1e4, allow_nan=False, allow_subnormal=False), st.sampled_from([10, 11, 12]),
)

_FITTING = st.one_of(
    _RANDOM,
    st.sampled_from([0.0, -0.0]),
    st.builds(_exact_tie, st.integers(0, 10**12), st.integers(1, 17), _SIGN),
    st.builds(lambda k: k / 8.0, st.integers(-10**6, 10**6)),
    _NEAR_TIE,
    _POWER_OF_TEN,
    _CARRY,
    _ROUNDED,
)
# the fitting values with the sign bit cleared, as the program's tables
# (times from 0, probabilities in [0, 1]) hold them
_UNSIGNED = _FITTING.map(abs)
# values that do not fit the fixed width: the whole table takes the template
_MISFITS = st.sampled_from(
    [5e-324, 2.2e-310, 1e-100, 9.999999999999999e99, 1e100, -3e250, np.inf, -np.inf, np.nan]
)
# a set sign bit does not fit either: -0.0 and negative values
_SIGNED = st.one_of(st.just(-0.0), _FITTING.map(lambda v: -abs(v)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(_UNSIGNED, min_size=k, max_size=40 * k))))
def test_csv_table_matches_template(case):
    k, values = case
    cols = np.array(values[: len(values) // k * k]).reshape(-1, k).T
    ts, named = cols[0], {f"c{i}": c for i, c in enumerate(cols[1:])}
    expected = csv_table_reference(ts, named)
    # values that fit the fixed width never take the template path
    with mock.patch.object(_numtext, "csv_table_reference", side_effect=AssertionError):
        assert csv_table(ts, named) == expected


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(_FITTING, min_size=1, max_size=30), _MISFITS, _SIGNED, st.integers(0, 29),
       st.sampled_from(["unsigned", "mixed", "negative"]))
def test_csv_table_falls_back_on_values_that_do_not_fit(values, misfit, signed, at, layout):
    # every table holds a value that does not fit: a misfit among unsigned
    # values, or a set sign bit in columns of mixed signs, beside an
    # all-negative column when the layout says so
    if layout == "unsigned":
        values, extra = [abs(v) for v in values], abs(misfit)
    else:
        extra = signed
    values.insert(at % (len(values) + 1), extra)
    col = np.array(values)
    named = {"P": col[::-1]}
    if layout == "negative":
        named["N"] = -np.abs(col)
    expected = csv_table_reference(col, named)
    with mock.patch.object(_numtext, "csv_table_reference", wraps=csv_table_reference) as reference:
        assert csv_table(col, named) == expected
    reference.assert_called_once_with(col, named)


def test_csv_table_fixed_cases():
    pw = 10.0 ** np.arange(-99, 99)
    for cols in (
        [pw, np.nextafter(pw, 0.0), -np.nextafter(pw, np.inf)],
        [np.arange(-4000, 4000) / 8.0, np.arange(8000) * 1e-12, np.zeros(8000)],
        [np.array([0.0, -0.0, 1.0]), np.array([-1.0, -2.0, -0.0]), np.array([1e-99, 9e98, 5.0])],
    ):
        named = {"a": cols[1], "b": cols[2]}
        assert csv_table(cols[0], named) == csv_table_reference(cols[0], named)
    assert csv_table(np.array([]), {"P": np.array([])}) == "t,P\n"
    # columns of different lengths stop at the shortest, as the template's zip does
    ragged = (np.arange(5.0), {"P": -np.arange(3.0), "Q": np.arange(4.0)})
    assert csv_table(*ragged) == csv_table_reference(*ragged)
    assert csv_table(np.arange(3.0), {"P": []}) == "t,P\n"
    assert csv_table([9.99999999999995e5], {"P": [0.5]}) == "t,P\n1.00000000000e+06,5.00000000000e-01\n"


@pytest.mark.parametrize("misfit", [1e120, 1e-120, np.inf, np.nan])
@pytest.mark.parametrize("row", [4096, 4097, 9000])
def test_csv_misfit_past_the_first_block_rewrites_the_file_as_the_reference(misfit, row, tmp_path):
    # the first block fits and the misfit sits in a later one: the fit test
    # finds it before the first byte, so a sink with no seek or truncate
    # holds exactly the reference's bytes after whatever preceded the table
    ts = np.linspace(0.0, 30.0, 9001)
    named = {"P": np.cos(ts) ** 2, "Q": np.sin(ts) ** 2}
    named["Q"][row] = misfit
    path = tmp_path / "table.csv"
    with open(path, "wb") as fh:
        fh.write(b"kept\n")
        with mock.patch.object(_numtext, "csv_table_reference",
                               wraps=csv_table_reference) as reference:
            write_csv(SimpleNamespace(write=fh.write), ts, named)
    reference.assert_called_once_with(ts, named)
    assert path.read_bytes() == b"kept\n" + csv_table_reference(ts, named).encode()
    assert csv_table(ts, named) == csv_table_reference(ts, named)


# the largest double the point layout takes; 9999.995 itself does not fit
_LAYOUT_EDGE = float(np.nextafter(9999.995, 0.0))

# coordinates a chart produces, unsigned with at most four integer digits:
# exact binary ties (k/8), n.xx5 decimals whose double sits on either side
# of the tie, and random values
_CHART_COORD = st.one_of(
    st.builds(lambda k: k / 8.0, st.integers(0, 8 * 9999)),
    st.builds(lambda k: float(f"{k // 100}.{k % 100:02d}5"), st.integers(0, 999998)),
    st.floats(0.0, 9999.99, allow_subnormal=False),
    st.sampled_from([0.0, 0.004999999, 0.5e-2, 9999.0, 9998.995, _LAYOUT_EDGE]),
)

# pixel-like coordinates of either sign and up to seven integer digits
_COORD = st.one_of(
    st.builds(lambda k: k / 8.0, st.integers(-8 * 10**5, 8 * 10**5)),
    st.builds(lambda k, s: s * float(f"{k // 100}.{k % 100:02d}5"), st.integers(0, 10**7), _SIGN),
    st.floats(-1e5, 1e5, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, -0.001, 0.004999999, 999998.995, 0.5e-2, 9999.995, 1e4]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_CHART_COORD, _CHART_COORD), min_size=1, max_size=60))
def test_svg_points_match_template(points):
    # inside the point layout the whole-array writer runs
    x, y = np.array(points).T
    expected = svg_points_reference(x, y)
    with mock.patch.object(_numtext, "svg_points_reference", side_effect=AssertionError):
        assert svg_points(x, y) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=60))
def test_svg_points_outside_the_layout_match_template(points):
    x, y = np.array(points).T
    assert svg_points(x, y) == svg_points_reference(x, y)


@pytest.mark.parametrize("misfit", [np.nan, np.inf, -np.inf, 1e6, -2.5e7, -0.0, 9999.995])
def test_svg_points_fall_back_on_values_that_do_not_fit(misfit):
    x = np.array([1.125, 2.005, misfit, 64.0])
    y = np.array([0.0, -0.0, 3.0, 474.375])
    assert svg_points(x, y) == svg_points_reference(x, y)
    assert svg_points(y, x) == svg_points_reference(y, x)


def test_svg_points_rounding_ties_and_empty():
    assert svg_points([0.005, 0.125, 0.375, -0.001], [1.005, 2.675, 64.0, 9.999]) == (
        "0.01,1.00 0.12,2.67 0.38,64.00 -0.00,10.00"
    )
    assert svg_points([], []) == ""
    # points stop at the shorter array, either way round
    assert svg_points(np.arange(3.0), np.arange(5.0)) == "0.00,0.00 1.00,1.00 2.00,2.00"
    assert svg_points(np.arange(5.0), np.arange(3.0)) == "0.00,0.00 1.00,1.00 2.00,2.00"


def _reference_chart(monkeypatch, curves, **kwargs):
    # the chart with every curve's points written by the per-point template
    def reference_points(sink, x, y):
        sink.write(svg_points_reference(x, y).encode())

    with monkeypatch.context() as m:
        m.setattr(svgplot, "write_svg_points", reference_points)
        return svgplot.render_line_chart(curves, **kwargs)


def test_render_line_chart_matches_per_point_reference(monkeypatch):
    # a 1024 x 512 plot over [0, 1024] x [0, 1] maps x to 64 + x and y to
    # 34 + 512 (1 - y) exactly, so eighths land on exact .xx5 ties
    k = np.arange(8193)
    x = k / 8.0
    ties = 1.0 - k % 4097 / 4096.0
    # pixel rows within a few ulps of n.xx5, on either side
    rows = np.array([float(f"{34 + j % 512}.{j % 100:02d}5") for j in k])
    near = 1.0 - (rows - 34.0) / 512.0
    curves = [("ties", x, ties), ("near ties", x, near), ("cos", x, np.cos(x) ** 2)]
    kwargs = dict(title="ties", width=1104, height=592)
    text = svgplot.render_line_chart(curves, **kwargs)
    assert text == _reference_chart(monkeypatch, curves, **kwargs)
    assert "64.12," in text and "64.38," in text  # half-even on exact ties
    # a curve with NaN values goes through the template and prints "nan"
    nan_curves = curves[:1] + [("nan", x[:5], np.array([0.5, np.nan, 0.25, np.nan, 1.0]))]
    text = svgplot.render_line_chart(nan_curves)
    assert text == _reference_chart(monkeypatch, nan_curves)
    assert ",nan " in text


def test_render_line_chart_axes_do_not_depend_on_curve_order_with_nan():
    x = np.linspace(0.0, 4.0, 5)
    neg = ("neg", x, np.array([0.5, -2.0, 0.25, 1.0, 0.0]))
    nan = ("nan", x, np.array([0.5, np.nan, 0.25, np.nan, 1.0]))

    def ticks(text):
        return re.findall(r'font-size="11">([^<]*)</text>', text)

    first, second = (ticks(svgplot.render_line_chart(c)) for c in ([neg, nan], [nan, neg]))
    assert first == second
    assert "-2" in first and "1" in first and "4" in first


@pytest.mark.parametrize("curves", [
    # negative values
    [("neg", np.linspace(-5.0, -1.0, 101), -np.cos(np.linspace(0.0, 9.0, 101)) ** 2)],
    # tiny and huge data whose span is still finite
    [("tiny", np.linspace(1e-300, 3e-300, 50), np.geomspace(1e-310, 1e-300, 50))],
    [("huge", np.linspace(-1e307, 1e307, 50), np.linspace(-8e307, 8e307, 50))],
    # constant curves, and two-sample curves sharing one x
    [("flat", np.full(7, 2.5), np.full(7, 0.5)), ("zero", np.arange(7.0), np.zeros(7))],
    [("two", np.array([0.0, 1.0]), np.array([1.0, 0.0])),
     ("pair", np.array([-3.0, 3.0]), np.array([-0.0, 0.0]))],
])
def test_render_line_chart_finite_data_never_reaches_the_reference(curves, monkeypatch):
    expected = _reference_chart(monkeypatch, curves)
    with mock.patch.object(_numtext, "svg_points_reference", side_effect=AssertionError):
        assert svgplot.render_line_chart(curves) == expected


def test_render_line_chart_escapes_text():
    x = np.linspace(0.0, 1.0, 5)
    text = svgplot.render_line_chart([("a<b & c", x, x), ("d>e", x, 1 - x)], title="<P> & <Q>")
    texts = [e.text for e in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}text")]
    assert {"a<b & c", "d>e", "<P> & <Q>", "t", "P"} <= set(texts)
    for s in ("a<b & c", "&amp; <<>>", "plain"):
        assert svgplot._escape(s) == escape(s)


@pytest.mark.parametrize("samples", [0, 2, 4095, 4096, 4097, 8193, 10_000])
def test_json_table_matches_json_dumps(samples):
    rng = np.random.default_rng(samples)
    ts = np.linspace(0.0, 30.0, samples)
    columns = {"P": rng.random(samples), "P_analytic": np.cos(ts) ** 2}
    if samples:
        columns["P"][:5] = [-0.0, 5.0, 1e-300, 1e300, 0.1][:samples]
    expected = json.dumps(
        {"t": ts.tolist(), **{k: v.tolist() for k, v in columns.items()}}, indent=2
    ) + "\n"
    assert as_text(write_json, {"t": ts, **columns}) == expected


def test_json_named_columns_match_json_dumps():
    # the model file's columns: negative values, exponent notation, -0.0, an
    # empty column, and no columns at all
    columns = {"eps": [-3.5, 1e17, -2.5e-320, 0.0, 1e16, 9.999999999999999e15],
               "alpha_re": [0.1, -0.0], "alpha_im": []}
    assert as_text(write_json, columns) == json.dumps(columns, indent=2) + "\n"
    assert as_text(write_json, {}) == json.dumps({}, indent=2) + "\n"


def test_json_table_non_finite_matches_json_dumps():
    # a non-finite value, even past the first block, is found before any
    # byte is written, and the table goes whole to json.dumps
    for samples, row in ((2, 0), (9000, 8193)):
        ts = np.linspace(0.0, 30.0, samples)
        p = np.cos(ts) ** 2
        p[row], p[-1] = np.nan, np.inf
        written = []
        write_json(SimpleNamespace(write=written.append), {"t": ts, "P": p})
        expected = json.dumps({"t": ts.tolist(), "P": p.tolist()}, indent=2) + "\n"
        assert written == [expected.encode()]


def test_field_widths_are_the_widest_fields():
    # the output budget counts rows at these widths, separators included
    wide = np.array([-1.2345678901234567e-308, -9.87654321098765e-99])
    assert len(csv_table(wide, {}).splitlines()[-1]) + 1 == _numtext.CSV_FIELD_BYTES
    field = as_text(write_json, {"t": wide}).splitlines()[2] + "\n"
    assert field == "    -1.2345678901234567e-308,\n"
    assert len(field) == _numtext.JSON_FIELD_BYTES
    point = svg_points([-999998.99, 0.0], [-999998.99, 0.0]).split(" ")[0] + " "
    assert len(point) == _numtext.SVG_POINT_BYTES


# Seeded tables far longer than the hypothesis examples: many row blocks,
# every _FITTING family in bulk, a column of mixed signs and one that is
# all negative.
_SCALE_ROWS = 200_003


def _fitting_values(rng, n):
    # n doubles drawn from the _FITTING families, shuffled
    k = -(-n // 8)
    sign = rng.choice([1.0, -1.0], 8 * k)
    p = rng.integers(1, 18, k)
    lo, hi = -(-10**12 // 5**p), 10**13 // 5**p
    ties = ((lo + rng.integers(0, 2**62, k) % (hi - lo - 1)) | 1) / 2.0**p
    near = [float(f"{d}5e{e}") for d, e in zip(rng.integers(10**11, 10**12, k),
                                                 rng.integers(-85, 86, k))]
    powers, step = 10.0 ** rng.integers(-98, 99, k), rng.integers(-1, 2, k)
    powers = np.where(step == 0, powers, np.nextafter(powers, np.where(step > 0, np.inf, 0.0)))
    carries = [float(f"9.9999999999{nudge}e{e}") for nudge, e in zip(
        rng.choice(["95", "96", "949", "951", "99"], k), rng.integers(-97, 98, k))]
    rounded = [round(float(x), int(d)) for x, d in zip(rng.uniform(-1e4, 1e4, k),
                                                       rng.integers(10, 13, k))]
    values = np.concatenate([
        rng.uniform(1.0, 10.0, k) * 10.0 ** rng.integers(-90, 91, k),
        rng.choice([0.0, -0.0], k),
        ties,
        rng.integers(-10**6, 10**6, k) / 8.0,
        near,
        powers,
        carries,
        rounded,
    ]) * sign
    return rng.permutation(values)[:n]


@pytest.fixture(scope="module")
def scale_table():
    rng = np.random.default_rng(3)
    ts = _fitting_values(rng, _SCALE_ROWS)
    t = np.linspace(0.0, 40.0, _SCALE_ROWS)
    columns = {
        "P": _fitting_values(rng, _SCALE_ROWS),
        # an overlay that dips just below zero near each minimum
        "P_analytic": 1.0 - (1.0 + 1e-9) * np.sin(t) ** 2,
        "negative": -np.abs(_fitting_values(rng, _SCALE_ROWS)),
        "positive": np.abs(_fitting_values(rng, _SCALE_ROWS)),
    }
    return ts, columns


@pytest.fixture(scope="module")
def unsigned_scale_table(scale_table):
    # the same families with every sign bit cleared, -0.0 among them
    ts, columns = scale_table
    return np.abs(ts), {"P": np.abs(columns["P"]), "P_analytic": np.abs(columns["P_analytic"]),
                        "positive": columns["positive"]}


def test_csv_table_matches_template_at_scale(unsigned_scale_table):
    # unsigned values of every family in bulk never reach the template
    ts, columns = unsigned_scale_table
    expected = csv_table_reference(ts, columns)
    with mock.patch.object(_numtext, "csv_table_reference", side_effect=AssertionError):
        assert csv_table(ts, columns) == expected


def test_csv_table_signed_table_at_scale_matches_template(scale_table):
    # mixed signs in t, P and P_analytic, all negative in "negative": the
    # table goes whole to the template, with the same bytes
    ts, columns = scale_table
    assert (columns["P_analytic"] < 0).any() and (columns["P_analytic"] > 0).any()
    assert csv_table(ts, columns) == csv_table_reference(ts, columns)


@pytest.mark.parametrize("column, misfit", [("P", np.nan), ("t", 1e100), ("positive", 1e-100)])
def test_csv_table_misfit_in_the_last_row_of_a_long_table(unsigned_scale_table, column, misfit):
    # the fit test of every column runs before any row block is formatted,
    # so a misfit in the last row sends the table to the reference at once
    ts, columns = unsigned_scale_table
    ts, columns = ts.copy(), {k: v.copy() for k, v in columns.items()}
    (ts if column == "t" else columns[column])[-1] = misfit
    with mock.patch.object(_numtext, "csv_table_reference", return_value="fallback") as reference, \
         mock.patch.object(_numtext, "_e_words", wraps=_numtext._e_words) as e_words:
        assert csv_table(ts, columns) == "fallback"
    reference.assert_called_once_with(ts, columns)
    e_words.assert_not_called()


def _coordinates(rng, n):
    # pixel-like values of every _COORD family, with mixed signs and up to
    # six integer digits
    k = -(-n // 5)
    decimals = [float(f"{j // 100}.{j % 100:02d}5") for j in rng.integers(0, 10**7, k)]
    values = np.concatenate([
        rng.integers(-8 * 10**5, 8 * 10**5, k) / 8.0,
        decimals * rng.choice([1.0, -1.0], k),
        rng.uniform(-1e5, 1e5, k),
        rng.uniform(0.0, 999998.99, k),
        rng.choice([0.0, -0.0, -0.001, 0.004999999, 999998.995, 0.5e-2, 9999.0, 9998.995], k),
    ])
    return rng.permutation(values)[:n]


def _chart_coordinates(rng, n):
    # values of every _CHART_COORD family: unsigned, at most four integer digits
    k = -(-n // 4)
    decimals = [float(f"{j // 100}.{j % 100:02d}5") for j in rng.integers(0, 999999, k)]
    values = np.concatenate([
        rng.integers(0, 8 * 9999, k) / 8.0,
        decimals,
        rng.uniform(0.0, 9999.99, k),
        rng.choice([0.0, 0.004999999, 0.5e-2, 9999.0, 9998.995, _LAYOUT_EDGE], k),
    ])
    return rng.permutation(values)[:n]


def test_svg_points_match_template_at_scale():
    # inside the point layout, across many row blocks, the whole-array
    # writer runs and the reference is never reached
    rng = np.random.default_rng(17)
    x, y = _chart_coordinates(rng, _SCALE_ROWS), _chart_coordinates(rng, _SCALE_ROWS)
    # chart-like, with two and three integer digits
    cx, cy = 64.0 + np.linspace(0.0, 780.0, _SCALE_ROWS), 34.0 + 440.0 * rng.random(_SCALE_ROWS)
    # integer parts of exactly three digits, and of exactly four (no padding)
    x3, x4 = 100.0 + 899.0 * rng.random(_SCALE_ROWS), 1000.0 + 8998.0 * rng.random(_SCALE_ROWS)
    expected = [svg_points_reference(x, y), svg_points_reference(cx, cy),
                svg_points_reference(x3, x3[::-1]), svg_points_reference(x4, x4[::-1]),
                svg_points_reference(cx[:1000], x4[:1000])]
    with mock.patch.object(_numtext, "svg_points_reference", side_effect=AssertionError):
        assert svg_points(x, y) == expected[0]
        assert svg_points(x3, x3[::-1]) == expected[2]
        assert svg_points(x4, x4[::-1]) == expected[3]
        # one x array for a curve and a shorter one
        assert svg_points(cx, cy) == expected[1]
        assert svg_points(cx, x4[:1000]) == expected[4]
    y[-1] = np.inf
    with mock.patch.object(_numtext, "svg_points_reference", return_value="fallback") as reference:
        assert svg_points(x, y) == "fallback"
    reference.assert_called_once()


def test_svg_points_outside_the_layout_match_template_at_scale():
    # signed values and five- or six-digit integer parts take the reference
    rng = np.random.default_rng(17)
    x, y = _coordinates(rng, _SCALE_ROWS), _coordinates(rng, _SCALE_ROWS)
    cx, cy = 64.0 + np.linspace(0.0, 780.0, _SCALE_ROWS), 34.0 + 440.0 * rng.random(_SCALE_ROWS)
    wide = 1e4 + 989998.99 * rng.random(_SCALE_ROWS)
    assert svg_points(x, y) == svg_points_reference(x, y)
    assert svg_points(wide, cy) == svg_points_reference(wide, cy)
    assert svg_points(cy, wide) == svg_points_reference(cy, wide)
    # an all-negative x array for a curve and a shorter one
    assert svg_points(-cx, y) == svg_points_reference(-cx, y)
    assert svg_points(-cx, cy[:1000]) == svg_points_reference(-cx[:1000], cy[:1000])


def test_render_line_chart_bytes_do_not_depend_on_sharing_x(monkeypatch):
    # one x array for several curves, an equal copy of it, and the
    # per-point reference give the same bytes
    t = np.linspace(0.0, 30.0, 20_001)
    p, q = np.cos(t) ** 2, 1.0 - 0.5 * np.sin(t) ** 2
    shared = svgplot.render_line_chart([("P", t, p), ("Q", t, q)])
    distinct = svgplot.render_line_chart([("P", t, p), ("Q", t.copy(), q)])
    assert shared == distinct
    assert shared == _reference_chart(monkeypatch, [("P", t, p), ("Q", t, q)])
    three = svgplot.render_line_chart([("P", t, p), ("Q", t, q), ("R", t.copy(), q)])
    assert three == svgplot.render_line_chart([("P", t, p), ("Q", t.copy(), q), ("R", t, q)])
    assert three == _reference_chart(monkeypatch, [("P", t, p), ("Q", t, q), ("R", t, q)])
