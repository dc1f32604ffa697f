"""The whole-array writers against their per-value ``%`` references."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staremit import _numtext, svgplot
from staremit._numtext import (
    csv_table,
    csv_table_reference,
    json_table,
    svg_points,
    svg_points_reference,
)

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
# values that do not fit the fixed width: the whole table takes the template
_MISFITS = st.sampled_from(
    [5e-324, 2.2e-310, 1e-100, 9.999999999999999e99, 1e100, -3e250, np.inf, -np.inf, np.nan]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(_FITTING, min_size=k, max_size=40 * k))))
def test_csv_table_matches_template(case):
    k, values = case
    cols = np.array(values[: len(values) // k * k]).reshape(-1, k).T
    ts, named = cols[0], {f"c{i}": c for i, c in enumerate(cols[1:])}
    expected = csv_table_reference(ts, named)
    # values that fit the fixed width never take the template path
    with mock.patch.object(_numtext, "csv_table_reference", side_effect=AssertionError):
        assert csv_table(ts, named) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_FITTING, min_size=1, max_size=30), _MISFITS, st.integers(0, 29))
def test_csv_table_falls_back_on_values_that_do_not_fit(values, misfit, at):
    values.insert(at % (len(values) + 1), misfit)
    col = np.array(values)
    named = {"P": col[::-1]}
    assert csv_table(col, named) == csv_table_reference(col, named)


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
    assert csv_table([9.99999999999995e5], {"P": [0.5]}) == "t,P\n1.00000000000e+06,5.00000000000e-01\n"


# pixel-like coordinates: exact binary ties (k/8), n.xx5 decimals whose
# double sits on either side of the tie, and random values of either sign
_COORD = st.one_of(
    st.builds(lambda k: k / 8.0, st.integers(-8 * 10**5, 8 * 10**5)),
    st.builds(lambda k, s: s * float(f"{k // 100}.{k % 100:02d}5"), st.integers(0, 10**7), _SIGN),
    st.floats(-1e5, 1e5, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, -0.001, 0.004999999, 999998.995, 0.5e-2]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=60))
def test_svg_points_match_template(points):
    x, y = np.array(points).T
    expected = svg_points_reference(x, y)
    with mock.patch.object(_numtext, "svg_points_reference", side_effect=AssertionError):
        assert svg_points(x, y) == expected


@pytest.mark.parametrize("misfit", [np.nan, np.inf, -np.inf, 1e6, -2.5e7])
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


def _reference_chart(monkeypatch, curves, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(svgplot, "svg_points", svg_points_reference)
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


@pytest.mark.parametrize("samples", [0, 2, 10_000])
def test_json_table_matches_json_dumps(samples):
    rng = np.random.default_rng(samples)
    ts = np.linspace(0.0, 30.0, samples)
    columns = {"P": rng.random(samples), "P_analytic": np.cos(ts) ** 2}
    if samples:
        columns["P"][:5] = [-0.0, 5.0, 1e-300, 1e300, 0.1][:samples]
    expected = json.dumps(
        {"t": ts.tolist(), **{k: v.tolist() for k, v in columns.items()}}, indent=2
    ) + "\n"
    assert json_table(ts, columns) == expected


def test_json_table_non_finite_matches_json_dumps():
    ts, p = np.array([0.0, 1.0]), np.array([np.nan, np.inf])
    assert json_table(ts, {"P": p}) == json.dumps({"t": [0.0, 1.0], "P": [np.nan, np.inf]},
                                                  indent=2) + "\n"
