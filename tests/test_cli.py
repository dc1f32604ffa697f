import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from staremit import cli, dirichlet_survival, hermitian, revival_period
from staremit._numtext import CSV_FIELD_BYTES, JSON_FIELD_BYTES, SVG_POINT_BYTES
from staremit.cli import main

INV_SQRT3 = 1.0 / np.sqrt(3.0)


def _read_csv(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    body = np.array([row.split(",") for row in lines[1:] if row], dtype=float)
    return header, body


def test_two_level_matches_cos2(tmp_path):
    out = tmp_path / "series.csv"
    rc = main(["two-level", "--alpha", "1", "--t-max", "6.2832", "--samples", "1000",
               "--out", str(out)])
    assert rc == 0
    header, body = _read_csv(out)
    assert header == ["t", "P", "P_analytic"]
    ts = body[:, 0]
    assert np.abs(body[:, 1] - np.cos(ts) ** 2).max() < 1e-10
    assert np.abs(body[:, 1] - body[:, 2]).max() < 1e-10


def test_two_level_csv_formatting(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["two-level", "--samples", "10", "--out", str(out)]) == 0
    raw = out.read_bytes().decode()
    assert "\r" not in raw
    assert raw.endswith("\n")
    for field in raw.split("\n")[1].split(","):
        assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2,3}", field)


def test_two_level_decoupled_is_constant(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["two-level", "--alpha", "0", "--out", str(out)]) == 0
    _, body = _read_csv(out)
    assert np.all(body[:, 1] == 1.0)


def test_two_level_detuned_floor(tmp_path):
    out = tmp_path / "series.csv"
    rc = main(["two-level", "--eps1", "2", "--alpha", "1", "--t-max", "20",
               "--samples", "2001", "--out", str(out)])
    assert rc == 0
    _, body = _read_csv(out)
    assert body[:, 1].min() == pytest.approx(0.5, abs=1e-3)


def test_two_level_json_format(tmp_path):
    out = tmp_path / "series.json"
    assert main(["two-level", "--samples", "50", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"t", "P", "P_analytic"}
    assert len(data["t"]) == 50


def test_two_level_hbar_rescales_time(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["two-level", "--alpha", "1", "--t-max", "12.0", "--samples", "601",
                 "--hbar", "2", "--out", str(out)]) == 0
    _, body = _read_csv(out)
    ts = body[:, 0]
    assert np.abs(body[:, 1] - np.cos(ts / 2.0) ** 2).max() < 1e-10


def test_identical_modes_matches_sqrt_n_law(tmp_path):
    out = tmp_path / "series.csv"
    rc = main(["identical-modes", "--n", "4", "--alpha", "1", "--out", str(out)])
    assert rc == 0
    _, body = _read_csv(out)
    ts = body[:, 0]
    assert np.abs(body[:, 1] - np.cos(2.0 * ts) ** 2).max() < 1e-10


def test_identical_modes_n1_equals_two_level(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["identical-modes", "--n", "1", "--alpha", "0.8", "--out", str(a)]) == 0
    assert main(["two-level", "--alpha", "0.8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_identical_modes_rejects_zero_modes():
    with pytest.raises(SystemExit) as exc:
        main(["identical-modes", "--n", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["two-level", "--t-max", "inf"],
        ["two-level", "--alpha", "1e308"],
        ["identical-modes", "--n", "2", "--alpha", "1e308"],
        ["two-level", "--alpha", "1e308", "--format", "json"],
        ["two-level", "--alpha", "1e200", "--eps1", "1"],
        ["figure1", "--m-list", "2", "--eps0", "1e308"],
    ],
)
def test_non_finite_result_exits_2_and_writes_nothing(argv, tmp_path, capsys):
    # overflowing inputs exit 2 with one error line, and no numpy warnings,
    # instead of writing inf/NaN rows (or invalid JSON)
    out = tmp_path / ("figs" if argv[0] == "figure1" else "series.txt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # rejected while parsing
            rc = exc.code
    assert rc == 2
    assert caught == []
    err = capsys.readouterr().err
    if argv[-1] == "inf":  # argparse prints its usage line first
        assert "error: argument --t-max" in err
    else:
        assert err == "error: result is not finite; the inputs overflow double precision\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["two-level"], ["identical-modes", "--n", "4"], ["inverse", "--m", "3", "--flat"]],
    ids=["two-level", "identical-modes", "inverse"],
)
def test_eigensolver_failure_exits_3_and_writes_nothing(argv, tmp_path, capsys, monkeypatch):
    # every subcommand solves its secular equation with one root finder
    monkeypatch.setattr("staremit.hermitian._MAX_ITER", 0)
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["two-level"], ["identical-modes", "--n", "4"]], ids=["two-level", "identical-modes"]
)
@pytest.mark.parametrize("message", ["Unable to allocate 640. MiB", ""], ids=["numpy", "bare"])
def test_memory_error_exits_2_and_writes_nothing(argv, message, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("staremit.cli._star_levels", fail)
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert main(argv + ["--out", str(out), "--svg", str(svg)]) == 2
    expected = f"error: out of memory: {message}\n" if message else "error: out of memory\n"
    assert capsys.readouterr().err == expected
    assert list(tmp_path.iterdir()) == []


def test_series_commands_store_no_eigenvector_rows(tmp_path):
    # the series read only the eigenvalues and the weights: the row-storing
    # Löwner pass, which builds eigh's eigenvector block, is never reached
    lowner_vectors = hermitian._lowner_vectors

    def norms_only(d, origin, tau, rank, out=None):
        if out is not None:
            raise AssertionError("eigenvector rows stored")
        return lowner_vectors(d, origin, tau, rank)

    out = tmp_path / "series.txt"
    with mock.patch.object(hermitian, "_lowner_vectors", norms_only):
        for argv in (["two-level"], ["two-level", "--eps1", "0.4", "--format", "json"],
                     ["identical-modes", "--n", "1"], ["identical-modes", "--n", "300", "--svg",
                                                       str(tmp_path / "chart.svg")]):
            assert main(argv + ["--out", str(out)]) == 0


def test_identical_modes_memory_is_linear_in_n(tmp_path):
    # At n = 100000 eigh's eigenvector matrix alone would take 74.5 GiB.
    # The series solve keeps arrays of length n, and the survival kernel on
    # a uniform grid of S samples holds about seven complex arrays of
    # n x ceil(sqrt(S)) (106 MiB measured here, at S = 101). The budget is
    # eight such arrays: O(n sqrt(S)), 134 MiB.
    n, samples = 100_000, 101
    out = tmp_path / "x.csv"
    budget = 8 * 16 * (n + 1) * (math.isqrt(samples - 1) + 1)
    tracemalloc.start()
    try:
        rc = main(["identical-modes", "--n", str(n), "--samples", str(samples), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    header, body = _read_csv(out)
    assert body.shape == (samples, 3)
    assert np.abs(body[:, 1] - body[:, 2]).max() < 1e-10
    assert peak <= budget, peak / 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["figure1", "--m-list", "2", "--eps0", "nan"],
        ["figure1", "--eps0=-inf"],
        ["inverse", "--flat", "--m", "3", "--eps0", "nan"],
        ["inverse", "--m", "3", "--seed", "2", "--eps0", "inf"],
    ],
)
def test_non_finite_eps0_exits_2_and_says_so(argv, tmp_path, capsys):
    # a NaN or inf centre is refused as input, not reported as an overflow
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: eps0 must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_inverse_profile_file_with_non_finite_eps0(value, tmp_path, capsys):
    # Python's json reads these as floats
    path = tmp_path / "profile.json"
    path.write_text(f'{{"m_half": 1, "eps0": {value}, "d_width": 1.0, "overlaps": [0.25, 0.5, 0.25]}}')
    assert main(["inverse", "--profile", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: eps0 must be finite\n"
    assert captured.out == ""


def test_inverse_flat_m1(tmp_path, capsys):
    out = tmp_path / "model.json"
    rc = main(["inverse", "--flat", "--m", "1", "--d", "1", "--eps0", "0",
               "--out", str(out)])
    assert rc == 0
    model = json.loads(out.read_text())
    assert np.allclose(model["eps"], [0.0, -INV_SQRT3, INV_SQRT3], atol=1e-10)
    assert np.allclose(model["alpha_re"], [INV_SQRT3, INV_SQRT3], atol=1e-10)
    assert np.allclose(model["alpha_im"], [0.0, 0.0])
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["max_eigenvalue_error"] < 1e-10


def test_inverse_from_profile_file(tmp_path, capsys):
    profile = {"m_half": 2, "eps0": 0.5, "d_width": 2.0,
               "overlaps": [0.1, 0.2, 0.4, 0.2, 0.1]}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    rc = main(["inverse", "--profile", str(path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True
    assert len(payload["model"]["eps"]) == 5


def test_inverse_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["inverse", "--profile", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_inverse_missing_field(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    for payload in (
        {"m_half": 1, "eps0": 0.0},
        {"m_half": None, "eps0": 0.0, "d_width": 1.0, "overlaps": [0.25, 0.5, 0.25]},
    ):
        path.write_text(json.dumps(payload))
        assert main(["inverse", "--profile", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


def test_inverse_missing_source_flag(capsys):
    assert main(["inverse"]) == 2


def test_inverse_random_profile_passes(capsys):
    rc = main(["inverse", "--m", "16", "--seed", "7"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True
    assert payload["report"]["max_eigenvalue_error"] < 1e-8


def test_inverse_random_profile_deterministic(capsys):
    assert main(["inverse", "--m", "8", "--seed", "123"]) == 0
    first = capsys.readouterr().out
    assert main(["inverse", "--m", "8", "--seed", "123"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_inverse_degenerate_profile(tmp_path, capsys):
    profile = {"m_half": 1, "eps0": 0.0, "d_width": 1.0,
               "overlaps": [0.5, 1e-30, 0.5]}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(profile))
    assert main(["inverse", "--profile", str(path)]) == 3


def test_inverse_unreachable_tolerance(capsys):
    assert main(["inverse", "--m", "8", "--seed", "5", "--tol", "1e-300"]) == 4


@pytest.mark.parametrize("width", ["1e308", "1e-300"])
def test_inverse_verdict_does_not_depend_on_the_energy_unit(width, capsys):
    # eigenvalue errors of ~1e-16 of the width pass at either extreme
    assert main(["inverse", "--flat", "--m", "3", "--d", width]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["passed"] and report["max_eigenvalue_error"] <= 1e-15 * float(width)


def test_inverse_verdict_allows_the_rounding_of_a_far_centre(capsys):
    # the eigenvalue error is one float spacing at 1e6, above --tol * --d
    argv = ["inverse", "--flat", "--m", "2", "--eps0", "1e6", "--d", "1e-3", "--tol", "1e-7"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["passed"] and report["max_eigenvalue_error"] > 1e-10


# (argv, files it writes); the flags of one call must not reach the next
_SEQUENCE = [
    (["two-level", "--eps1", "0.7", "--samples", "40", "--format", "json"], []),
    (["two-level", "--samples", "40"], []),
    (["identical-modes", "--n", "3", "--samples", "30", "--out", "im.csv", "--svg", "im.svg"],
     ["im.csv", "im.svg"]),
    (["two-level", "--samples", "30", "--hbar", "2", "--t-max", "5"], []),
    (["inverse", "--flat", "--m", "2", "--eps0", "0.5", "--tol", "1e-300"], []),
    (["inverse", "--flat", "--m", "2"], []),
    (["figure1", "--m-list", "3", "--samples", "50", "--out", "figs"],
     ["figs/figure1_M3.csv", "figs/figure1_M3_metrics.json"]),
    (["figure1", "--samples", "20", "--out", "figs"], ["figs/figure1_M20.csv"]),
    (["two-level", "--samples", "40"], []),
]


def _run_sequence(tmp_path, capsys):
    tmp_path.mkdir()
    outputs = []
    for argv, files in _SEQUENCE:
        argv = [str(tmp_path / a) if a in ("im.csv", "im.svg", "figs") else a for a in argv]
        rc = main(argv)
        outputs.append((rc, capsys.readouterr().out,
                        [(tmp_path / f).read_bytes() for f in files]))
    return outputs


def test_main_reuses_one_parser_without_leaking_flags(tmp_path, capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    cached = _run_sequence(tmp_path / "cached", capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    fresh = _run_sequence(tmp_path / "fresh", capsys)
    assert cached == fresh
    assert [rc for rc, _, _ in cached] == [0, 0, 0, 0, 4, 0, 0, 0, 0]
    assert cached[1] == cached[-1]
    assert cached[0][1].startswith("{") and cached[1][1].startswith("t,P,P_analytic\n")
    assert cached[0][1] != cached[1][1]


@pytest.mark.parametrize(
    "argv, rows, columns, svg_points",
    [
        (["two-level", "--samples", "20"], 20, 3, 0),
        (["identical-modes", "--n", "2", "--samples", "30", "--svg", "c.svg"], 30, 3, 2),
        (["two-level", "--samples", "25", "--format", "json"], 25, 3, 0),
        (["identical-modes", "--n", "4", "--samples", "15", "--format", "json", "--svg", "c.svg"],
         15, 3, 2),
        (["figure1", "--m-list", "1,2", "--samples", "10", "--svg", "c.svg"], 20, 2, 1),
        (["figure1", "--samples", "11"], 44, 2, 0),
    ],
)
def test_output_budget_refuses_before_any_work(argv, rows, columns, svg_points,
                                               tmp_path, capsys, monkeypatch):
    field_bytes = JSON_FIELD_BYTES if "json" in argv else CSV_FIELD_BYTES
    size = rows * (columns * field_bytes + svg_points * SVG_POINT_BYTES)
    argv = [str(tmp_path / a) if a == "c.svg" else a for a in argv]
    out = tmp_path / "out"
    argv += ["--out", str(out)]
    monkeypatch.setattr(cli, "OUTPUT_BUDGET_BYTES", size - 1)
    # the refusal comes before the time grid exists
    monkeypatch.setattr(np, "linspace", pytest.fail)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: the output would take up to {size} bytes of text, above the "
                   f"budget of {size - 1} bytes; lower --samples\n")
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    monkeypatch.setattr(cli, "OUTPUT_BUDGET_BYTES", size)
    assert main(argv) == 0
    assert out.exists()


def test_output_budget_default_refuses_huge_sample_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np, "linspace", pytest.fail)
    samples = cli.OUTPUT_BUDGET_BYTES // (3 * CSV_FIELD_BYTES) + 1
    assert main(["two-level", "--samples", str(samples), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("error: the output would take up to ")
    # JSON fields are wider: fewer samples fit the budget
    samples = cli.OUTPUT_BUDGET_BYTES // (3 * JSON_FIELD_BYTES) + 1
    argv = ["two-level", "--samples", str(samples), "--format", "json"]
    assert main(argv + ["--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == (
        f"error: the output would take up to {samples * 3 * JSON_FIELD_BYTES} bytes of text, "
        f"above the budget of {cli.OUTPUT_BUDGET_BYTES} bytes; lower --samples\n")
    assert list(tmp_path.iterdir()) == []


def test_figure1_outputs(tmp_path, capsys):
    rc = main(["figure1", "--out", str(tmp_path), "--samples", "4001"])
    assert rc == 0
    for m_half in (1, 2, 5, 20):
        csv_path = tmp_path / f"figure1_M{m_half}.csv"
        metrics_path = tmp_path / f"figure1_M{m_half}_metrics.json"
        assert csv_path.exists() and metrics_path.exists()
        header, body = _read_csv(csv_path)
        assert header == ["t", "P"]
        ts, values = body[:, 0], body[:, 1]
        period = revival_period(m_half, 1.0)
        # the t column is the sample grid, quantized to 12 digits
        exact_ts = np.linspace(0.0, 2.0 * period, 4001)
        assert np.abs(ts - exact_ts).max() <= 1e-11 * max(exact_ts.max(), 1.0)
        # trace must agree with the closed Dirichlet form up to the
        # file's 12-significant-digit value quantization
        assert np.abs(values - dirichlet_survival(m_half, 1.0, exact_ts)).max() < 1e-10
        metrics = json.loads(metrics_path.read_text())
        assert 0.95 * period < metrics["revival_time"] < 1.01 * period
    # emission onset barely moves while the period spans 1..20 revivals
    decay = [json.loads((tmp_path / f"figure1_M{m}_metrics.json").read_text())["decay_time"]
             for m in (1, 2, 5, 20)]
    assert max(decay) < 3.2 and min(decay) > 1.5


def test_figure1_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["figure1", "--m-list", "1,5", "--out", str(out),
                     "--samples", "1001"]) == 0
    for name in ("figure1_M1.csv", "figure1_M5.csv", "figure1_M1_metrics.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_figure1_svg(tmp_path):
    svg = tmp_path / "chart.svg"
    assert main(["figure1", "--m-list", "1,2,5", "--out", str(tmp_path),
                 "--samples", "801", "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 3


def test_figure1_bad_threshold_writes_nothing(tmp_path, capsys):
    assert main(["figure1", "--m-list", "1,2", "--samples", "101",
                 "--threshold", "1.5", "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_figure1_rejects_empty_m_list():
    with pytest.raises(SystemExit) as exc:
        main(["figure1", "--m-list", ","])
    assert exc.value.code == 2
