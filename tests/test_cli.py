import json
import re

import numpy as np
import pytest

from staremit import dirichlet_survival, revival_period
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
@pytest.mark.filterwarnings("ignore:.*(overflow|invalid value):RuntimeWarning")
def test_non_finite_result_exits_2_and_writes_nothing(argv, tmp_path, capsys):
    # overflowing inputs exit 2 instead of writing inf/NaN rows (or invalid JSON)
    out = tmp_path / ("figs" if argv[0] == "figure1" else "series.txt")
    try:
        rc = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # rejected while parsing
        rc = exc.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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
