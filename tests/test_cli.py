import contextlib
import errno
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staremit import (
    _arrowhead,
    _numtext,
    cli,
    construct_hamiltonian,
    dirichlet_survival,
    flat_profile,
    random_profile,
    revival_period,
)
from staremit._numtext import CSV_FIELD_BYTES, JSON_FIELD_BYTES, SVG_POINT_BYTES
from staremit.cli import main
from staremit.evolution import _series_bytes

from helpers import traced_peak

# the largest count / peak a bound test admits from 4 MB of count up
_LOOSENESS = 4.0

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


def test_two_level_floor_keeps_its_digits(capsys):
    # at t = pi/2 the overlay is the detuned floor Delta^2 / Omega^2 = 2.5e-17
    argv = ["two-level", "--eps1", "1e-8", "--alpha", "1", "--t-max", "3.141592653589793",
            "--samples", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.split("\n")[2].split(",")[2] == "2.50000000000e-17"


def test_resonant_two_level_at_a_huge_coupling_exits_0(tmp_path):
    # resonance never squares alpha, so --alpha 1e200 does not overflow
    out = tmp_path / "series.csv"
    assert main(["two-level", "--alpha", "1e200", "--samples", "101", "--out", str(out)]) == 0
    rows = out.read_text().split("\n")[1:-1]
    closed = np.cos(1e200 * np.linspace(0.0, 20.0, 101)) ** 2
    assert [row.split(",")[2] for row in rows] == ["%.11e" % p for p in closed]


@pytest.mark.parametrize("flag, value", [("--eps0", "-1e-3"), ("--eps1", "-2E-3"),
                                         ("--alpha", "-5e-1"), ("--eps1", "-.5e+1")])
def test_negative_values_in_exponent_notation_are_values(flag, value, capsys):
    # argparse's own test for a negative number knows no exponent
    argv = ["two-level", "--samples", "5"]
    assert main(argv + [flag, value]) == 0
    spaced = capsys.readouterr()
    assert main(argv + [f"{flag}={value}"]) == 0
    assert capsys.readouterr() == spaced
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "-x"])
    assert exc.value.code == 2


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
        # tau = t / hbar overflows; a figure1 --eps0 1e308 that overflowed
        # here runs on the ladder centred on 0 and exits 0 (below)
        ["two-level", "--t-max", "1e10", "--hbar", "1e-300"],
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
    "argv, missing",
    [
        (["two-level", "--samples", "11", "--out", "a.csv", "--svg", "nodir/x.svg"], "nodir/x.svg"),
        (["figure1", "--m-list", "1,2", "--samples", "101", "--out", "figs",
          "--svg", "nodir/c.svg"], "nodir/c.svg"),
        (["inverse", "--flat", "--m", "3", "--out", "nodir/m.json"], "nodir/m.json"),
    ],
    ids=["two-level", "figure1", "inverse"],
)
def test_missing_output_directory_exits_2_and_writes_nothing(argv, missing, tmp_path, capsys,
                                                             monkeypatch):
    # checked before any work: no other file of the run, no --out directory
    # and no summary line, and the error names the path as given
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {missing}: no directory nodir\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "below-a-file"])
def test_figure1_out_below_a_file_exits_2_before_any_work(out, tmp_path, capsys, monkeypatch):
    # figure1 makes its --out directory, so an existing file there or above
    # it is refused before any series is computed, and nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    monkeypatch.setattr(cli, "profile_survival", pytest.fail)
    assert main(["figure1", "--m-list", "1", "--samples", "11", "--out", out]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: afile is not a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("failing", [1, 2], ids=["csv", "svg"])
def test_late_write_failure_names_the_users_path(failing, tmp_path, capsys, monkeypatch):
    # a rename that fails once the output directories passed their check (a
    # full disk) removes its temp file and names the path as given, not the
    # temp file beside it; a file renamed before it stays
    replace, calls = os.replace, []

    def full_disk(src, dst):
        calls.append(dst)
        if len(calls) == failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, dst)
        replace(src, dst)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "replace", full_disk)
    assert main(["two-level", "--samples", "11", "--out", "a.csv", "--svg", "x.svg"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {['a.csv', 'x.svg'][failing - 1]}: No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"][: failing - 1]


class _FullDisk:
    # a temp file whose write raises ENOSPC at the fail-th write of the run;
    # writes counts the writes of every file opened
    def __init__(self, fh, writes, fail):
        self._fh, self._writes, self._fail = fh, writes, fail

    def write(self, data):
        self._writes.append(len(data))
        if len(self._writes) == self._fail:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_write_failure_at_any_block_names_the_users_path(tmp_path, capsys, monkeypatch):
    # the CSV and the chart go to their temp files a block at a time; a
    # write that fails at any of them exits 2 with one error line naming
    # the path as given, prints nothing on stdout and leaves no temp file
    # (a CSV renamed before a failed chart stays)
    argv = ["two-level", "--samples", "20000", "--out", "a.csv", "--svg", "a.svg"]
    fdopen, opened, writes = os.fdopen, [], []
    monkeypatch.chdir(tmp_path)

    def counting(fd, mode, fail=0):
        opened.append(len(writes))
        return _FullDisk(fdopen(fd, mode), writes, fail)

    monkeypatch.setattr(os, "fdopen", counting)
    assert main(argv) == 0
    capsys.readouterr()
    # the header and five blocks of rows; the chart's frame, each curve's
    # five blocks of points between its pieces, and its end
    total, csv_writes = len(writes), opened[1]
    assert csv_writes == 6 and total - csv_writes > 10
    for fail in range(1, total + 1):
        for p in tmp_path.iterdir():
            p.unlink()
        writes.clear()
        monkeypatch.setattr(os, "fdopen", lambda fd, mode, fail=fail: counting(fd, mode, fail))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        name = "a.csv" if fail <= csv_writes else "a.svg"
        assert (out, err) == ("", f"error: cannot write {name}: No space left on device\n"), fail
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if name == "a.csv" else ["a.csv"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [["two-level", "--samples", "20001"],
                                  ["identical-modes", "--n", "7", "--samples", "4097"]],
                         ids=["two-level", "identical-modes"])
def test_series_on_stdout_are_the_bytes_of_the_out_file(argv, fmt, tmp_path, capsys):
    # a table goes to stdout through the same block writer as to a file
    argv = argv + ["--format", fmt]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.encode() == (tmp_path / "o").read_bytes()


def _child_env(unbuffered: bool) -> dict:
    # the environment of a `python -m staremit.cli` child that imports this
    # package, with Python's stdout buffering on or off
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return env | ({"PYTHONUNBUFFERED": "1"} if unbuffered else {})


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt, samples", [("csv", 100000), ("json", 100000), ("csv", 11)])
def test_stdout_closed_early_exits_2_with_one_error_line(fmt, samples, unbuffered):
    # a reader that closes the pipe after its first read (`| head -c 20`)
    # makes a write fail mid-table, and one that closes it before any read
    # makes the flush of a short table fail: either way exit 2 with one
    # error line, and neither a traceback nor a failed flush at exit
    argv = ["two-level", "--samples", str(samples), "--format", fmt]
    child = subprocess.Popen([sys.executable, "-m", "staremit.cli", *argv], env=_child_env(unbuffered),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if samples > 11:
        assert child.stdout.read(20)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["inverse", "--flat", "--m", "3"],
                                  ["figure1", "--m-list", "1", "--samples", "101", "--out", "{}"]],
                         ids=["inverse", "figure1"])
def test_every_closed_stdout_is_named(argv, unbuffered, tmp_path):
    # the inverse JSON and the figure1 summary lines go to stdout as the
    # tables do: a reader that closed it makes one error line naming stdout
    argv = [a.format(tmp_path / "figs") for a in argv]
    child = subprocess.Popen([sys.executable, "-m", "staremit.cli", *argv], env=_child_env(unbuffered),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: Broken pipe\n"


def test_series_to_a_file_runs_with_stdout_closed(tmp_path):
    # a process started with stdout closed has no sys.stdout; a run that
    # prints nothing does not need one
    out = tmp_path / "a.csv"
    shell = 'exec "$0" -m staremit.cli two-level --samples 11 --out "$1" >&-'
    child = subprocess.run(["sh", "-c", shell, sys.executable, str(out)], env=_child_env(False),
                           stderr=subprocess.PIPE, timeout=120)
    assert (child.returncode, child.stderr) == (0, b"")
    assert out.read_text().count("\n") == 12


@pytest.mark.parametrize("argv", [["two-level", "--samples", "3"], ["inverse", "--flat", "--m", "3"],
                                  ["figure1", "--m-list", "1", "--samples", "11", "--out", "{}"]],
                         ids=["table", "inverse", "figure1"])
def test_output_to_a_closed_stdout_exits_2(argv, tmp_path):
    # with stdout closed from the start there is no sys.stdout: a run that
    # writes to it exits 2 with one error line naming stdout, as a broken
    # pipe does, after any files it writes first (figure1's)
    argv = [a.format(tmp_path / "figs") for a in argv]
    shell = 'exec "$0" -m staremit.cli "$@" >&-'
    child = subprocess.run(["sh", "-c", shell, sys.executable, *argv], env=_child_env(False),
                           stderr=subprocess.PIPE, timeout=120)
    assert child.returncode == 2
    assert child.stderr == b"error: cannot write stdout: Bad file descriptor\n"


@pytest.mark.parametrize(
    "argv",
    [["two-level"], ["identical-modes", "--n", "4"], ["inverse", "--m", "3", "--flat"]],
    ids=["two-level", "identical-modes", "inverse"],
)
def test_eigensolver_failure_exits_3_and_writes_nothing(argv, tmp_path, capsys, monkeypatch):
    # every subcommand solves its secular equation with one root finder
    monkeypatch.setattr("staremit._arrowhead._MAX_ITER", 0)
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

    monkeypatch.setattr("staremit.cli.eigh", fail)
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert main(argv + ["--out", str(out), "--svg", str(svg)]) == 2
    expected = f"error: out of memory: {message}\n" if message else "error: out of memory\n"
    assert capsys.readouterr().err == expected
    assert list(tmp_path.iterdir()) == []


def test_series_commands_store_no_eigenvector_rows(tmp_path, capsys, monkeypatch):
    # the series and verification read only the eigenvalues and the
    # weights: the builder of a star's eigenvectors is never reached
    def fail(*args):
        raise AssertionError("eigenvectors built")

    monkeypatch.setattr(_arrowhead, "_star_vectors", fail)
    out, svg = tmp_path / "series.txt", str(tmp_path / "chart.svg")
    for argv in (["two-level"], ["two-level", "--eps1", "0.4", "--format", "json"],
                 ["two-level", "--alpha", "0.3", "--svg", svg],
                 ["identical-modes", "--n", "1"], ["identical-modes", "--n", "5", "--format", "json"],
                 ["identical-modes", "--n", "300", "--svg", svg]):
        assert main(argv + ["--out", str(out)]) == 0
    assert main(["inverse", "--m", "60", "--seed", "5", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_identical_modes_memory_is_linear_in_n(tmp_path):
    # At n = 100000 eigh's eigenvector matrix alone would take 74.5 GiB and
    # is never built. The solve keeps arrays of length n, and the survival
    # kernel on a uniform grid of S samples holds at most four complex
    # arrays of n x ceil(sqrt(S)) at once (69.8 MiB measured here, at
    # S = 101). The budget is five such arrays: O(n sqrt(S)), 84 MiB.
    n, samples = 100_000, 101
    out = tmp_path / "x.csv"
    budget = 5 * 16 * (n + 1) * (math.isqrt(samples - 1) + 1)
    peak, rc = traced_peak(main, ["identical-modes", "--n", str(n), "--samples", str(samples),
                                  "--out", str(out)])
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


@pytest.mark.parametrize("field, value", [
    ("m_half", 1.9), ("m_half", True), ("eps0", "1e3"), ("d_width", None),
    ("overlaps", [0.25, False, 0.25]),
])
def test_inverse_profile_field_of_the_wrong_type_exits_2(field, value, tmp_path, capsys):
    # refused as input, not coerced into another profile: nothing is written
    profile = {"m_half": 1, "eps0": 0.0, "d_width": 1.0, "overlaps": [0.25, 0.5, 0.25], field: value}
    path, out = tmp_path / "profile.json", tmp_path / "model.json"
    path.write_text(json.dumps(profile))
    assert main(["inverse", "--profile", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(rf"error: {re.escape(str(path))}: malformed field: {field}(\[1\])? must be .*\n",
                        captured.err)
    assert captured.out == ""
    assert not out.exists()


def test_inverse_missing_source_flag(capsys):
    assert main(["inverse"]) == 2
    assert capsys.readouterr() == ("", "error: need one of --profile, --flat, --seed\n")
    assert main(["inverse", "--flat"]) == 2
    assert capsys.readouterr() == ("", "error: --m is required with --flat or --seed\n")


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


@pytest.mark.parametrize("argv", [
    ["--flat", "--m", "1"],
    ["--seed", "3", "--m", "2"],
    # 2M + 1 = 4097 values a column: one past a block of 4096
    ["--seed", "3", "--m", "2048"],
    # exponent notation
    ["--flat", "--m", "5", "--eps0", "1e17"],
    # negative energies, in exponent notation too
    ["--seed", "4", "--m", "7", "--eps0", "-3.5"],
    ["--seed", "5", "--m", "3", "--eps0", "-2e17", "--d", "5e16"],
], ids=["flat-1", "seed-2", "seed-2048", "exponent", "negative", "negative-exponent"])
def test_inverse_model_file_is_json_dumps(argv, tmp_path, capsys):
    # the model file is written a block at a time, with the bytes of
    # json.dumps(model.to_dict(), indent=2) and a newline
    out = tmp_path / "model.json"
    assert main(["inverse", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    args = cli.build_parser().parse_args(["inverse", *argv])
    if args.flat:
        profile = flat_profile(args.m, args.eps0, args.d)
    else:
        profile = random_profile(args.m, args.eps0, args.d, np.random.default_rng(args.seed))
    model = construct_hamiltonian(profile)
    assert out.read_text() == json.dumps(model.to_dict(), indent=2) + "\n"


def _inverse_m_limit():
    # the largest --m inverse's memory count admits
    levels = (cli._SERIES_BUDGET_BYTES - cli._INVERSE_BLOCK_BYTES) // cli._INVERSE_LEVEL_BYTES
    return (levels - 1) // 2


def test_inverse_refuses_an_m_above_its_memory_budget(tmp_path, capsys):
    # the smallest --m refused, checked before any profile exists: one error
    # line naming --m, no file and a small tracemalloc peak; the largest
    # admitted passes the same check, and is not run
    largest = _inverse_m_limit()
    assert largest == 1140047  # the CI step refuses largest + 1
    cli._preflight([], 0, cli._inverse_bytes(largest), f"--m {largest}")
    out = tmp_path / "model.json"
    peak, rc = traced_peak(main, ["inverse", "--flat", "--m", str(largest + 1), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", (
        f"error: --m {largest + 1} would take about {cli._inverse_bytes(largest + 1)} bytes of "
        f"memory, above the budget of {cli._SERIES_BUDGET_BYTES} bytes; lower it\n"))
    assert list(tmp_path.iterdir()) == []
    assert peak < 1 << 20


def test_inverse_counts_a_profile_as_soon_as_it_is_read(tmp_path, capsys, monkeypatch):
    # a --profile is sized by its own m_half, which --m does not override,
    # and refused before any model exists
    path, out = tmp_path / "profile.json", tmp_path / "model.json"
    path.write_text(json.dumps(flat_profile(2, 0.0, 1.0).to_dict()))
    size = cli._inverse_bytes(2)
    argv = ["inverse", "--profile", str(path), "--m", "1000000000", "--out", str(out)]
    with monkeypatch.context() as m:
        m.setattr(cli, "_SERIES_BUDGET_BYTES", size - 1)
        m.setattr(cli, "construct_hamiltonian", pytest.fail)
        assert main(argv) == 2
    assert capsys.readouterr() == ("", (
        f"error: {path}: m_half 2 would take about {size} bytes of memory, above the budget of "
        f"{size - 1} bytes; lower it\n"))
    assert not out.exists()
    monkeypatch.setattr(cli, "_SERIES_BUDGET_BYTES", size)
    assert main(argv) == 0
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["figure1", "--m-list", "5", "--samples", "4001", "--hbar", "1e-320"],
    ["figure1", "--m-list", "5,1", "--samples", "3", "--periods", "5e-309"],
    ["two-level", "--t-max", "1e-310", "--samples", "3"],
    ["identical-modes", "--n", "3", "--t-max", "1e-305", "--samples", "1000"],
], ids=["figure1-hbar", "figure1-periods", "two-level", "identical-modes"])
def test_a_subnormal_grid_step_exits_2_and_writes_nothing(argv, tmp_path, capsys):
    # the times of such a grid have fewer digits than a double: the period
    # printed and the survival written would be wrong, with exit 0
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: the time-grid step \S+ is below the smallest normal double "
                        r"2\.22507e-308; raise the grid's span or lower --samples\n", captured.err)
    assert list(tmp_path.iterdir()) == []


def test_the_smallest_normal_grid_step_is_admitted(tmp_path, capsys):
    tiny = float(np.finfo(float).tiny)
    out = tmp_path / "a.csv"
    assert main(["two-level", "--t-max", repr(2 * tiny), "--samples", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    # at --hbar 1e-300 the step is normal, and the period has its digits
    assert main(["figure1", "--m-list", "5", "--samples", "4001", "--hbar", "1e-300",
                 "--out", str(tmp_path / "figs")]) == 0
    assert capsys.readouterr().out.startswith("M=5: period=3.14159e-299 ")


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


@pytest.mark.parametrize(
    "argv, levels, kept, flag",
    [
        (["identical-modes", "--n", "50", "--samples", "101"], 51, 0, "--n 50"),
        (["identical-modes", "--n", "7", "--samples", "10", "--svg", "c.svg"], 8, 0, "--n 7"),
        (["figure1", "--m-list", "3,20,2", "--samples", "40"], 41, 3, "--m-list 3,20,2"),
        # the number of M values, not a value, crosses the budget
        (["figure1", "--m-list", "1,1", "--samples", "40"], 3, 2, "--m-list 1,1"),
    ],
    ids=["identical-modes", "identical-modes-svg", "figure1", "figure1-repeated"],
)
def test_series_memory_guard_refuses_before_any_allocation(argv, levels, kept, flag,
                                                            tmp_path, capsys, monkeypatch):
    # the series count of the largest model, and figure1's kept series of
    # every M value, under a patched budget: the refusal comes before the
    # model or the profile exists
    samples = int(argv[argv.index("--samples") + 1])
    size = _series_bytes(levels, samples, kept) + cli._WRITER_BYTES
    if argv[0] != "figure1":  # and what the series command holds beside it
        size += cli._HELD_BYTES * samples
    argv = [str(tmp_path / a) if a == "c.svg" else a for a in argv]
    out = tmp_path / "out"
    argv += ["--out", str(out)]
    monkeypatch.setattr(cli, "_SERIES_BUDGET_BYTES", size - 1)
    monkeypatch.setattr(cli, "StarModel", pytest.fail)
    monkeypatch.setattr(cli, "flat_profile", pytest.fail)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} would take about {size} bytes of memory, above the budget of "
        f"{size - 1} bytes; lower it or --samples\n")
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_SERIES_BUDGET_BYTES", size)
    assert main(argv) == 0
    assert out.exists()


@st.composite
def _series_runs(draw):
    # argv of a series run, with samples spread evenly in log from 1000 to
    # 1e6: two-level or identical-modes, CSV or JSON, to a file or to
    # stdout, or figure1 over up to four M values, each with or without a
    # chart; a model holds about levels x samples multiply-adds, capped, and
    # figure1 keeps every M value's series
    command = draw(st.sampled_from(["two-level", "identical-modes", "figure1"]))
    if command == "figure1":
        m_list = draw(st.lists(st.integers(1, 200), min_size=1, max_size=4))
        argv, levels, kept = [command, "--m-list", ",".join(map(str, m_list))], 2 * max(m_list) + 1, len(m_list)
        argv += ["--out", "o"]
    else:
        n = 1 if command == "two-level" else draw(st.integers(1, 2000))
        argv, levels, kept = [command] + (["--n", str(n)] if command != "two-level" else []), n + 1, 1
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
        argv += draw(st.sampled_from([["--out", "o"], []]))
    cap = min(10**6 // kept, 2 * 10**8 // levels)
    samples = round(cap ** draw(st.floats(math.log(1000, cap), 1.0)))
    return argv + ["--samples", str(samples)] + draw(st.sampled_from([["--svg", "c.svg"], []]))


def _count(argv):
    # what a series run is refused by: the kernel's series count, what the
    # command holds beside it (figure1: every M value's series; the others:
    # their time columns) and the writers' block buffers
    samples = int(argv[argv.index("--samples") + 1])
    if argv[0] == "figure1":
        m_list = [int(m) for m in argv[argv.index("--m-list") + 1].split(",")]
        return _series_bytes(2 * max(m_list) + 1, samples, len(m_list)) + cli._WRITER_BYTES
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 1
    return _series_bytes(n + 1, samples) + cli._HELD_BYTES * samples + cli._WRITER_BYTES


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_series_runs())
@example(["two-level", "--samples", "1000000", "--format", "csv", "--out", "o", "--svg", "c.svg"])
@example(["two-level", "--samples", "1000000", "--format", "csv"])
@example(["two-level", "--samples", "100000", "--format", "json"])
@example(["identical-modes", "--n", "300", "--samples", "300000", "--format", "csv",
          "--out", "o", "--svg", "c.svg"])
@example(["figure1", "--m-list", "1", "--samples", "2001", "--out", "o"])
@example(["figure1", "--m-list", "1", "--samples", "2001", "--out", "o", "--svg", "c.svg"])
def test_series_commands_hold_no_more_than_their_count(argv):
    # the count a series command is refused by is never short of the
    # tracemalloc peak of the whole run, and from 4 MB up at most
    # _LOOSENESS times it; stdout goes to a file, so that no capture buffer
    # of the whole output is measured
    counts = []

    def preflight(paths, text_bytes=0, series_bytes=0, *args, **kwargs):
        counts.append(series_bytes)
        return preflight_once(paths, text_bytes, series_bytes, *args, **kwargs)

    preflight_once = cli._preflight
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, a) if a in ("o", "c.svg") else a for a in argv]
        with mock.patch.object(cli, "_preflight", preflight), \
             open(os.path.join(tmp, "stdout"), "w") as out, contextlib.redirect_stdout(out):
            peak, rc = traced_peak(main, argv)
    assert rc == 0
    assert counts == [_count(argv)]
    assert peak <= counts[0], (peak, counts[0])
    if counts[0] >= 4 * 10**6:
        assert counts[0] <= _LOOSENESS * peak, counts[0] / peak


def test_series_memory_budget_admits_the_largest_documented_runs():
    # identical-modes --n 100000 --samples 101 (70 MB of kernel arrays) and
    # every benchmark input (n and M up to 200, up to 1e5 samples), checked
    # without running them
    cli._preflight([], 0, _series_bytes(100_001, 101), "--n 100000")
    cli._preflight([], 0, _series_bytes(401, 100_000, 1), "--m-list 200")
    with pytest.raises(ValueError, match="--n 1000000 would take about"):
        cli._preflight([], 0, _series_bytes(1_000_001, 1000), "--n 1000000")


def test_two_level_samples_are_held_to_the_series_budget(tmp_path, capsys, monkeypatch):
    # two levels cost little beyond the arrays of one entry per sample, so
    # --samples alone is named; the check runs before any of them
    def count(samples):
        return _series_bytes(2, samples) + cli._HELD_BYTES * samples + cli._WRITER_BYTES

    size = count(101)
    out = tmp_path / "out.csv"
    monkeypatch.setattr(cli, "_SERIES_BUDGET_BYTES", size - 1)
    monkeypatch.setattr(np, "linspace", pytest.fail)
    assert main(["two-level", "--samples", "101", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: --samples 101 would take about {size} bytes of memory, above the budget "
        f"of {size - 1} bytes; lower it\n"))
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    # at the real budget: 104 bytes a sample put the limit of either
    # format near 1.03e7 samples
    largest = 10_315_436
    cli._preflight([], 0, count(largest), samples=largest)
    with pytest.raises(ValueError, match=f"^--samples {largest + 1} would take about"):
        cli._preflight([], 0, count(largest + 1), samples=largest + 1)


@pytest.mark.parametrize("argv, files", [
    (["two-level", "--samples", "1001", "--out", "o.csv"], ["o.csv"]),
    (["identical-modes", "--n", "50", "--samples", "1001", "--out", "o.csv", "--svg", "c.svg"],
     ["o.csv", "c.svg"]),
    (["figure1", "--m-list", "1,5,20", "--samples", "2001", "--out", "figs"],
     ["figs/figure1_M1.csv", "figs/figure1_M5.csv", "figs/figure1_M20.csv"]),
], ids=["two-level", "identical-modes-svg", "figure1"])
def test_series_csvs_never_reach_the_per_value_template(argv, files, tmp_path, monkeypatch):
    # times from 0 and probabilities in [0, 1]: every field is unsigned,
    # so the whole-array writer formats every table
    argv = [str(tmp_path / a) if a in ("o.csv", "c.svg", "figs") else a for a in argv]
    monkeypatch.setattr(_numtext, "csv_table_reference", pytest.fail)
    assert main(argv) == 0
    for name in files:
        assert (tmp_path / name).stat().st_size > 0


@pytest.mark.parametrize("eps0", ["1e6", "1e12", "1e15"])
@pytest.mark.parametrize("argv", [["two-level"], ["two-level", "--eps1", "+0.5"],
                                  ["identical-modes", "--n", "5"]],
                         ids=["two-level", "detuned", "identical-modes"])
def test_series_survival_is_computed_relative_to_eps0(argv, eps0, tmp_path):
    # P does not change under a common energy shift, so a large --eps0
    # costs the trace no digits: it matches the closed form up to the
    # file's 12 significant digits (--eps1 is --eps0 + 0.5 here)
    argv = [a if a != "+0.5" else repr(float(eps0) + 0.5) for a in argv]
    out = tmp_path / "s.csv"
    assert main(argv + ["--eps0", eps0, "--samples", "1001", "--out", str(out)]) == 0
    header, body = _read_csv(out)
    assert header == ["t", "P", "P_analytic"]
    assert np.abs(body[:, 1] - body[:, 2]).max() < 1e-10


@pytest.mark.parametrize("eps0", ["1e6", "1e12", "1e15", "1e308"])
def test_figure1_far_from_zero_is_the_dirichlet_form(eps0, tmp_path, capsys):
    # the revival sweep at a large --eps0 is the one at 0, digit for digit
    main(["figure1", "--m-list", "5", "--samples", "1001", "--out", str(tmp_path / "zero")])
    zero = capsys.readouterr().out
    assert main(["figure1", "--m-list", "5", "--samples", "1001", "--eps0", eps0,
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == zero
    _, body = _read_csv(tmp_path / "figure1_M5.csv")
    assert np.abs(body[:, 1] - dirichlet_survival(5, 1.0, body[:, 0])).max() < 1e-10
    for name in ("figure1_M5.csv", "figure1_M5_metrics.json"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()


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


def test_figure1_count_covers_every_kept_series(tmp_path):
    # figure1 keeps every M value's times and values, 16 bytes a sample
    # each, until its files are written, and its series count holds them:
    # at 200001 samples eight M values peak at 38.2 MiB, 21.4 MiB above one,
    # against counts of 39.8 and 18.4 MiB. A count of the largest M's series
    # alone (15.3 MiB for both) falls short. The few KB of Python objects a
    # kept series also holds come out of the slack of its kernel's count
    samples = 200_001
    for m_list in ("1", "1,1,1,1,1,1,1,1"):
        argv = ["figure1", "--m-list", m_list, "--samples", str(samples), "--out", str(tmp_path)]
        peak, rc = traced_peak(main, argv)
        assert rc == 0
        kept = len(m_list.split(","))
        assert peak <= _series_bytes(3, samples, kept), (kept, peak / 2**20)


def test_figure1_bad_threshold_writes_nothing(tmp_path, capsys):
    assert main(["figure1", "--m-list", "1,2", "--samples", "101",
                 "--threshold", "1.5", "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_figure1_rejects_empty_m_list():
    with pytest.raises(SystemExit) as exc:
        main(["figure1", "--m-list", ","])
    assert exc.value.code == 2
