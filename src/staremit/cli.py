"""Command-line front end.

Subcommands: ``two-level`` and ``identical-modes`` (survival traces with
an analytic overlay), ``inverse`` (construct a star model from a spectral
profile and verify the round trip), ``figure1`` (flat-profile revival
sweep over several M values).

Exit codes: 0 ok, 2 usage or input error (including inputs whose results
overflow to non-finite values, inputs too large for the memory, and output
text above ``OUTPUT_BUDGET_BYTES``), 3 construction or eigensolver failure,
4 round-trip verification failure. Output files are written atomically
(temp file + rename), and identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import cache, partial
from pathlib import Path

import numpy as np

from ._numtext import (
    CSV_FIELD_BYTES,
    JSON_FIELD_BYTES,
    SVG_POINT_BYTES,
    csv_table,
    json_table,
)
from .analysis import (
    emission_metrics,
    profile_survival,
    revival_period,
)
from .errors import DegenerateProfile, NonConvergence
from .evolution import SurvivalSeries, TimeGrid, _survival
from .hermitian import _star_levels
from .inverse import (
    SpectralProfile,
    construct_hamiltonian,
    flat_profile,
    random_profile,
    verify_round_trip,
)
from .model import (
    StarModel,
    detuned_two_level_survival,
    identical_modes_survival,
    two_level_survival,
)
from .svgplot import render_line_chart


# Output text a command may write, counted as rows times the widest CSV or
# JSON row plus the widest SVG points; larger --samples are refused up front.
OUTPUT_BUDGET_BYTES = 1 << 30


def _check_output_size(rows: int, row_bytes: int) -> None:
    # runs before the time grid or any per-sample array is allocated
    size = rows * row_bytes
    if size > OUTPUT_BUDGET_BYTES:
        raise ValueError(
            f"the output would take up to {size} bytes of text, above the budget of "
            f"{OUTPUT_BUDGET_BYTES} bytes; lower --samples"
        )


# Text is written in slices of this many characters, so that encoding it
# reuses a small buffer instead of copying the whole output at once.
_WRITE_CHUNK = 1 << 15


def _write_text(path, text: str) -> None:
    # temp file + rename so concurrent runs never interleave partial output
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            for start in range(0, len(text), _WRITE_CHUNK):
                fh.write(text[start : start + _WRITE_CHUNK])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _samples_arg(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("need at least two samples")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _m_list(text: str) -> list[int]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise argparse.ArgumentTypeError("M list must not be empty")
    return [_positive_int(s.strip()) for s in items]


def _require_finite(*columns) -> None:
    # NaN/inf would otherwise be written as data rows and exit 0
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError("result is not finite; the inputs overflow double precision")


def _run_series(args, model: StarModel, analytic, svg_title: str) -> int:
    # exact survival of `model` with the closed form `analytic(tau)` overlaid
    field_bytes = CSV_FIELD_BYTES if args.format == "csv" else JSON_FIELD_BYTES
    _check_output_size(args.samples, 3 * field_bytes + (2 * SVG_POINT_BYTES if args.svg else 0))
    ts = np.linspace(0.0, args.t_max, args.samples)
    tau = ts / args.hbar
    # eigh(model)'s eigenvalues and weights, bit for bit, without its
    # eigenvector matrix: O(n) memory beyond the survival kernel's
    levels, weights = _star_levels(model)
    columns = {"P": _survival(levels, weights, tau), "P_analytic": analytic(tau)}
    _require_finite(ts, *columns.values())
    text = (csv_table if args.format == "csv" else json_table)(ts, columns)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.svg:
        curves = [(name, ts, values) for name, values in columns.items()]
        _write_text(args.svg, render_line_chart(curves, title=svg_title))
    return 0


def _cmd_two_level(args) -> int:
    eps1 = args.eps0 if args.eps1 is None else args.eps1
    model = StarModel(
        eps=np.array([args.eps0, eps1]), alpha=np.array([args.alpha], dtype=complex)
    )
    if eps1 == args.eps0:
        analytic = partial(two_level_survival, abs(args.alpha))
    else:
        analytic = partial(detuned_two_level_survival, args.eps0, eps1, args.alpha)
    return _run_series(args, model, analytic, "two-level survival")


def _cmd_identical_modes(args) -> int:
    model = StarModel(
        eps=np.full(args.n + 1, args.eps0),
        alpha=np.full(args.n, args.alpha, dtype=complex),
    )
    return _run_series(
        args,
        model,
        partial(identical_modes_survival, args.n, abs(args.alpha)),
        f"identical modes, n={args.n}",
    )


def _load_profile(path: str) -> SpectralProfile:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        return SpectralProfile.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except TypeError as exc:  # e.g. "m_half": null
        raise ValueError(f"{path}: malformed field: {exc}") from exc


def _cmd_inverse(args) -> int:
    if args.profile is not None:
        profile = _load_profile(args.profile)
    elif args.flat or args.seed is not None:
        if args.m is None:
            print("error: --m is required with --flat or --seed", file=sys.stderr)
            return 2
        if args.flat:
            profile = flat_profile(args.m, args.eps0, args.d)
        else:
            profile = random_profile(
                args.m,
                args.eps0,
                args.d,
                np.random.default_rng(args.seed),
                symmetric=args.symmetric,
            )
    else:
        print("error: need one of --profile, --flat, --seed", file=sys.stderr)
        return 2

    model = construct_hamiltonian(profile)
    report = verify_round_trip(model, profile, args.tol)
    if args.out:
        _write_text(args.out, json.dumps(model.to_dict(), indent=2) + "\n")
        sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        combined = {"model": model.to_dict(), "report": report.to_dict()}
        sys.stdout.write(json.dumps(combined, indent=2) + "\n")
    return 0 if report.passed else 4


def _cmd_figure1(args) -> int:
    # compute every trace and its metrics before writing anything, so a
    # bad input (say, a threshold outside (0, 1)) leaves no partial output
    _check_output_size(args.samples * len(args.m_list),
                       2 * CSV_FIELD_BYTES + (SVG_POINT_BYTES if args.svg else 0))
    runs = []
    for m_half in args.m_list:
        period = revival_period(m_half, args.d) * args.hbar
        grid = TimeGrid(0.0, args.periods * period, args.samples)
        profile = flat_profile(m_half, args.eps0, args.d)
        values = profile_survival(profile, grid.times() / args.hbar)
        _require_finite(values)
        series = SurvivalSeries(grid=grid, values=values)
        runs.append((m_half, period, series, emission_metrics(series, args.threshold)))

    def _show(x):
        return "none" if x is None else f"{x:.6g}"

    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    curves = []
    for m_half, period, series, metrics in runs:
        _write_text(outdir / f"figure1_M{m_half}.csv", series.to_csv())
        _write_text(
            outdir / f"figure1_M{m_half}_metrics.json",
            json.dumps(metrics.to_dict(), indent=2) + "\n",
        )
        curves.append((f"M={m_half}", series.times, series.values))
        print(
            f"M={m_half}: period={period:.6g}"
            f" decay_time={_show(metrics.decay_time)}"
            f" revival_time={_show(metrics.revival_time)}"
            f" window_fraction={_show(metrics.window_fraction)}"
        )
    if args.svg:
        _write_text(
            args.svg,
            render_line_chart(curves, title="flat-profile survival revivals"),
        )
    return 0


def _add_series_flags(p: argparse.ArgumentParser, t_max: float, samples: int) -> None:
    p.add_argument("--t-max", type=_positive_float, default=t_max, help="end of the time grid")
    p.add_argument("--samples", type=_samples_arg, default=samples, help="number of grid points")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--svg", help="also render an SVG line chart to this path")
    p.add_argument("--hbar", type=_positive_float, default=1.0,
                   help="display time scale; dynamics use hbar = 1 internally")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staremit",
        description="Survival dynamics of a two-level emitter star-coupled to N modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("two-level", help="single-mode survival trace")
    p.add_argument("--eps0", type=float, default=0.0, help="atom energy")
    p.add_argument("--eps1", type=float, default=None,
                   help="mode energy (default: resonant, equal to --eps0)")
    p.add_argument("--alpha", type=float, default=1.0, help="coupling strength")
    _add_series_flags(p, t_max=20.0, samples=1000)
    p.set_defaults(func=_cmd_two_level)

    p = sub.add_parser("identical-modes", help="n identical resonant modes")
    p.add_argument("--n", type=_positive_int, required=True, help="number of modes")
    p.add_argument("--eps0", type=float, default=0.0, help="common energy")
    p.add_argument("--alpha", type=float, default=1.0, help="common coupling")
    _add_series_flags(p, t_max=20.0, samples=1000)
    p.set_defaults(func=_cmd_identical_modes)

    p = sub.add_parser("inverse", help="construct a star model from a spectral profile")
    p.add_argument("--profile", help="read the profile from this JSON file")
    p.add_argument("--flat", action="store_true", help="use the flat profile")
    p.add_argument("--seed", type=int, default=None,
                   help="draw a random profile with this seed")
    p.add_argument("--symmetric", action="store_true",
                   help="mirror random profiles around m = 0")
    p.add_argument("--m", type=_positive_int, default=None, help="half-width M")
    p.add_argument("--d", type=_positive_float, default=1.0, help="spectral half-width D")
    p.add_argument("--eps0", type=float, default=0.0, help="center energy")
    p.add_argument("--tol", type=_positive_float, default=1e-8,
                   help="round-trip verification tolerance: on eigenvalue errors "
                        "relative to --d (beyond the rounding of the level ladder), "
                        "and on overlap weight errors")
    p.add_argument("--out", help="write the star model JSON here (default: stdout)")
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("figure1", help="flat-profile revival sweep over several M")
    p.add_argument("--m-list", type=_m_list, default=[1, 2, 5, 20],
                   help="comma-separated M values (default 1,2,5,20)")
    p.add_argument("--d", type=_positive_float, default=1.0, help="spectral half-width D")
    p.add_argument("--eps0", type=float, default=0.0, help="center energy")
    p.add_argument("--periods", type=_positive_float, default=2.0,
                   help="how many revival periods to cover")
    p.add_argument("--samples", type=_samples_arg, default=4001)
    p.add_argument("--threshold", type=float, default=0.01,
                   help="emission metrics threshold")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--svg", help="combined SVG chart path")
    p.add_argument("--hbar", type=_positive_float, default=1.0)
    p.set_defaults(func=_cmd_figure1)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # overflow to inf/NaN is reported by _require_finite, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (DegenerateProfile, NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the grid or the model is too large
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
