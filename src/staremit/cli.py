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
import errno
import json
import os
import re
import sys
import tempfile
from functools import cache, partial
from pathlib import Path

import numpy as np

from ._numtext import (
    _BLOCK,
    CSV_FIELD_BYTES,
    JSON_FIELD_BYTES,
    SVG_POINT_BYTES,
    write_csv,
    write_json,
)
from .analysis import (
    emission_metrics,
    profile_survival,
    revival_period,
)
from .errors import DegenerateProfile, NonConvergence
from .evolution import SurvivalSeries, TimeGrid, _series_bytes, survival_probability
from .hermitian import eigh
from .inverse import (
    SpectralProfile,
    construct_hamiltonian,
    flat_profile,
    random_profile,
    verify_round_trip,
)
from .model import StarModel, detuned_two_level_survival, identical_modes_survival
from .svgplot import write_line_chart


# Output text a command may write, counted as rows times the widest CSV or
# JSON row plus the widest SVG points, and memory a run may take: the
# survival series, counted by evolution._series_bytes plus what the series
# commands hold beside it, or inverse's model and solves; larger --samples,
# --n, --m-list and --m values are refused up front.
OUTPUT_BUDGET_BYTES = 1 << 30
_SERIES_BUDGET_BYTES = 1 << 30

# What two-level and identical-modes hold beside the series count, in bytes
# a sample: its time, tau and closed form (8 bytes each; P is the kernel's
# own result). Every table, CSV or JSON, to a file or to stdout, and every
# chart is written a block at a time and holds no whole text: the writers'
# block buffers and temporaries take about 100 bytes a row of a block,
# whatever the sample count, and every series command counts them.
# Measured at 1e6 samples: 64 bytes a sample in all, against a count of 105.
_HELD_BYTES = 24
_WRITER_BYTES = 128 * _BLOCK

# What inverse holds, in bytes a level (2M + 1 of them) and in row blocks:
# the profile, the model, both O(n) solves and the model text. Measured by
# tracemalloc at M = 8000 with --out: 7.8 MB for a flat profile, 8.3 MB
# for a random one (a count of 9.6 MB); from M = 2000 to 20000 the peak
# grows by about 420 bytes a level.
_INVERSE_LEVEL_BYTES = 470
_INVERSE_BLOCK_BYTES = 2 << 20


def _preflight(paths, text_bytes=0, series_bytes=0, flag=None, samples=0, outdir=None,
               step=None) -> None:
    # runs once, before any model, profile, time grid or per-sample array
    # exists, in a fixed order: output directories (a file whose directory is
    # missing would fail only once the output is written, and after other
    # files of the run), output text, memory, the time grid's step. Without
    # a flag, --samples alone is to blame for the memory
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory {Path(path).parent}")
    if outdir:
        # figure1 makes its --out directory: the nearest existing ancestor must be one
        ancestor = next(p for p in (Path(outdir), *Path(outdir).parents) if p.exists())
        if not ancestor.is_dir():
            raise ValueError(f"cannot write {outdir}: {ancestor} is not a directory")
    if text_bytes > OUTPUT_BUDGET_BYTES:
        raise ValueError(
            f"the output would take up to {text_bytes} bytes of text, above the budget of "
            f"{OUTPUT_BUDGET_BYTES} bytes; lower --samples"
        )
    if series_bytes > _SERIES_BUDGET_BYTES:
        what = flag or f"--samples {samples}"
        raise ValueError(
            f"{what} would take about {series_bytes} bytes of memory, above the budget of "
            f"{_SERIES_BUDGET_BYTES} bytes; lower it{' or --samples' if flag and samples else ''}"
        )
    if step is not None and not step >= np.finfo(float).tiny:
        # below it the grid's times are subnormal, with fewer digits than a
        # double: a period or a sample would come out wrong, with exit 0
        raise ValueError(
            f"the time-grid step {step:.6g} is below the smallest normal double "
            f"{np.finfo(float).tiny:.6g}; raise the grid's span or lower --samples"
        )


def _write_text(path, write, *args) -> None:
    # write(fh, *args) writes the output to a binary temp file, renamed over
    # the target so concurrent runs never interleave partial output; a failed
    # write removes the temp file and names only the user's path
    target, tmp = Path(path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=f".{target.name}.")
        with os.fdopen(fd, "wb") as fh:
            write(fh, *args)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _put_text(fh, text: str) -> None:
    fh.write(text.encode())


class _Stdout:
    # a binary sink for the writers: each block of ASCII bytes goes to
    # whatever sys.stdout is at the time of the write (a caller may have
    # redirected it to a text buffer with no binary layer) and is flushed, so
    # a reader that closed stdout early (`| head`) fails the run here, not at
    # exit; a failed write or flush names stdout, as _write_text names its
    # path, and so does a process started with stdout closed, which has none
    def write(self, data) -> None:
        try:
            if sys.stdout is None:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(str(data, "ascii"))
            sys.stdout.flush()
        except OSError as exc:
            raise OSError(f"cannot write stdout: {exc.strerror or exc}") from exc


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


def _run_series(args, n: int, eps1: float, analytic, svg_title: str, flag=None) -> int:
    # exact survival of the emitter at --eps0 coupled by --alpha to n modes
    # at eps1, with the closed form `analytic(tau)` overlaid
    field_bytes = CSV_FIELD_BYTES if args.format == "csv" else JSON_FIELD_BYTES
    _preflight([args.out, args.svg],
               args.samples * (3 * field_bytes + (2 * SVG_POINT_BYTES if args.svg else 0)),
               _series_bytes(n + 1, args.samples) + _HELD_BYTES * args.samples + _WRITER_BYTES,
               flag, args.samples, step=args.t_max / (args.samples - 1))
    # P does not change when every energy moves by the same amount, so the
    # model is built relative to --eps0: a large --eps0 costs P no digits
    eps = np.zeros(n + 1)
    eps[1:] = eps1 - args.eps0
    model = StarModel(eps=eps, alpha=np.full(n, args.alpha, dtype=complex))
    ts = np.linspace(0.0, args.t_max, args.samples)
    tau = ts / args.hbar
    # the survival reads only the eigenvalues and weights; the eigenvectors
    # are never read, so never built: O(n) memory beyond the kernel's
    columns = {"P": survival_probability(eigh(model), tau), "P_analytic": analytic(tau)}
    _require_finite(ts, *columns.values())
    if args.format == "csv":
        write, table = write_csv, (ts, columns)
    else:
        write, table = write_json, ({"t": ts, **columns},)
    if args.out:
        _write_text(args.out, write, *table)
    else:
        write(_Stdout(), *table)
    if args.svg:
        curves = [(name, ts, values) for name, values in columns.items()]
        _write_text(args.svg, write_line_chart, curves, svg_title)
    return 0


def _cmd_two_level(args) -> int:
    eps1 = args.eps0 if args.eps1 is None else args.eps1
    analytic = partial(detuned_two_level_survival, args.eps0, eps1, args.alpha)
    return _run_series(args, 1, eps1, analytic, "two-level survival")


def _cmd_identical_modes(args) -> int:
    analytic = partial(identical_modes_survival, args.n, abs(args.alpha))
    return _run_series(args, args.n, args.eps0, analytic, f"identical modes, n={args.n}",
                       f"--n {args.n}")


def _load_profile(path: str) -> SpectralProfile:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        return SpectralProfile.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except TypeError as exc:  # a field of the wrong type, e.g. "m_half": 1.9
        raise ValueError(f"{path}: malformed field: {exc}") from exc


def _inverse_bytes(m_half: int) -> int:
    return _INVERSE_LEVEL_BYTES * (2 * m_half + 1) + _INVERSE_BLOCK_BYTES


def _cmd_inverse(args) -> int:
    # the memory is counted from --m before any profile exists, and for a
    # --profile, which --m does not size, as soon as it is read
    sized = args.profile is None and args.m is not None
    _preflight([args.out], series_bytes=_inverse_bytes(args.m) if sized else 0, flag=f"--m {args.m}")
    if args.profile is not None:
        profile = _load_profile(args.profile)
        _preflight([], series_bytes=_inverse_bytes(profile.m_half),
                   flag=f"{args.profile}: m_half {profile.m_half}")
    elif args.flat or args.seed is not None:
        if args.m is None:
            raise ValueError("--m is required with --flat or --seed")
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
        raise ValueError("need one of --profile, --flat, --seed")

    model = construct_hamiltonian(profile)
    report = verify_round_trip(model, profile, args.tol)
    if args.out:
        _write_text(args.out, write_json, model.to_dict())
        _put_text(_Stdout(), json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        combined = {"model": model.to_dict(), "report": report.to_dict()}
        _put_text(_Stdout(), json.dumps(combined, indent=2) + "\n")
    return 0 if report.passed else 4


def _cmd_figure1(args) -> int:
    # compute every trace and its metrics before writing anything, so a
    # bad input (say, a threshold outside (0, 1)) leaves no partial output;
    # --out is a directory, made once everything else has passed. The memory
    # counted is the largest M's series, every M's times and values, which
    # are kept until the files are written, and the writers' block buffers
    kept, m_max = len(args.m_list), max(args.m_list)
    _preflight([args.svg],
               args.samples * kept * (2 * CSV_FIELD_BYTES + (SVG_POINT_BYTES if args.svg else 0)),
               _series_bytes(2 * m_max + 1, args.samples, kept) + _WRITER_BYTES,
               f"--m-list {','.join(map(str, args.m_list))}", args.samples, outdir=args.out,
               step=args.periods * (revival_period(min(args.m_list), args.d) * args.hbar)
               / (args.samples - 1))
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
    curves, lines = [], []
    for m_half, period, series, metrics in runs:
        _write_text(outdir / f"figure1_M{m_half}.csv", write_csv, series.times, {"P": series.values})
        _write_text(outdir / f"figure1_M{m_half}_metrics.json", _put_text,
                    json.dumps(metrics.to_dict(), indent=2) + "\n")
        curves.append((f"M={m_half}", series.times, series.values))
        lines.append(
            f"M={m_half}: period={period:.6g}"
            f" decay_time={_show(metrics.decay_time)}"
            f" revival_time={_show(metrics.revival_time)}"
            f" window_fraction={_show(metrics.window_fraction)}\n"
        )
    if args.svg:
        _write_text(args.svg, write_line_chart, curves, "flat-profile survival revivals")
    # the summary lines follow the files, so a run that fails prints none
    _put_text(_Stdout(), "".join(lines))
    return 0


def _add_series_flags(p: argparse.ArgumentParser, t_max: float, samples: int) -> None:
    p.add_argument("--t-max", type=_positive_float, default=t_max, help="end of the time grid")
    p.add_argument("--samples", type=_samples_arg, default=samples, help="number of grid points")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--svg", help="also render an SVG line chart to this path")
    p.add_argument("--hbar", type=_positive_float, default=1.0,
                   help="display time scale; dynamics use hbar = 1 internally")


class _Parser(argparse.ArgumentParser):
    # argparse reads "-2e-3" as a flag, since its test for a negative number
    # knows no exponent; this one knows every negative decimal literal, so
    # "--eps1 -2e-3" reads as "--eps1=-2e-3". The subparsers share the class
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            # main reported the closed stdout; what its buffer still holds
            # goes nowhere, so that the flush at interpreter exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
