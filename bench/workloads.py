"""The benchmark's three workloads: inputs, the timed call sequence, and checks.

Each workload turns a seeded generator into a batch of items. Executing an
item is the timed part: it calls staremit exactly as a user would, through
the library or through ``staremit.cli.main``. Checking an item is untimed: it
compares the item's outputs with references the benchmark computes itself
(closed forms, the Dirichlet kernel, an independent dense solve) and returns
one ``Check`` per comparison.

Sizes are log-uniform on a fixed grid: a batch of n items takes the
midpoints of n equal slices of the log range, and kinds are assigned by size
rank. The seed draws everything else (weights, energies, couplings, time
spans, which items go through the CLI, and the order). The cost of one item
grows like the cube of its size, so a few large items dominate a batch; with
random sizes the batch time would move by several percent from seed to seed
for that reason alone.
"""

from __future__ import annotations

import io
import json
import math
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import staremit.cli as cli
from staremit import evolution, hermitian, inverse, model

# Tolerances from the acceptance suite.
ROUND_TRIP_TOL = 1e-8
EXACT_TOL = 1e-10
RK4_TOL = 1e-6

# Crossing times are interpolated between samples; the program and the
# reference may round the sample values differently in the last digits, so
# the crossing times agree to a small fraction of a grid step.
CROSSING_TOL_STEPS = 1e-6

# figure1 runs keep the CLI's defaults for these
FIGURE1_PERIODS = 2.0
FIGURE1_THRESHOLD = 0.01

# Largest level-count x sample-count product one revival item may request:
# the survival kernel holds a complex matrix of that many entries (64 MB).
REVIVAL_PHASOR_BUDGET = 4_000_000


@dataclass
class Item:
    """One unit of work: a kind tag and the inputs it needs."""

    kind: str
    spec: dict


@dataclass
class Check:
    """One comparison of an output with its reference.

    ``exact`` marks comparisons against an exact reference; their errors
    make up the accuracy figure. RK4 and structural checks are gated but
    not part of it.
    """

    label: str
    error: float
    tol: float
    exact: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.error <= self.tol)  # NaN fails


@dataclass
class Verdict:
    failed: bool
    exact_error: float
    detail: str = ""


def judge(checks: list[Check]) -> Verdict:
    """Gate an item: it fails if any check exceeds its tolerance."""
    bad = [c for c in checks if not c.passed]
    exact = [c.error for c in checks if c.exact]
    detail = "; ".join(f"{c.label}: {c.error:.3g} > {c.tol:g}" for c in bad)
    return Verdict(failed=bool(bad), exact_error=max(exact, default=0.0), detail=detail)


def log_grid(n: int, lo: float, hi: float) -> list[int]:
    """Midpoints of n equal slices of [log lo, log hi], rounded, ascending."""
    u = (np.arange(n) + 0.5) / n
    return [int(round(v)) for v in np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))]


def shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def run_cli(argv: list[str]) -> dict:
    """Call ``staremit.cli.main`` in process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_checks(data: dict) -> list[Check]:
    return [Check("cli exit code", float(data["rc"] != 0), 0.0, exact=False)]


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _structural(label: str, ok: bool) -> Check:
    return Check(label, 0.0 if ok else math.inf, 0.0, exact=False)


class Inverse:
    """Profile -> Hamiltonian construction plus round-trip verification.

    Exercises the O(n^3) Gram-Schmidt construction and the eigh inside
    verification; no survival kernel, SVG or metrics run here.
    """

    name = "inverse"
    kinds = ("flat", "random", "symmetric")

    def __init__(self, smoke: bool = False):
        self.strata, self.m_range, self.cli_items = (5, (2, 12), 2) if smoke else (19, (8, 250), 4)
        # ROADMAP's reference CLI run; it stands for the top of the size range
        self.fixed = ["inverse", "--m", "12" if smoke else "250", "--seed", "7"]

    def batch(self, rng: np.random.Generator) -> list[Item]:
        n = self.strata
        via_cli = set(rng.permutation(n)[: self.cli_items].tolist())
        items = []
        for i, m_half in enumerate(log_grid(n, *self.m_range)):
            kind = self.kinds[i % 3]
            eps0, d = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.5, 3.0))
            seed = int(rng.integers(2**31))
            if kind == "flat":
                profile = inverse.flat_profile(m_half, eps0, d)
                argv = ["inverse", "--flat"]
            else:
                symmetric = kind == "symmetric"
                profile = inverse.random_profile(
                    m_half, eps0, d, np.random.default_rng(seed), symmetric=symmetric)
                argv = ["inverse", "--seed", str(seed)] + (["--symmetric"] if symmetric else [])
            argv += ["--m", str(m_half), f"--d={d!r}", f"--eps0={eps0!r}"]
            if i in via_cli:
                items.append(Item("inverse-cli", {"argv": argv, "profile": profile}))
            else:
                items.append(Item(f"inverse-{kind}", {"profile": profile}))
        m_fixed = int(self.fixed[2])
        fixed_profile = inverse.random_profile(m_fixed, 0.0, 1.0, np.random.default_rng(7))
        items.append(Item("inverse-cli", {"argv": self.fixed, "profile": fixed_profile}))
        return shuffled(rng, items)

    def warmup(self) -> list[Item]:
        p = inverse.flat_profile(3, 0.0, 1.0)
        return [Item("inverse-flat", {"profile": p}),
                Item("inverse-cli", {"argv": ["inverse", "--flat", "--m", "3"], "profile": p})]

    def execute(self, item: Item, workdir: Path) -> dict:
        if item.kind == "inverse-cli":
            return run_cli(item.spec["argv"] + ["--out", str(workdir / "model.json")])
        p = item.spec["profile"]
        star = inverse.construct_hamiltonian(p)
        report = inverse.verify_round_trip(star, p, ROUND_TRIP_TOL)
        return {"model": star, "report": report}

    def digest(self, data: dict) -> list:
        if "rc" in data:
            return [json.dumps(data, sort_keys=True).encode()]
        star = data["model"]
        return [star.eps, star.alpha, json.dumps(data["report"].to_dict(), sort_keys=True).encode()]

    def check(self, item: Item, data: dict, files: dict) -> list[Check]:
        profile = item.spec["profile"]
        if "rc" in data:
            checks = cli_checks(data)
            if data["rc"] != 0:
                return checks
            star = model.StarModel.from_dict(json.loads(files["model.json"]))
            passed = json.loads(data["stdout"])["passed"]
        else:
            checks = []
            star, passed = data["model"], data["report"].passed
        checks.append(_structural("reported round trip passed", passed is True))
        checks.append(Check("round trip vs target profile",
                            self.round_trip_error(star, profile), ROUND_TRIP_TOL))
        return checks

    @staticmethod
    def round_trip_error(star, profile) -> float:
        """Re-diagonalise the model independently and compare with the target.

        The constructed couplings are real, so the real symmetric solver
        applies; it shares no code path with the program's complex one.
        """
        if star.dim != profile.dim:
            return math.inf
        dim = star.dim
        real = not np.any(star.alpha.imag)
        h = np.zeros((dim, dim), dtype=float if real else complex)
        h[np.arange(dim), np.arange(dim)] = star.eps
        h[1:, 0] = star.alpha.real if real else star.alpha
        h[0, 1:] = np.conj(h[1:, 0])
        e, v = np.linalg.eigh(h)
        ladder = profile.eps0 + np.arange(-profile.m_half, profile.m_half + 1) / profile.m_half * profile.d_width
        return max(_max_abs(e, ladder), _max_abs(np.abs(v[0]) ** 2, profile.overlaps))


def dirichlet(m_half: int, d_width: float, t: np.ndarray) -> np.ndarray:
    """Flat-profile survival ``[sin((2M+1)x) / ((2M+1) sin x)]^2``, x = D t / 2M."""
    x = 0.5 * d_width * t / m_half
    r = x - np.pi * np.round(x / np.pi)  # the kernel is pi-periodic in x
    n = 2 * m_half + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.where(np.sin(r) == 0.0, 1.0, np.sin(n * r) / (n * np.sin(r)))
    return amp * amp


def crossings(ts, vs, threshold):
    """Decay time, revival time and post-decay maximum of a sampled trace.

    Decay: first down-crossing of ``threshold``. Revival: first up-crossing
    of ``1 - threshold`` after the trace has been at or below that level
    since the decay. Post-decay maximum: largest sample strictly between.
    """
    below = np.flatnonzero(vs < threshold)
    if not below.size:
        return None, None, None
    i = int(below[0])
    decay = ts[0] if i == 0 else ts[i - 1] + (threshold - vs[i - 1]) / (vs[i] - vs[i - 1]) * (ts[i] - ts[i - 1])
    level = 1.0 - threshold
    revival = None
    low = np.flatnonzero(vs[i:] <= level)
    if low.size:
        start = i + int(low[0])
        high = np.flatnonzero(vs[start:] > level)
        if high.size:
            k = start + int(high[0])
            revival = ts[k - 1] + (level - vs[k - 1]) / (vs[k] - vs[k - 1]) * (ts[k] - ts[k - 1])
    inside = (ts > decay) & (ts < (np.inf if revival is None else revival))
    peak = float(vs[inside].max()) if inside.any() else None
    return decay, revival, peak


def _read_csv(text: bytes, header: str) -> np.ndarray | None:
    lines = text.split(b"\n", 1)
    if lines[0].decode() != header:
        return None
    return np.loadtxt(io.BytesIO(lines[1]), delimiter=",", ndmin=2)


def _svg_check(text: bytes, curves: int, samples: int) -> Check:
    root = ET.fromstring(text)
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    ok = len(lines) == curves and all(len(p.get("points").split()) == samples for p in lines)
    return _structural("svg polylines", ok)


class Revival:
    """The paper's Figure-1 sweep and the closed-form traces, through the CLI.

    Work is in the survival kernel (many times, few levels), emission
    metrics, CSV formatting and SVG output; the largest survival
    temporaries set the peak memory.
    """

    name = "revival"

    def __init__(self, smoke: bool = False):
        if smoke:
            self.n_figure, self.n_closed, self.m_range, self.s_range, self.big = 2, 1, (1, 10), (200, 2000), 2000
        else:
            self.n_figure, self.n_closed, self.m_range, self.s_range, self.big = 12, 6, (1, 200), (1000, 100_000), 100_000

    def batch(self, rng: np.random.Generator) -> list[Item]:
        # deal the sample counts out in size order so every kind spans the
        # range; large M meets large S, so some items reach the phasor budget
        grid = log_grid(self.n_figure + 2 * self.n_closed, *self.s_range)
        s_figure, s_two, s_identical = sorted(grid[0::4] + grid[1::4]), grid[2::4], grid[3::4]
        items = [
            Item("figure1", {"argv": ["figure1"], "m_list": [1, 2, 5, 20], "samples": 4001,
                             "d": 1.0}),
            self._two_level(0.0, None, 1.0, 20.0, self.big),
        ]
        for m_half, s in zip(log_grid(self.n_figure, *self.m_range), s_figure):
            s = min(s, REVIVAL_PHASOR_BUDGET // (2 * m_half + 1))
            d, eps0 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
            argv = ["figure1", "--m-list", str(m_half), "--samples", str(s),
                    f"--d={d!r}", f"--eps0={eps0!r}"]
            items.append(Item("figure1", {"argv": argv, "m_list": [m_half], "samples": s, "d": d}))
        for i, s in enumerate(s_two):
            eps0, alpha = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.2, 2.0))
            eps1 = None if i % 2 == 0 else eps0 + float(rng.uniform(-1.0, 1.0))
            items.append(self._two_level(eps0, eps1, alpha, float(rng.uniform(5.0, 50.0)), s))
        for n, s in zip(log_grid(self.n_closed, 1, 200), s_identical):
            eps0, alpha = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.2, 2.0))
            t_max = float(rng.uniform(5.0, 50.0))
            s = min(s, REVIVAL_PHASOR_BUDGET // (n + 1))
            argv = ["identical-modes", "--n", str(n), f"--eps0={eps0!r}", f"--alpha={alpha!r}",
                    f"--t-max={t_max!r}", "--samples", str(s)]
            items.append(Item("identical-modes", {"argv": argv, "n": n, "alpha": alpha,
                                                  "t_max": t_max, "samples": s}))
        return shuffled(rng, items)

    @staticmethod
    def _two_level(eps0, eps1, alpha, t_max, samples) -> Item:
        if eps1 is None and (eps0, alpha, t_max) == (0.0, 1.0, 20.0):
            argv = ["two-level", "--samples", str(samples)]
        else:
            argv = ["two-level", f"--eps0={eps0!r}", f"--alpha={alpha!r}",
                    f"--t-max={t_max!r}", "--samples", str(samples)]
            if eps1 is not None:
                argv.append(f"--eps1={eps1!r}")
        return Item("two-level", {"argv": argv, "eps0": eps0,
                                  "eps1": eps0 if eps1 is None else eps1,
                                  "alpha": alpha, "t_max": t_max, "samples": samples})

    def warmup(self) -> list[Item]:
        return [Item("figure1", {"argv": ["figure1", "--m-list", "2", "--samples", "101"],
                                 "m_list": [2], "samples": 101, "d": 1.0}),
                self._two_level(0.0, None, 1.0, 20.0, 101)]

    def execute(self, item: Item, workdir: Path) -> dict:
        if item.kind == "figure1":
            argv = item.spec["argv"] + ["--out", str(workdir), "--svg", str(workdir / "chart.svg")]
        else:
            argv = item.spec["argv"] + ["--out", str(workdir / "series.csv"),
                                        "--svg", str(workdir / "chart.svg")]
        return run_cli(argv)

    def digest(self, data: dict) -> list:
        return [json.dumps(data, sort_keys=True).encode()]

    def check(self, item: Item, data: dict, files: dict) -> list[Check]:
        checks = cli_checks(data)
        if data["rc"] != 0:
            return checks
        spec = item.spec
        s = spec["samples"]
        if item.kind != "figure1":
            table = _read_csv(files["series.csv"], "t,P,P_analytic")
            if table is None or table.shape != (s, 3):
                return checks + [_structural("csv layout", False)]
            t = np.linspace(0.0, spec["t_max"], s)
            if item.kind == "two-level":
                a2 = spec["alpha"] ** 2
                delta = 0.5 * (spec["eps1"] - spec["eps0"])
                omega = math.sqrt(a2 + delta * delta)
                ref = 1.0 - a2 / omega**2 * np.sin(omega * t) ** 2
            else:
                ref = np.cos(math.sqrt(spec["n"]) * spec["alpha"] * t) ** 2
            checks += [
                Check("time grid", _max_abs(table[:, 0], t), EXACT_TOL * spec["t_max"], exact=False),
                Check("P vs closed form", _max_abs(table[:, 1], ref), EXACT_TOL),
                Check("P_analytic vs closed form", _max_abs(table[:, 2], ref), EXACT_TOL),
                _svg_check(files["chart.svg"], 2, s),
            ]
            return checks
        for m_half in spec["m_list"]:
            table = _read_csv(files[f"figure1_M{m_half}.csv"], "t,P")
            if table is None or table.shape != (s, 2):
                return checks + [_structural(f"M={m_half} csv layout", False)]
            t_end = FIGURE1_PERIODS * 2.0 * math.pi * m_half / spec["d"]
            t = np.linspace(0.0, t_end, s)
            ref = dirichlet(m_half, spec["d"], t)
            checks.append(Check(f"M={m_half} time grid", _max_abs(table[:, 0], t),
                                EXACT_TOL * t_end, exact=False))
            checks.append(Check(f"M={m_half} P vs Dirichlet", _max_abs(table[:, 1], ref), EXACT_TOL))
            got = json.loads(files[f"figure1_M{m_half}_metrics.json"])
            decay, revival, peak = crossings(t, ref, FIGURE1_THRESHOLD)
            step_tol = CROSSING_TOL_STEPS * t_end / (s - 1)
            for label, want, tol, exact in (("decay_time", decay, step_tol, False),
                                            ("revival_time", revival, step_tol, False),
                                            ("post_decay_max", peak, EXACT_TOL, True)):
                have = got[label]
                if want is None or have is None:
                    checks.append(_structural(f"M={m_half} {label} presence",
                                              want is None and have is None))
                else:
                    checks.append(Check(f"M={m_half} {label}", abs(have - want), tol, exact))
            wf = got["window_fraction"]
            checks.append(_structural(f"M={m_half} window_fraction range",
                                      wf is None or 0.0 <= wf <= 1.0))
        checks.append(_svg_check(files["chart.svg"], len(spec["m_list"]), s))
        return checks


def survival_reference(levels, weights, t, block: int = 256) -> np.ndarray:
    """``|sum_n w_n exp(-i E_n t)|^2`` from cosines and sines, in time blocks."""
    out = np.empty(t.size)
    for a in range(0, t.size, block):
        ph = np.multiply.outer(levels, t[a:a + block])
        out[a:a + block] = (weights @ np.cos(ph)) ** 2 + (weights @ np.sin(ph)) ** 2
    return out


class Dynamics:
    """Forward dynamics of physical star models, including degenerate ones.

    Dense eigh of unstructured and degenerate spectra dominates; the
    survival kernel runs many levels at few times; the small models also
    run the RK4 oracle.
    """

    name = "dynamics"
    samples = 2001
    oracle_times = (2.5, 10.0)

    def __init__(self, smoke: bool = False):
        self.strata, self.dim_range, self.oracle = (6, (4, 32), 1) if smoke else (27, (8, 1024), 8)

    def batch(self, rng: np.random.Generator) -> list[Item]:
        items = []
        # every fourth size rank is degenerate, alternately identical modes
        # and zero couplings; one more model of the largest size sets the
        # batch's peak memory and much of its eigh time
        dims = log_grid(self.strata, *self.dim_range) + [self.dim_range[1]]
        degenerate = list(range(1, self.strata, 4))
        identical, zeroed = set(degenerate[0::2]), set(degenerate[1::2])
        for i, dim in enumerate(dims):
            n = dim - 1
            scale = 1.0 / math.sqrt(n)
            t_max = float(rng.uniform(5.0, 40.0))
            if i in identical:
                eps0 = float(rng.uniform(-1.0, 1.0))
                a = rng.uniform(0.5, 1.5) * scale * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
                star = model.StarModel(np.full(dim, eps0), np.full(n, a, dtype=complex))
                kind = "identical"
            else:
                eps = rng.uniform(-1.0, 1.0, dim)
                alpha = scale * (rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n))
                kind = "random"
                if i in zeroed:
                    alpha[rng.uniform(size=n) < rng.uniform(0.3, 0.9)] = 0.0
                    kind = "zero-couplings"
                star = model.StarModel(eps, alpha)
            items.append(Item(kind, {"model": star, "t_max": t_max}))
        for _ in range(self.oracle):
            dim = int(rng.integers(2, 10))
            eps = rng.uniform(-1.0, 1.0, dim)
            alpha = rng.uniform(-1.0, 1.0, dim - 1) + 1j * rng.uniform(-1.0, 1.0, dim - 1)
            items.append(Item("oracle", {"model": model.StarModel(eps, alpha),
                                         "t_max": float(rng.uniform(5.0, 40.0))}))
        return shuffled(rng, items)

    def warmup(self) -> list[Item]:
        star = model.StarModel(np.array([0.0, 0.5, -0.5]), np.array([0.3, 0.4j]))
        return [Item("oracle", {"model": star, "t_max": 5.0})]

    def execute(self, item: Item, workdir: Path) -> dict:
        star, t_max = item.spec["model"], item.spec["t_max"]
        h = model.build_hamiltonian(star)
        d = hermitian.eigh(h)
        ts = np.linspace(0.0, t_max, self.samples)
        p = evolution.survival_probability(d, ts)
        psi0 = np.zeros(star.dim, dtype=complex)
        psi0[0] = 1.0
        te = (t_max / 3.0, 2.0 * t_max / 3.0, t_max)
        states = [evolution.evolve_state(d, psi0, t) for t in te]
        out = {"h": h, "d": d, "ts": ts, "p": p, "te": te, "states": states}
        if item.kind == "oracle":
            dt = 0.01 / np.linalg.norm(h)
            out["rk4"] = [evolution.evolve_oracle(h, psi0, t, dt) for t in self.oracle_times]
        return out

    def digest(self, data: dict) -> list:
        parts = [data["d"].eigenvalues, data["d"].eigenvectors, data["p"], *data["states"],
                 *data.get("rk4", [])]
        return [np.ascontiguousarray(x) for x in parts]

    def check(self, item: Item, data: dict, files: dict) -> list[Check]:
        h, d, ts, p = data["h"], data["d"], data["ts"], data["p"]
        e, v = d.eigenvalues, d.eigenvectors
        dim = e.size
        scale = max(1.0, float(np.abs(h).max()))
        residual = ortho = 0.0
        vh = v.conj().T
        for a in range(0, dim, 128):  # column blocks keep the check's memory small
            blk = v[:, a:a + 128]
            residual = max(residual, float(np.abs(h @ blk - blk * e[a:a + 128]).max()))
            gram = vh @ blk
            gram[np.arange(a, a + blk.shape[1]), np.arange(blk.shape[1])] -= 1.0
            ortho = max(ortho, float(np.abs(gram).max()))
        w = np.abs(v[0]) ** 2
        checks = [
            Check("eigen residual", residual / scale, EXACT_TOL),
            Check("eigenvector orthonormality", ortho, EXACT_TOL),
            Check("cached overlaps", _max_abs(d.zero_overlaps, w), EXACT_TOL),
            Check("P vs reference kernel", _max_abs(p, survival_reference(e, w, ts)), EXACT_TOL),
        ]
        star = item.spec["model"]
        if item.kind == "identical":
            n, a = star.n_modes, abs(star.alpha[0])
            split = math.sqrt(n) * a
            eps0 = star.eps[0]
            want = np.sort(np.concatenate(([eps0 - split, eps0 + split], np.full(n - 1, eps0))))
            checks += [
                Check("spectrum vs closed form", _max_abs(e, want), EXACT_TOL),
                Check("P vs cos^2(sqrt(n)|alpha|t)", _max_abs(p, np.cos(split * ts) ** 2), EXACT_TOL),
            ]
        elif item.kind == "zero-couplings":
            keep = np.concatenate(([True], star.alpha != 0))
            sub = h[np.ix_(keep, keep)]
            es, vs = np.linalg.eigh(sub)
            dark = star.eps[1:][star.alpha == 0]
            gap = max((float(np.abs(e - x).min()) for x in dark), default=0.0)
            checks += [
                Check("P vs coupled-subsystem reference",
                      _max_abs(p, survival_reference(es, np.abs(vs[0]) ** 2, ts)), EXACT_TOL),
                Check("decoupled modes are eigenvalues", gap, EXACT_TOL),
            ]
        p_te = survival_reference(e, w, np.asarray(data["te"]))
        for t, psi, pt in zip(data["te"], data["states"], p_te):
            checks.append(Check(f"norm of psi({t:.3g})", abs(float(np.linalg.norm(psi)) - 1.0), EXACT_TOL))
            checks.append(Check(f"|<0|psi({t:.3g})>|^2 vs P", abs(abs(psi[0]) ** 2 - pt), EXACT_TOL))
        if "rk4" in data:
            p_ref = survival_reference(e, w, np.asarray(self.oracle_times))
            for t, psi, pt in zip(self.oracle_times, data["rk4"], p_ref):
                checks.append(Check(f"RK4 vs spectral at t={t}", abs(abs(psi[0]) ** 2 - pt),
                                    RK4_TOL, exact=False))
        return checks


WORKLOADS = {w.name: w for w in (Inverse, Revival, Dynamics)}

