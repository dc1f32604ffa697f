"""staremit benchmark: one closed-loop client running one workload per process.

    python3 bench/run.py --workload inverse --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --workload dynamics --trace 1   # per-layer figures
    python3 bench/run.py --workload revival --smoke --seconds 1

The program is imported from ``src/`` next to this directory; nothing is
installed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md here for
the metrics, the workloads and the measured noise.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("inverse", "revival", "dynamics")

END_TO_END = {
    "setup_s": "s",
    "batch_cost": "ref",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
# Times in seconds are printed and recorded, the percentiles with their
# sample counts, but are not end-to-end metrics: the host's drift moves them
# between runs by more than any bound the benchmark may set (see README.md).
SECONDS = {"wall_s": "s", "item_s.p50": "s", "item_s.p90": "s"}

# A run repeats one batch of items in rounds. It keeps starting rounds while
# another round still fits in --seconds, and runs at least MIN_ROUNDS rounds
# and MIN_ITEMS items, so that every item's latency is a median over rounds
# and p90 has ten samples beyond it.
MIN_ROUNDS, MIN_ITEMS = 3, 100
# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 9
ACCURACY_CAP = 16.0

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc raises its mmap threshold after large blocks are freed, after which
# large arrays come from the heap and their pages stay resident once freed;
# the peak RSS would then depend on the order of allocations. A fixed
# threshold keeps every large array in its own mapping, so peak RSS follows
# the largest set of live arrays.
MMAP_THRESHOLD = 256 * 1024
M_MMAP_THRESHOLD = -3


def fix_mmap_threshold() -> bool:
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))
    except (OSError, AttributeError, TypeError):  # not glibc
        return False


def cap_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the CPUs this process may use; returns (cap, nproc).

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 1 <= int(value) <= nproc:
            cap = min(cap, int(value))
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap, nproc


def import_program():
    """Import staremit from this checkout's ``src/`` and the benchmark modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import staremit.cli  # noqa: F401  (the import set-up time includes)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import staremit from {src}: {exc}")
    import staremit

    origin = Path(staremit.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: staremit was imported from {origin}, not from {src}")
    import spans
    import workloads

    return spans, workloads


class ReferenceKernel:
    """A fixed piece of work that does not call staremit, timed before every item.

    The host's speed drifts by tens of percent over minutes (README.md,
    Noise). An item's cost is its latency divided by this kernel's time in
    the same round, so a host that runs everything slower leaves the cost
    unchanged. The kernel mixes the kinds of work the workloads do, because
    they drift by different amounts: small strided numpy updates in a Python
    loop (modified Gram-Schmidt), a pure-Python loop, a dense LAPACK
    eigensolve on the capped BLAS threads, and a stream through 8 MiB.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.basis = np.linalg.qr(rng.standard_normal((96, 96)))[0]
        a = rng.standard_normal((160, 160))
        self.sym = a + a.T
        self.stream = rng.standard_normal(1 << 20)
        self.sink = np.empty_like(self.stream)

    def __call__(self) -> float:
        np, basis = self.np, self.basis
        start = time.perf_counter()
        for _ in range(20):
            y = np.ones(96)
            for j in range(96):
                y -= (basis[:, j] @ y) * basis[:, j]
        total = 0
        for i in range(15_000):
            total += i * i
        for _ in range(2):
            np.linalg.eigh(self.sym)
            np.multiply(self.stream, 1.0001, out=self.sink)
        return time.perf_counter() - start


@dataclass
class ItemResult:
    latency: float
    ref: float  # the reference kernel's time just before the item
    failed: bool
    exact_error: float
    digest: bytes
    detail: str


class Runner:
    """Runs items of one workload in a scratch directory inside the checkout.

    An item repeated under the same key whose outputs are byte-identical to
    those of its first check keeps that check's verdict; any other output is
    checked in full. The checks cost as much as the items, so this leaves
    room for more rounds in a run.
    """

    def __init__(self, workloads, wl, workdir: Path):
        self.workloads = workloads
        self.wl = wl
        self.workdir = workdir
        self.reference = ReferenceKernel()
        self.checked = {}  # key -> (digest, verdict) of the item's first check

    def run_item(self, item, tag: str, tracer=None, key=None) -> ItemResult:
        out_dir = self.workdir / tag
        out_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.item = tag
        error = None
        ref = self.reference()
        start = time.perf_counter()
        try:
            data = self.wl.execute(item, out_dir)
        except Exception as exc:  # an item that raises is a failed item
            data, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        shutil.rmtree(out_dir)
        if error is not None:
            return ItemResult(latency, ref, True, 0.0, b"", error)
        if tracer is not None and "rc" in data:
            written = len(data["stdout"].encode()) + sum(len(b) for b in files.values())
            tracer.add("cli.main.bytes_written", written)
            tracer.add("cli.main.exit_nonzero", int(data["rc"] != 0))
        digest = hashlib.sha256()
        for part in self.wl.digest(data):
            digest.update(part)
        for name, content in files.items():
            digest.update(name.encode() + b"\0" + content)
        digest = digest.digest()
        known = self.checked.get(key)
        if known is not None and known[0] == digest:
            verdict = known[1]
        else:
            try:
                verdict = self.workloads.judge(self.wl.check(item, data, files))
            except Exception as exc:  # output the check cannot even parse
                verdict = self.workloads.Verdict(
                    True, 0.0, f"check raised {type(exc).__name__}: {exc}")
            if key is not None:
                self.checked.setdefault(key, (digest, verdict))
        return ItemResult(latency, ref, verdict.failed, verdict.exact_error, digest,
                          verdict.detail)

    def run_batch(self, batch, b: int, tracer=None) -> list[ItemResult]:
        return [self.run_item(item, f"b{b}i{i}", tracer, key=i) for i, item in enumerate(batch)]


def set_up(name: str, seed: int, smoke: bool, workdir: Path):
    """Import, generate the batch from the seed, warm up; returns its duration."""
    start = time.perf_counter()
    spans, workloads = import_program()
    import numpy as np

    wl = workloads.WORKLOADS[name](smoke)
    rng = np.random.default_rng(seed)
    batch = wl.batch(rng)
    runner = Runner(workloads, wl, workdir)
    for i, item in enumerate(wl.warmup()):
        warm = runner.run_item(item, f"warmup{i}")
        if warm.failed:
            raise SystemExit(f"error: warm-up item {item.kind} failed: {warm.detail}")
    return spans, runner, batch, time.perf_counter() - start


def probe_setup(args) -> float:
    """Time one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def measure(runner: Runner, batch, seconds: float, tracer, min_rounds: int, min_items: int):
    """Run the batch in rounds while another round fits in ``seconds``.

    With a tracer, each untraced round is followed by a traced rerun, which
    must produce byte-identical outputs, or its items count as failed.
    """
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        ran = traced if tracer is not None else plain
        if len(ran) >= min_rounds and len(ran) * len(batch) >= min_items:
            elapsed = time.perf_counter() - start
            if elapsed / len(plain) * (len(plain) + 1) > seconds:
                break
        b = len(plain)
        plain.append(runner.run_batch(batch, b))
        if tracer is None:
            continue
        tracer.install()
        try:
            results = runner.run_batch(batch, b, tracer)
        finally:
            tracer.uninstall()
        for base, res in zip(plain[-1], results):
            if base.digest != res.digest and not (base.failed or res.failed):
                res.failed = True
                res.detail = "traced outputs differ from untraced outputs"
        traced.append(results)
    return plain, traced


def percentile(values, q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def batch_wall(rounds: list[list[ItemResult]]) -> float:
    """Time to finish the batch: each item's median latency over the rounds, summed.

    The median drops the rounds in which the host stalled an item.
    """
    return sum(statistics.median(r[i].latency for r in rounds) for i in range(len(rounds[0])))


def batch_cost(rounds: list[list[ItemResult]]) -> float:
    """Cost of the batch in reference-kernel times.

    A round's kernel time is the median of the kernel timings in it, which
    steadies a single 25 ms timing. An item's cost in a round is its latency
    over that; the batch cost sums each item's median cost over the rounds.
    """
    refs = [statistics.median(r.ref for r in rnd) for rnd in rounds]
    return sum(statistics.median(rnd[i].latency / ref for rnd, ref in zip(rounds, refs))
               for i in range(len(rounds[0])))


def end_to_end(plain, setup_samples) -> dict:
    latencies = [r.latency for batch in plain for r in batch]
    worst = max(r.exact_error for batch in plain for r in batch)
    digits = ACCURACY_CAP if worst == 0 else min(ACCURACY_CAP, -math.log10(worst))
    return {
        "setup_s": statistics.median(setup_samples),
        "batch_cost": batch_cost(plain),
        "wall_s": batch_wall(plain),
        "item_s.p50": percentile(latencies, 50),
        "item_s.p90": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_digits": digits,
    }


def per_layer(spans, tracer, plain, traced) -> dict:
    """Per-round means of the traced layer figures, plus the tracing overhead."""
    totals = tracer.layer_totals()
    out = {key: value / len(traced) for key, value in totals.items()}
    for name in spans.THROUGHPUT:  # a ratio, not a per-round sum
        out[f"{name}.phasors_per_s"] = totals[f"{name}.phasors_per_s"]
    out["trace.spans"] = len(tracer.spans) / len(traced)
    out["trace.overhead_s"] = batch_wall(traced) - batch_wall(plain)
    return out


def layer_units(spans) -> dict:
    return {**spans.metric_units(), "trace.spans": "count", "trace.overhead_s": "s"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """The checkout's commit, read from .git if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, cap: int, nproc: int, fixed_mmap: bool, batch) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # older numpy: no dict mode
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": cap,
        "nproc": nproc,
        "mmap_threshold": MMAP_THRESHOLD if fixed_mmap else "allocator default",
        "cpu": cpu_model(),
        "commit": git_commit(),
        "items_per_batch": len(batch),
    }


def run_workload(args) -> int:
    cap, nproc = cap_blas_threads()
    fixed_mmap = fix_mmap_threshold()
    workdir = BENCH / ".work" / str(os.getpid())
    try:
        spans, runner, batch, own_setup = set_up(args.workload, args.seed, args.smoke, workdir)
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        samples = 2 if args.smoke else SETUP_SAMPLES
        setup_samples = [own_setup] + [probe_setup(args) for _ in range(samples - 1)]
        tracer = spans.Tracer() if args.trace else None
        min_rounds, min_items = (1, 1) if args.smoke else (MIN_ROUNDS, MIN_ITEMS)
        plain, traced = measure(runner, batch, args.seconds, tracer, min_rounds, min_items)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    results = [r for batch in plain + traced for r in batch]
    failures = [r for r in results if r.failed]
    e2e = end_to_end(plain, setup_samples)
    if tracer is not None:
        units = layer_units(spans)
        metrics = per_layer(spans, tracer, plain, traced)
    else:
        units, metrics = END_TO_END, e2e
    env = environment(args, cap, nproc, fixed_mmap, batch)
    latencies = [r.latency for batch in plain for r in batch]
    record = {
        "env": env,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "latency_s": [[r.latency for r in rnd] for rnd in plain],
        "ref_s": [[r.ref for r in rnd] for rnd in plain],
        "setup_samples_s": setup_samples,
        "latency_samples": len(latencies),
        "end_to_end": e2e,
        "per_layer": metrics if tracer is not None else None,
        "failures": [r.detail for r in failures[:20]],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(f"workload {args.workload}: seed {args.seed}, {len(plain)} rounds of a batch of "
          f"{env['items_per_batch']} items, {cap} BLAS threads on {nproc} CPUs "
          f"({env['cpu']}; python {env['python']}, numpy {env['numpy']}, {env['blas']})")
    notes = {"setup_s": f"median of {len(setup_samples)} set-ups",
             "batch_cost": f"per-item medians over {len(plain)} rounds",
             "wall_s": f"per-item medians over {len(plain)} rounds, not bounded",
             "item_s.p50": f"n={len(latencies)}, not bounded",
             "item_s.p90": f"n={len(latencies)}, not bounded"}
    for name, unit in {**END_TO_END, **SECONDS}.items():
        print(f"  {name:<18} {e2e[name]:>14.6g} {unit:<7} {notes.get(name, '')}")
    if tracer is not None:
        for name, unit in units.items():
            print(f"  {name:<52} {metrics[name]:>14.6g} {unit}")
    print(f"  items.attempted {len(results)}  items.failed {len(failures)}")
    for r in failures[:5]:
        print(f"  failed: {r.detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    """Run each workload in its own fresh interpreter and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
        status = max(status, done.returncode)
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="keep starting rounds while another fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: rerun each round with span tracing, report per-layer figures")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one round, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
