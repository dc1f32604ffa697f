"""In-memory span tracer installed around the public functions of staremit.

The tracer never edits the package: it rebinds, for the duration of a traced
round, every module attribute that refers to one of the layer functions
(``staremit.inverse.eigh``, ``staremit.cli.profile_survival``, ...), so calls
made inside the package become child spans of the calls that made them.
Per-layer figures (calls, busy time, self time, work counts) are derived from
the spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _phasors(dim: int, t) -> dict:
    # the kernel materialises a complex128 phasor matrix exp(-i E t)
    n = dim * int(np.size(t))
    return {"phasors": n, "bytes_computed": 16 * n}


def _oracle_matvecs(args, kwargs) -> dict:
    t = args[2] if len(args) > 2 else kwargs["t"]
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    steps = 0 if t == 0 else max(1, int(math.ceil(abs(t) / dt)))
    return {"matvecs": 4 * steps}


def _chart_points(args, kwargs) -> dict:
    curves = args[0] if args else kwargs["curves"]
    return {"points": sum(len(x) for _, x, _ in curves)}


# One entry per layer function: module, qualified name, work counts with
# their units, and a counter mapping (args, kwargs, result) to those counts.
# Units ending in "-computed" mark counts derived from input sizes; the
# others are read off the call's actual result.
LAYERS = (
    ("model", "build_hamiltonian", {"elements": "count-computed"},
     lambda a, k, r: {"elements": a[0].dim ** 2}),
    ("hermitian", "eigh", {"n3": "count-computed"},
     lambda a, k, r: {"n3": r.dim ** 3}),
    ("hermitian", "aggregate_degenerate", {"levels": "count"},
     lambda a, k, r: {"levels": int(r[0].size)}),
    ("inverse", "construct_hamiltonian", {"n3": "count-computed"},
     lambda a, k, r: {"n3": a[0].dim ** 3}),
    ("inverse", "verify_round_trip", {"failed": "count"},
     lambda a, k, r: {"failed": 0 if r.passed else 1}),
    ("evolution", "survival_probability",
     {"phasors": "count-computed", "bytes_computed": "B-computed"},
     lambda a, k, r: _phasors(a[0].dim, a[1])),
    ("evolution", "evolve_state", {}, None),
    ("evolution", "evolve_oracle", {"matvecs": "count-computed"},
     lambda a, k, r: _oracle_matvecs(a, k)),
    ("evolution", "SurvivalSeries.to_csv", {"bytes_out": "B"},
     lambda a, k, r: {"bytes_out": len(r.encode())}),
    ("analysis", "profile_survival",
     {"phasors": "count-computed", "bytes_computed": "B-computed"},
     lambda a, k, r: _phasors(a[0].dim, a[1])),
    ("analysis", "emission_metrics", {"samples": "count"},
     lambda a, k, r: {"samples": int(a[0].values.size)}),
    ("svgplot", "render_line_chart", {"points": "count"},
     lambda a, k, r: _chart_points(a, k)),
    # bytes written and exit status are recorded by the benchmark from
    # outside the call: the files and stdout a CLI run produced
    ("cli", "main", {"bytes_written": "B", "exit_nonzero": "count"}, None),
)

# Kernels whose throughput is reported as phasors per busy second.
THROUGHPUT = ("evolution.survival_probability", "analysis.profile_survival")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit, in order."""
    units = {}
    for mod_name, qual, counts, _ in LAYERS:
        name = f"{mod_name}.{qual}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        for key, unit in counts.items():
            units[f"{name}.{key}"] = unit
        if name in THROUGHPUT:
            units[f"{name}.phasors_per_s"] = "1/s"
    return units


class Tracer:
    """Collects spans ``[name, start, end, parent, item]`` and work counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, None, parent, tracer.item]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Rebind every staremit module attribute that names a layer function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "staremit" or n.startswith("staremit.")]
        for mod_name, qual, _, counter in LAYERS:
            home = importlib.import_module(f"staremit.{mod_name}")
            name = f"{mod_name}.{qual}"
            if "." in qual:  # a method: patch the class attribute once
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original, counter))
                continue
            original = getattr(home, qual)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                if getattr(mod, qual, None) is original:
                    self._patch(mod, qual, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def layer_totals(self) -> dict[str, float]:
        """Calls, busy and self time per layer function, plus work counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {key: 0 for key in metric_units()}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[idx]
        for key, value in self.counts.items():
            out[key] += value
        for name in THROUGHPUT:
            busy = out[f"{name}.busy_s"]
            out[f"{name}.phasors_per_s"] = out[f"{name}.phasors"] / busy if busy else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item}) + "\n")

