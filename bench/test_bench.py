"""Tests of the benchmark itself: the correctness gate, the result format,
and refusal to run without the program. Run with

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

spans, workloads = run.import_program()
from staremit import model  # noqa: E402  (importable once run has set the path)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first(batch, kind):
    return next(item for item in batch if item.kind == kind)


def _execute(wl, item, tmp_path):
    data = wl.execute(item, tmp_path)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    return data, files


@pytest.fixture
def batches():
    rng = np.random.default_rng(5)
    return {name: (cls(smoke=True), cls(smoke=True).batch(rng))
            for name, cls in workloads.WORKLOADS.items()}


def test_gate_passes_true_inverse_results_and_fails_perturbed_ones(batches, tmp_path):
    wl, batch = batches["inverse"]
    item = next(i for i in batch if i.kind != "inverse-cli")
    data, files = _execute(wl, item, tmp_path)
    assert not workloads.judge(wl.check(item, data, files)).failed
    star = data["model"]
    bent = dict(data, model=model.StarModel(star.eps, star.alpha * (1 + 1e-6)))
    assert workloads.judge(wl.check(item, bent, files)).failed


def test_gate_fails_perturbed_cli_model_and_nonzero_exit(batches, tmp_path):
    wl, batch = batches["inverse"]
    item = _first(batch, "inverse-cli")
    data, files = _execute(wl, item, tmp_path)
    assert not workloads.judge(wl.check(item, data, files)).failed
    saved = json.loads(files["model.json"])
    saved["eps"][0] += 1e-6
    bent = dict(files, **{"model.json": json.dumps(saved).encode()})
    assert workloads.judge(wl.check(item, data, bent)).failed
    assert workloads.judge(wl.check(item, dict(data, rc=4), files)).failed


def test_gate_fails_perturbed_survival_csv(batches, tmp_path):
    wl, batch = batches["revival"]
    for kind, name in (("figure1", None), ("two-level", "series.csv")):
        item = _first(batch, kind)
        out = tmp_path / kind
        out.mkdir()
        data, files = _execute(wl, item, out)
        assert not workloads.judge(wl.check(item, data, files)).failed
        name = name or next(n for n in files if n.endswith(".csv"))
        lines = files[name].decode().split("\n")
        t, p, *rest = lines[5].split(",")
        lines[5] = ",".join([t, f"{float(p) + 1e-9:.11e}", *rest])
        bent = dict(files, **{name: "\n".join(lines).encode()})
        verdict = workloads.judge(wl.check(item, data, bent))
        assert verdict.failed and "P" in verdict.detail


def test_gate_fails_perturbed_dynamics_and_rk4(batches, tmp_path):
    wl, batch = batches["dynamics"]
    item = _first(batch, "oracle")
    data, files = _execute(wl, item, tmp_path)
    assert not workloads.judge(wl.check(item, data, files)).failed
    assert workloads.judge(wl.check(item, dict(data, p=data["p"] + 1e-9), files)).failed
    rk4 = [psi * np.sqrt(1 + 1e-5) for psi in data["rk4"]]
    verdict = workloads.judge(wl.check(item, dict(data, rk4=rk4), files))
    assert verdict.failed and "RK4" in verdict.detail


def test_runner_counts_exceptions_as_failures(tmp_path):
    wl = workloads.Inverse(smoke=True)
    runner = run.Runner(workloads, wl, tmp_path)
    result = runner.run_item(workloads.Item("inverse-flat", {}), "broken")
    assert result.failed and "KeyError" in result.detail


def test_a_repeated_item_with_other_outputs_is_checked_again(batches, tmp_path):
    wl, batch = batches["inverse"]
    item = next(i for i in batch if i.kind != "inverse-cli")
    runner = run.Runner(workloads, wl, tmp_path)
    assert not runner.run_item(item, "first", key=0).failed
    assert not runner.run_item(item, "same", key=0).failed
    execute = wl.execute

    def bent(item, workdir):
        data = execute(item, workdir)
        star = data["model"]
        return dict(data, model=model.StarModel(star.eps, star.alpha * (1 + 1e-6)))

    wl.execute = bent
    assert runner.run_item(item, "bent", key=0).failed


def test_batch_cost_ignores_a_uniform_slowdown_and_a_stalled_round():
    def rounds(latencies, refs):
        return [[run.ItemResult(lat, ref, False, 0.0, b"", "") for lat, ref in zip(lats, rs)]
                for lats, rs in zip(latencies, refs)]

    steady = rounds([[1.0, 3.0]] * 3, [[0.02, 0.02]] * 3)
    slower = rounds([[1.5, 4.5]] * 3, [[0.03, 0.03]] * 3)
    stalled = rounds([[1.0, 3.0], [9.0, 3.0], [1.0, 3.0]], [[0.02, 0.02]] * 3)
    assert run.batch_cost(steady) == pytest.approx(200.0)
    assert run.batch_cost(slower) == pytest.approx(200.0)
    assert run.batch_cost(stalled) == pytest.approx(200.0)
    assert run.batch_wall(slower) == pytest.approx(6.0)


def test_tracer_restores_every_binding_and_nests_spans(batches, tmp_path):
    import staremit.cli
    import staremit.inverse

    before = (staremit.inverse.eigh, staremit.cli.main)
    wl, batch = batches["inverse"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.Runner(workloads, wl, tmp_path).run_batch(batch, 0, tracer)
    finally:
        tracer.uninstall()
    assert (staremit.inverse.eigh, staremit.cli.main) == before
    names = {s[0] for s in tracer.spans}
    assert {"inverse.construct_hamiltonian", "hermitian.eigh", "cli.main"} <= names
    # eigh inside verify_round_trip is a child span of it
    parents = {tracer.spans[s[3]][0] for s in tracer.spans
               if s[0] == "hermitian.eigh" and s[3] is not None}
    assert "inverse.verify_round_trip" in parents
    totals = tracer.layer_totals()
    assert totals["inverse.verify_round_trip.self_s"] < totals["inverse.verify_round_trip.busy_s"]


def _bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    done = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", trace, "--smoke"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    done = _bench(["--workload", "inverse", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
