"""The benchmark's own checks, on a problem small enough for a unit test."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from helmsweep import banded  # noqa: E402
from perfbench import adapter, gauge, harness, shots, tracing  # noqa: E402

TINY = dict(problem="waveguide", k=6.0, subdomains=3, overlap_cells=2,
            nppwl=8, preconditioner="osds")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(adapter.WORKLOADS, "tiny", TINY)
    return "tiny"


def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_one_seed_fixes_every_shot():
    xs, ys, h = np.linspace(0.0, 3.0, 25), np.linspace(0.0, 1.0, 9), 0.125
    assert shots.source(xs, ys, h, seed=7, shot=0) is None
    first = [shots.source(xs, ys, h, seed=7, shot=i) for i in (1, 2, 3)]
    # shot i does not depend on which shots were drawn before it
    assert np.array_equal(shots.source(xs, ys, h, seed=7, shot=3), first[2])
    assert np.array_equal(shots.source(xs, ys, h, seed=7, shot=1), first[0])
    assert not np.array_equal(first[0], first[1])
    assert not np.array_equal(shots.source(xs, ys, h, seed=8, shot=1), first[0])
    for f in first:
        assert f.shape == (25, 9) and f.dtype == np.complex128
        assert np.all(np.isfinite(f)) and np.abs(f).max() > 0.0


def test_timed_run_reports_the_declared_metrics(tiny):
    metrics, records, extra, errors = harness.timed_run(tiny, seed=3, seconds=0.0)
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert not errors
    assert [r["shot"] for r in records] == list(range(harness.MIN_SEEDED + 1))
    assert all(not r["failures"] for r in records)
    assert records[harness.ORACLE_SHOT]["oracle_error"] <= adapter.ORACLE_TOL
    assert metrics["stock_iterations"][0] == records[0]["iterations"]
    assert all(value > 0 for value, _ in metrics.values())


def test_tail_leaves_ten_shots_beyond():
    times = [float(t) for t in range(48, 0, -1)]
    assert harness.tail(times) == (38.0, "p79 of n=48 seeded shots")
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, "p100 of n=3 seeded shots")


def test_gauge_reads_and_scales():
    reading = gauge.Gauge().read()
    assert 0.0 < reading < 100 * gauge.REF_S
    # a host at half the reference speed doubles both the gauge and the time
    assert gauge.scale(3.0, 2 * gauge.REF_S) == pytest.approx(1.5)


def test_traced_counts_match_the_program_counters(tiny):
    metrics, records, extra, errors = harness.traced_run(tiny, seed=3, seconds=0.0)
    assert errors == []
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    traced = [r for r in records if r["traced"]]
    assert len(traced) == 1 and len(records) == 2
    assert metrics["banded.solves"][0] == traced[0]["solves"]
    assert metrics["banded.factors"][0] == TINY["subdomains"]
    assert extra["missing_spans"] == []
    # the wrappers are gone once the run is over
    assert not hasattr(banded.BandedLU.solve, "__wrapped__")
    assert not hasattr(adapter.krylov.gmres_right, "__wrapped__")


def test_a_miscounted_solve_fails_the_traced_run(tiny, monkeypatch):
    real = adapter.solve_count
    monkeypatch.setattr(adapter, "solve_count", lambda problem: 2 * real(problem))
    _, _, _, errors = harness.traced_run(tiny, seed=3, seconds=0.0)
    assert len(errors) == 1 and "solve spans" in errors[0]


def test_a_missing_callable_leaves_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(banded.BandedLU, "solve")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracing.SOLVE not in tracer.names and tracing.FACTOR in tracer.names
    report = {"iterations": 4, "ortho_defect": 0.0, "converged": True}
    metrics = tracing.layer_metrics(tracer, {1: report}, [1000, 2000], 30)
    assert "banded.solve_s" not in metrics and "banded.solves" not in metrics
    assert metrics["banded.factor_mb"] == (0.003, "MB")


def test_workloads_match_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(adapter.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
