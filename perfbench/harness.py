"""Multi-shot solve benchmark: set up one medium, then solve a run of shots.

A run sets the workload up SETUPS times (assemble and factor every strip)
and keeps the last set-up.  It then solves shot 0, the stock source, and
seeded shots 1, 2, ... until the given seconds of shots have passed and at
least MIN_SEEDED seeded shots are done.  Each shot is timed from its source
traces through GMRES to 1e-6 and the reconstructed field.  Checks run
after the timed shots: finite output, GMRES at 1e-6, the true trace
residual recomputed with one exchange, and the field of shot 1 against the
monodomain direct solve.

A traced run sets up once with spans on every public callable of the
program, then solves seeded shots in pairs, once without spans and once
with, the order alternating, and reports per-layer figures; the timed pairs
give the tracing overhead.
"""

import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import adapter, gauge, tracing

RESULTS = Path(__file__).resolve().parent / "results"

SETUPS = 5
# the tail is the slowest shot with TAIL_BEYOND shots slower than it, so a
# run needs at least TAIL_BEYOND + 1 seeded shots
TAIL_BEYOND = 10
MIN_SEEDED = TAIL_BEYOND + 1
ORACLE_SHOT = 1


def environment() -> dict:
    """What the run saw: cores, BLAS builds and threads, L3, versions."""
    import scipy

    blas = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}",
                       "openblas_{}64_", "openblas_{}"):
            if hasattr(lib, symbol.format("get_num_threads")):
                config = getattr(lib, symbol.format("get_config"))
                config.restype = ctypes.c_char_p
                blas.append({"library": Path(path).name,
                             "threads": getattr(lib, symbol.format("get_num_threads"))(),
                             "config": config().decode().strip()})
                break
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "l3": l3.read_text().strip() if l3.exists() else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def release_freed_memory():
    """Collect garbage and hand freed heap pages back to the OS.

    Without this, each repeated set-up left the heap larger (275, 280,
    then 292 MB over three set-ups of waveguide-osds), so the peak measured
    the repeats rather than the one set-up a user makes.  malloc_trim is
    glibc's; elsewhere only the collection runs.
    """
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail(times):
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns the value and its label; with too few samples, the maximum.
    """
    ranked = sorted(times)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], f"p100 of n={n} seeded shots"
    rank = n - TAIL_BEYOND
    return ranked[rank - 1], f"p{100 * rank / n:.0f} of n={n} seeded shots"


def run_shot(problem, seed, shot_id, tracer=None):
    """Solve one shot; returns its record and the field for the oracle."""
    f = adapter.source(problem, seed, shot_id)
    before = adapter.solve_count(problem)
    if tracer is None:
        t0 = time.perf_counter()
        s = adapter.shot(problem, f)
        seconds = time.perf_counter() - t0
    else:
        tracer.shot = shot_id
        with tracer.installed():
            t0 = time.perf_counter()
            s = adapter.shot(problem, f)
            seconds = time.perf_counter() - t0
    record = {
        "shot": shot_id, "traced": tracer is not None, "seconds": seconds,
        "iterations": s.iterations, "residual": s.residual,
        "converged": s.converged, "ortho_defect": s.ortho_defect,
        "solves": adapter.solve_count(problem) - before,
        "finite": bool(np.isfinite(s.field).all() and np.isfinite(s.g).all()
                       and np.isfinite(s.h).all()),
        "g": s.g, "h": s.h,
    }
    return record, (s.field if shot_id == ORACLE_SHOT else None)


def verify(problem, records, seed, oracle_field):
    """Check every shot after the timed region; returns the direct-solve time.

    A failing check is written into the shot's record under 'failures'.
    The strips are released before the direct solve, which needs about as
    much memory again.
    """
    for r in records:
        fails = r.setdefault("failures", [])
        if not r["finite"]:
            fails.append("non-finite field or traces")
        if not (r["converged"] and r["residual"] <= adapter.TOL):
            fails.append(f"GMRES stopped at residual {r['residual']:.3e} "
                         f"after {r['iterations']} iterations")
        true = adapter.true_residual(problem, r.pop("g"), r.pop("h"))
        r["true_residual"] = true
        if not true <= adapter.TOL:
            fails.append(f"true trace residual {true:.3e} above {adapter.TOL:g}")
    problem.system = None
    gc.collect()
    t0 = time.perf_counter()
    ref = adapter.direct_field(problem, adapter.source(problem, seed, ORACLE_SHOT))
    direct_s = time.perf_counter() - t0
    err = float(np.linalg.norm(oracle_field - ref) / np.linalg.norm(ref))
    for r in records:
        if r["shot"] == ORACLE_SHOT:
            r["oracle_error"] = err
            if not err <= adapter.ORACLE_TOL:
                r["failures"].append(f"field differs from the direct solve by {err:.3e}")
    return direct_s


def timed_run(workload, seed, seconds):
    """End-to-end figures; returns (metrics, shot records, extras, errors).

    Set-up and shot times are scaled to the gauge's reference speed, each
    by the gauge reading taken just before it; the wall times are kept in
    the extras and the shot records.
    """
    meter = gauge.Gauge()
    setups = []
    for _ in range(SETUPS):
        problem = None
        release_freed_memory()
        g = meter.read()
        t0 = time.perf_counter()
        problem = adapter.setup(workload)
        setups.append({"seconds": time.perf_counter() - t0, "gauge_s": g})

    records, oracle_field = [], None
    start = time.perf_counter()
    shot_id = 0
    while shot_id <= MIN_SEEDED or time.perf_counter() - start < seconds:
        g = meter.read()
        record, field = run_shot(problem, seed, shot_id)
        record["gauge_s"] = g
        records.append(record)
        oracle_field = field if field is not None else oracle_field
        shot_id += 1
    # the gauge's operands are resident all run long; they are not the program's
    rss = peak_rss_mb() - meter.nbytes / 1e6
    direct_s = verify(problem, records, seed, oracle_field)

    seeded = [r for r in records if r["shot"] > 0]
    times = [gauge.scale(r["seconds"], r["gauge_s"]) for r in seeded]
    tail_s, tail_label = tail(times)
    metrics = {
        "setup_s": (statistics.median(gauge.scale(s["seconds"], s["gauge_s"])
                                      for s in setups), "s"),
        "shot_s": (statistics.median(times), "s"),
        "shot_tail_s": (tail_s, "s"),
        "iterations": (statistics.median(r["iterations"] for r in seeded), "count"),
        "stock_iterations": (records[0]["iterations"], "count"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {"setup_samples": setups, "baseline.direct_s": direct_s,
             "shot_tail": tail_label,
             "wall": {"setup_s": statistics.median(s["seconds"] for s in setups),
                      "shot_s": statistics.median(r["seconds"] for r in seeded),
                      "gauge_s": statistics.median(r["gauge_s"] for r in seeded)}}
    return metrics, records, extra, []


def traced_run(workload, seed, seconds):
    """Per-layer figures; errors name any span count the program disputes."""
    tracer = tracing.Tracer()
    with tracer.installed():
        problem = adapter.setup(workload)
    errors = []
    factors = tracer.count(tracing.FACTOR, tracing.SETUP)
    if tracing.FACTOR in tracer.names and factors != adapter.factor_count(problem):
        errors.append(f"{factors} factor spans against the program's "
                      f"factor_count {adapter.factor_count(problem)}")

    records, oracle_field, overheads = [], None, []
    start = time.perf_counter()
    shot_id = 1
    while shot_id == 1 or time.perf_counter() - start < seconds:
        pair = {}
        for traced in ((False, True) if shot_id % 2 else (True, False)):
            record, field = run_shot(problem, seed, shot_id,
                                     tracer if traced else None)
            records.append(record)
            pair[traced] = record
            oracle_field = field if field is not None else oracle_field
        overheads.append(pair[True]["seconds"] / pair[False]["seconds"] - 1.0)
        spans = tracer.count(tracing.SOLVE, shot_id)
        if tracing.SOLVE in tracer.names and spans != pair[True]["solves"]:
            errors.append(f"shot {shot_id}: {spans} solve spans against the "
                          f"program's solve_count {pair[True]['solves']}")
        shot_id += 1

    reports = {r["shot"]: r for r in records if r["traced"]}
    metrics = tracing.layer_metrics(tracer, reports, adapter.factor_bytes(problem),
                                    adapter.strip_nodes(problem))
    metrics["trace.overhead"] = (statistics.median(overheads), "ratio")
    missing = [n for n in tracing.MEASURED if n not in tracer.names]
    direct_s = verify(problem, records, seed, oracle_field)
    extra = {"baseline.direct_s": direct_s, "overheads": overheads,
             "missing_spans": missing, "spans": tracer.dump()}
    return metrics, records, extra, errors


def main(args) -> int:
    """Run one workload; print the summary and the result line."""
    if args.workload not in adapter.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(adapter.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print("environment " + json.dumps(env), file=sys.stderr)
    run = traced_run if args.trace else timed_run
    metrics, records, extra, errors = run(args.workload, args.seed, args.seconds)

    failed = sum(bool(r["failures"]) for r in records)
    for r in records:
        for why in r["failures"]:
            print(f"shot {r['shot']} failed: {why}", file=sys.stderr)
    for why in errors:
        print(f"trace check failed: {why}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{name:36s} {value:14.6g} {unit}{note}", file=sys.stderr)
    for key in ("shot_tail", "wall", "baseline.direct_s", "missing_spans"):
        if key in extra:
            print(f"{key}: {extra[key]}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "trace_errors": errors, "shots": records, **extra}, fh)
    print(json.dumps(result))
    return 0

