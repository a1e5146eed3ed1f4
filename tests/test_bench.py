import argparse
import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from helmsweep import bench
from helmsweep.bench import (ProblemSpec, build_problem, iterations_at, run,
                             run_methods, sweep_study, write_field, read_field)
from helmsweep.cli import build_parser, main
from helmsweep.grid import assemble_global, solve_direct
from helmsweep.krylov import KrylovReport
from helmsweep.symbols import (C_factor, SymbolParams, lambda_symbol,
                               lambda_waveguide, rho_factor)


def tiny_spec(**overrides):
    base = dict(problem="waveguide", k=2.5, subdomains=2, overlap_cells=2,
                nppwl=8, tolerances=(1e-8, 1e-3))
    base.update(overrides)
    return ProblemSpec(**base)


def test_spec_round_trip():
    spec = tiny_spec()
    again = ProblemSpec.from_dict(spec.to_dict())
    assert again == spec


def test_spec_rejects_unknown_keys():
    d = tiny_spec().to_dict()
    d["tolerance"] = 1e-6
    with pytest.raises((TypeError, ValueError)):
        ProblemSpec.from_dict(d)


def test_spec_load_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(tiny_spec().to_dict()))
    assert ProblemSpec.load(path) == tiny_spec()


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(problem="wedge", k=20.0)  # wedge is frequency-driven
    with pytest.raises(ValueError):
        ProblemSpec(problem="waveguide")  # needs k
    with pytest.raises(ValueError):
        tiny_spec(preconditioner="ilu")
    # rejected before any strip is factored
    with pytest.raises(ValueError, match="fixed_point"):
        tiny_spec(solver="fixed_point", preconditioner="ds")
    # the unit-speed problems take k only
    with pytest.raises(ValueError, match="cavity runs need k"):
        ProblemSpec(problem="cavity", omega=7.0)


def test_option_surface():
    # every settable value a run takes; a new knob is a deliberate edit here
    assert [f.name for f in dataclasses.fields(ProblemSpec)] == [
        "problem", "k", "omega", "subdomains", "overlap_cells", "nppwl",
        "tolerances", "preconditioner", "solver", "maxit", "out_dir"]
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    flags = [f for a in commands.choices["solve"]._actions for f in a.option_strings]
    assert flags == ["-h", "--help", "--config", "--problem", "--k", "--omega",
                     "--subdomains", "--overlap-cells", "--nppwl", "--precond",
                     "--solver", "--tol", "--max-iters", "--out"]


def test_iterations_at():
    history = [1.0, 0.5, 1e-4, 1e-7]
    assert iterations_at(history, 1e-3) == 2
    assert iterations_at(history, 1e-6) == 3
    # not reached: "+" the iterations the run made
    assert iterations_at(history, 1e-9) == "+3"


def test_diverged_run_counts_the_iterations_it_made():
    # the coarse waveguide diverges under jacobi fixed-point iteration and
    # stops long before maxit; its count says how far it went
    record = run(ProblemSpec(problem="waveguide", k=20.0, subdomains=5, overlap_cells=2,
                             nppwl=4, tolerances=(1e-10,), solver="fixed_point",
                             preconditioner="jacobi"))
    assert record.stop == "diverged" and not record.converged
    assert len(record.history) - 1 < record.spec.maxit
    assert record.counts == {"1e-10": f"+{len(record.history) - 1}"}


def test_problem_geometry_and_sources():
    grid, kfield, bc, f = build_problem(tiny_spec())
    assert f is None
    assert grid.x1 == pytest.approx(2.0)
    assert (bc.kind("left"), bc.kind("right")) == ("robin", "robin")
    assert (bc.kind("bottom"), bc.kind("top")) == ("dirichlet", "dirichlet")
    # driven edge peaks at mid-height with unit amplitude
    assert bc.left.data(0.0, 0.5) == pytest.approx(1.0)

    grid, kfield, bc, f = build_problem(ProblemSpec(problem="cavity", k=2.5,
                                                    nppwl=8, subdomains=2))
    assert bc.kind("left") == "robin"
    for side in ("right", "bottom", "top"):
        assert bc.kind(side) == "dirichlet"
    assert bc.left.data(0.0, 0.0) == pytest.approx(1.0)

    wspec = ProblemSpec(problem="wedge", omega=12.0, nppwl=8, subdomains=2)
    grid, kfield, bc, f = build_problem(wspec)
    assert (grid.x0, grid.x1, grid.y0, grid.y1) == (0.0, 600.0, 0.0, 1000.0)
    assert bc.kind("top") == "robin" and bc.top.data is not None
    for side in ("left", "right", "bottom"):
        assert bc.kind(side) == "robin"
        assert getattr(bc, side).data is None
    assert bc.top.data(300.0, 1000.0) == pytest.approx(1.0)
    assert kfield.values.max() == pytest.approx(12.0 / 1500.0)


def test_run_and_outputs(tmp_path):
    record = run(tiny_spec(out_dir=str(tmp_path)))
    assert record.converged
    assert isinstance(record.counts["1e-08"], int)

    lines = (tmp_path / "residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,residual,seconds"
    assert len(lines) == len(record.history) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0 and float(first[1]) == 1.0
    seconds = [float(line.split(",")[2]) for line in lines[1:]]
    assert seconds == record.seconds
    assert len(seconds) == len(record.history)
    assert all(0.0 <= a <= b for a, b in zip(seconds, seconds[1:]))

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["spec"]["problem"] == "waveguide"
    assert manifest["converged"] is True
    assert manifest["counts"]["1e-08"] == record.counts["1e-08"]
    assert "unknowns" in manifest and "trace_size" in manifest
    assert manifest["true_residual"] == record.true_residual
    assert record.true_residual <= 1e-8
    assert manifest["stop"] == record.stop == "tol"

    nx, ny, h, u = read_field(tmp_path / "solution.field")
    assert (nx, ny) == (record.grid.nx, record.grid.ny)
    assert u.shape == record.solution.shape
    assert np.allclose(u, record.solution, rtol=1e-12, atol=1e-300)


def test_record_counts_solves_and_factor_bytes(tmp_path):
    # the README quick-start with osds to 1e-6: 8 iterations of 2N-2 strip
    # solves, then N for the true-residual exchange and N for the field
    spec = ProblemSpec(problem="waveguide", k=20.0, subdomains=5,
                       overlap_cells=4, nppwl=16, tolerances=(1e-6,))
    ctx = bench.BenchContext(spec)
    record = ctx.solve(spec)
    assert (record.counts["1e-06"], record.strip_solves) == (8, 74)
    assert record.factorizations == 5
    # no strip swaps a row, so each stores its L and D band rows only; the
    # two edge strips share one factor and the three interior strips another
    lus = [sv._lu for sv in ctx.system.solvers]
    assert all(lu._lu is None and lu._ipiv is None for lu in lus)
    stored = {id(lu._ld): lu._ld.nbytes for lu in lus}
    assert (record.distinct_factors, record.lu_bytes) == (2, sum(stored.values()))

    bench.write_outputs(record, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["strip_solves"], manifest["factorizations"], manifest["lu_bytes"],
            manifest["distinct_factors"]) == (74, 5, record.lu_bytes, 2)
    assert manifest["strip_rows"] == record.strip_rows


def strip_rows_of_full_solves(ctx, spec):
    """(record, 2 n summed over the strip solves of ctx.solve(spec))."""
    solves = [sv.solve_count for sv in ctx.system.solvers]
    record = ctx.solve(spec)
    full = sum(2 * sv.stencil.nloc * (sv.solve_count - before)
               for sv, before in zip(ctx.system.solvers, solves))
    return record, full


def test_record_counts_factor_rows_swept():
    # the wedge, numbered along x, solves every strip in full: 2 n factor
    # columns a solve; the quick-start osds run's one-sided solves sweep fewer
    wedge = ProblemSpec(problem="wedge", omega=12.0, subdomains=2, nppwl=8,
                        preconditioner="jacobi", tolerances=(1e-6,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ctx = bench.BenchContext(wedge)
    record, full = strip_rows_of_full_solves(ctx, wedge)
    assert record.strip_solves > 0 and record.strip_rows == full
    spec = ProblemSpec(problem="waveguide", k=20.0, subdomains=5,
                       overlap_cells=4, nppwl=16, tolerances=(1e-6,))
    record, full = strip_rows_of_full_solves(bench.BenchContext(spec), spec)
    assert record.strip_solves == 74 and 0 < record.strip_rows < full


def test_manifest_keys_follow_the_record(tmp_path):
    # every RunRecord field but the four with files of their own, and the
    # iteration count
    record = run(tiny_spec(out_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    fields = {f.name for f in dataclasses.fields(bench.RunRecord)}
    own_files = {"history", "seconds", "solution", "grid"}
    assert set(manifest) == fields - own_files | {"iterations"}
    assert manifest["iterations"] == len(record.history) - 1
    assert manifest["spec"] == json.loads(json.dumps(record.spec.to_dict()))
    assert manifest["solve_time"] == record.solve_time > 0
    # the strips' assembly and factorization, part of the build with the
    # problem and the source traces
    assert 0 < manifest["setup_time"] == record.setup_time < record.build_time
    # the strip pool's size, one thread per CPU the process may run on
    assert manifest["workers"] == record.workers == len(os.sched_getaffinity(0))


def test_field_round_trip(tmp_path, rng):
    record = run(tiny_spec())
    grid = record.grid
    u = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    # signed zeros and non-finite values survive the text format bit for bit
    u.ravel()[:5] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.inf, -np.inf),
                     complex(np.nan, 1.0), complex(-1e-300, np.nan)]
    path = tmp_path / "x.field"
    write_field(u, grid, path)
    header = path.read_text().splitlines()[0]
    assert header.split() == [str(grid.nx), str(grid.ny), f"{grid.h:.17g}"]
    nx, ny, h, v = read_field(path)
    assert (nx, ny, h) == (grid.nx, grid.ny, grid.h)
    a, b = u.view(np.float64), v.view(np.float64)
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_runs_are_deterministic():
    a = run(tiny_spec())
    b = run(tiny_spec())
    assert a.history == b.history
    assert np.array_equal(a.solution, b.solution)


def test_overflow_notation():
    record = run(tiny_spec(maxit=1))
    assert not record.converged
    assert record.counts["1e-08"] == "+1"
    assert record.true_residual > 1e-8
    assert record.stop == "maxit"


@pytest.mark.parametrize("spec, waived", [
    # two strips of 7 and 6 cells against a bound of twice the 4-cell overlap
    (dict(problem="wedge", omega=12.0, subdomains=2, nppwl=8), ["width_bound"]),
    (dict(problem="waveguide", k=2.5, subdomains=2, overlap_cells=2, nppwl=8), []),
], ids=["wedge", "waveguide"])
def test_manifest_lists_waived_checks(tmp_path, spec, waived):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record = run(ProblemSpec(**spec, tolerances=(1e-6,), out_dir=str(tmp_path)))
    assert record.waived == waived
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["waived"] == waived


def test_converged_needs_true_residual(monkeypatch):
    # a solver that claims convergence at the zero vector is not believed
    def claims_converged(apply_op, b, precond, tol, maxit):
        return KrylovReport(solution=np.zeros_like(b), iterations=1,
                            history=[1.0, 0.0], converged=True)

    monkeypatch.setattr(bench, "gmres_right", claims_converged)
    record = run(tiny_spec())
    assert record.true_residual == 1.0
    assert not record.converged


RECONSTRUCT_SPECS = {
    "waveguide": dict(problem="waveguide", k=10.0, nppwl=10),
    "cavity": dict(problem="cavity", k=10.0, nppwl=10),
    # a 21 x 35 cell grid: taller than wide, so the direct solve numbers yx
    "wedge": dict(problem="wedge", omega=12.0 * np.pi, nppwl=8),
}


@pytest.mark.parametrize("problem", sorted(RECONSTRUCT_SPECS))
def test_reconstruct_matches_direct_per_preconditioner(problem):
    tol = 1e-10
    spec = ProblemSpec(**RECONSTRUCT_SPECS[problem], subdomains=3,
                       overlap_cells=2, tolerances=(tol,))
    grid, kfield, bc, f = build_problem(spec)
    direct = solve_direct(assemble_global(grid, kfield, bc, f))
    assert direct.shape == grid.shape
    for p, record in run_methods(spec).items():
        assert record.converged and record.true_residual <= tol, p
        err = np.linalg.norm(record.solution - direct) / np.linalg.norm(direct)
        assert err <= 10 * tol, (p, err)


LDLT_SPECS = {
    **{p: dict(s, subdomains=3, overlap_cells=2)
       for p, s in RECONSTRUCT_SPECS.items()},
    # the benchmark workloads, as perfbench/adapter.py declares them
    "waveguide-osds": dict(problem="waveguide", k=20.0, subdomains=5,
                           overlap_cells=4, nppwl=24, preconditioner="osds"),
    "wedge-jacobi": dict(problem="wedge", omega=30.0 * np.pi, subdomains=5,
                         overlap_cells=16, nppwl=24, preconditioner="jacobi"),
}


@pytest.mark.parametrize("name", sorted(LDLT_SPECS))
def test_every_strip_factor_is_ldlt(name):
    # every strip matrix is complex symmetric and swaps no row, so each
    # factor keeps only L and D: (kl + 1) * n complex values.  An assembly
    # change that breaks exact symmetry, or a benchmark strip that pivots,
    # falls back to the wider gbtrs factor and fails here
    with warnings.catch_warnings():
        # wedge-jacobi's strips are narrower than twice its overlap
        warnings.simplefilter("ignore", UserWarning)
        solvers = bench.BenchContext(ProblemSpec(**LDLT_SPECS[name])).system.solvers
    assert [sv.lu_bytes for sv in solvers] == [
        (sv.bandwidth + 1) * sv.stencil.matrix().shape[0] * 16 for sv in solvers]


def test_fixed_point_solver_path():
    record = run(tiny_spec(solver="fixed_point", preconditioner="osds",
                           tolerances=(1e-6,)))
    assert record.converged
    with pytest.raises(ValueError, match="fixed_point"):
        run(tiny_spec(solver="fixed_point", preconditioner="ds"))


def test_run_methods_validates_before_building(monkeypatch):
    class NoBuild:
        def __init__(self, spec):
            raise AssertionError("strips built before the specs were checked")

    monkeypatch.setattr(bench, "BenchContext", NoBuild)
    with pytest.raises(ValueError, match="preconditioner"):
        run_methods(tiny_spec(), preconditioners=("jacobi", "ilu"))
    with pytest.raises(ValueError, match="fixed_point"):
        run_methods(tiny_spec(solver="fixed_point", preconditioner="osds"),
                    preconditioners=("osds", "ds"))
    with pytest.raises(ValueError, match="preconditioner"):
        sweep_study(tiny_spec(), "subdomains", [2], preconditioners=("ilu",))


def test_run_methods_shares_problem():
    recs = run_methods(tiny_spec(), preconditioners=("jacobi", "osds"))
    assert set(recs) == {"jacobi", "osds"}
    assert recs["jacobi"].unknowns == recs["osds"].unknowns


def test_sweep_study(tmp_path):
    records, rows = sweep_study(tiny_spec(tolerances=(1e-6,)), "subdomains",
                                [2, 3], preconditioners=("osds",),
                                out_dir=str(tmp_path))
    assert rows[0][0] == "subdomains"
    assert [r[0] for r in rows[1:]] == [2, 3]
    assert len(records) == 2
    table = (tmp_path / "table.csv").read_text().strip().splitlines()
    assert len(table) == 3


def test_cli_solve(tmp_path, capsys):
    rc = main(["solve", "--problem", "waveguide", "--k", "2.5",
               "--subdomains", "2", "--overlap-cells", "2", "--nppwl", "8",
               "--tol", "1e-6", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "residuals.csv").exists()
    assert (tmp_path / "solution.field").exists()
    assert "1e-06" in capsys.readouterr().out


def test_cli_config_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_spec().to_dict()))
    rc = main(["solve", "--config", str(cfg), "--precond", "jacobi"])
    assert rc == 0
    assert "jacobi" in capsys.readouterr().out


def test_cli_sweep(capsys):
    rc = main(["sweep", "--problem", "waveguide", "--k", "2.5",
               "--subdomains", "2", "--overlap-cells", "2", "--nppwl", "8",
               "--tol", "1e-6", "--vary", "subdomains", "--values", "2,3",
               "--preconds", "osds"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("subdomains")
    assert len(out) == 3


def test_cli_symbols(tmp_path):
    out = tmp_path / "sym.csv"
    rc = main(["analyze-symbols", "--k", "20", "--strips", "4", "--width", "1",
               "--overlap", "0.05", "--samples", "5", "--xi-min", "1",
               "--xi-max", "15", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "xi,lambda_re,lambda_im,rho_j_abs,rho,C"
    assert len(lines) == 6


@pytest.mark.parametrize("mode, k, extra", [
    # xi = 0 (C is inf) and xi = k (the cutoff) are among the samples
    ("plane", 20.0, ["--xi-min", "0", "--xi-max", "40", "--samples", "5"]),
    # kL/pi = 3: mode 3 sits at the waveguide cutoff
    ("waveguide", 3.0 * np.pi, ["--length", "1", "--xi-min", "1", "--xi-max", "5"]),
])
def test_cli_symbols_match_library(mode, k, extra, capsys):
    rc = main(["analyze-symbols", "--k", repr(k), "--strips", "3", "--width", "0.5",
               "--overlap", "0.1", "--mode", mode, *extra])
    assert rc == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 6
    strips = ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5))
    length = 1.0 if mode == "waveguide" else None
    cutoffs = 0
    for row in rows[1:]:
        xi = float(row[0])
        if mode == "waveguide":
            lam, cut = lambda_waveguide(int(xi), k, length)
        else:
            lam, cut = lambda_symbol(xi, k)
        p = SymbolParams(k=k, xi=xi, strips=strips, delta=0.1, mode=mode, length=length)
        expect = [f"{lam.real:.17g}", f"{lam.imag:.17g}"]
        expect += ["nan"] * 3 if cut else [
            f"{v:.17g}" for v in (abs(p.rho_j()), rho_factor(p), C_factor(p))]
        assert row[1:] == expect, xi
        cutoffs += cut
    assert cutoffs == 1


WAVEGUIDE_CONFIG = {"problem": "waveguide", "k": 2.5, "subdomains": 2,
                    "overlap_cells": 2, "nppwl": 8}
WAVEGUIDE_FLAGS = ["--problem", "waveguide", "--subdomains", "2",
                   "--overlap-cells", "2", "--nppwl", "8"]
WEDGE_CONFIG = {"problem": "wedge", "omega": 12.0, "subdomains": 2, "nppwl": 8}


@pytest.mark.parametrize("argv, message", [
    (["solve", "--problem", "wedge"], "omega"),
    (["analyze-symbols", "--k", "20", "--overlap", "0.6"], "twice the overlap"),
    (["analyze-symbols", "--k", "20", "--mode", "waveguide"], "--length"),
    (["solve", "--config", "no-such-config.json"], "no-such-config.json"),
    # a dict stands for a --config file holding it
    (["solve", "--config", {**WAVEGUIDE_CONFIG, "subdomains": 3.0}], "subdomains"),
    (["solve", "--config", {**WAVEGUIDE_CONFIG, "overlap_cells": 2.0}], "overlap_cells"),
    (["solve", "--config", {**WAVEGUIDE_CONFIG, "maxit": "40"}], "maxit"),
    (["solve", "--config", {**WAVEGUIDE_CONFIG, "maxit": -3}], "maxit"),
    (["sweep", "--vary", "subdomains", "--values", "2",
      "--config", {**WAVEGUIDE_CONFIG, "maxit": True}], "maxit"),
    (["solve", "--config", {"problem": "wedge", "omega": "30"}], "omega"),
    (["solve", "--config", {**WAVEGUIDE_CONFIG, "k": "2.5"}], "k must"),
    (["solve", "--config", {**WAVEGUIDE_CONFIG, "tolerances": 1e-6}], "tolerances"),
    # the wedge geometry keys were removed from the config; a config that
    # still names one stays rejected, as an unknown key
    (["solve", "--config", {**WEDGE_CONFIG, "wedge_upper": 5}], "wedge_upper"),
    (["solve", "--config", {**WEDGE_CONFIG, "wedge_lower": 5}], "wedge_lower"),
    (["solve", "--config", {**WEDGE_CONFIG, "wedge_velocities": 5}], "wedge_velocities"),
    # with no --out, so the config's value is the one used
    (["solve", "--config", {**WAVEGUIDE_CONFIG, "out_dir": 5}], "out_dir"),
    (["solve", *WAVEGUIDE_FLAGS, "--k", "inf"], "k must"),
    (["solve", "--config", {**WEDGE_CONFIG, "omega": float("inf")}], "omega must"),
    (["solve", *WAVEGUIDE_FLAGS, "--k", "nan"], "k must"),
    (["solve", *WAVEGUIDE_FLAGS, "--k", "2.5", "--tol", "nan"], "tolerances"),
    (["solve", *WAVEGUIDE_FLAGS, "--k", "2.5", "--omega", "99"], "not omega"),
    (["solve", "--config", {**WEDGE_CONFIG, "k": 2.5}], "not k"),
    (["analyze-symbols", "--k", "nan"], "k must be finite"),
    (["analyze-symbols", "--k", "20", "--overlap", "nan"], "delta must be finite"),
    (["analyze-symbols", "--k", "20", "--width", "inf"], "strips must have finite"),
], ids=["wedge-without-omega", "overlap-too-wide", "waveguide-without-length",
        "missing-config", "float-subdomains", "float-overlap", "string-maxit",
        "negative-maxit", "bool-maxit", "string-omega", "string-k",
        "scalar-tolerances", "removed-wedge-upper", "removed-wedge-lower",
        "removed-wedge-velocities", "int-out-dir", "infinite-k", "infinite-omega",
        "nan-k", "nan-tol", "k-and-omega", "wedge-k", "nan-symbol-k",
        "nan-symbol-overlap", "infinite-symbol-width"])
def test_cli_bad_input_is_a_usage_error(argv, message, tmp_path, capsys):
    # a message and exit code 2, not a traceback; and no output left behind
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    out_flag = ["--out", str(out)]
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
            argv = [*argv[:i], str(cfg), *argv[i + 1:]]
            if "out_dir" in arg:
                out_flag = []
    with pytest.raises(SystemExit) as exc:
        main([*argv, *out_flag])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
