"""Benchmark problems and the run harness.

Three stock problems drive the solver the way the reference experiments
do: a homogeneous waveguide [0,N] x [0,1] with Dirichlet walls and a
Gaussian-windowed mode injected on the left, an open cavity of the same
shape with Dirichlet on three sides and an oblique plane wave on the
left, and the heterogeneous wedge on [0,600] x [0,1000] with a
three-region velocity model, absorbing edges, and a windowed source on
the top edge.  A run builds the problem, factors the strips, solves the
interface system with the chosen preconditioner, and records iteration
counts at each requested tolerance together with CSV/field dumps.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import banded
from .grid import (BoundarySpec, ComplexArray, Grid, HomogeneousModel,
                   WedgeModel, build_grid, build_wavenumber, dirichlet, robin)
from .krylov import gmres_right, richardson
from .strips import build_strips
from .substructure import WORKERS, SubstructuredSystem, TraceVector

PROBLEMS = ("waveguide", "cavity", "wedge")
PRECONDITIONERS = ("jacobi", "ds", "osds")
SOLVERS = ("gmres", "fixed_point")
WEDGE_DOMAIN = ((0.0, 600.0), (0.0, 1000.0))


def _positive(value, error: str) -> float:
    """value as a finite positive float, or ValueError(error)."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        return float(value)
    raise ValueError(error)


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one solver run; JSON round-trippable."""

    problem: str
    k: Optional[float] = None
    omega: Optional[float] = None
    subdomains: int = 5
    overlap_cells: int = 4
    nppwl: int = 24
    tolerances: tuple = (1e-6, 1e-3)
    preconditioner: str = "osds"
    solver: str = "gmres"
    maxit: int = 400
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.preconditioner not in PRECONDITIONERS:
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.solver == "fixed_point" and self.preconditioner == "ds":
            raise ValueError("fixed_point supports jacobi and osds only")
        for name in ("subdomains", "overlap_cells", "nppwl", "maxit"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.maxit < 0:
            raise ValueError(f"maxit must be non-negative, got {self.maxit}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a path string, got {self.out_dir!r}")
        for name in ("k", "omega"):
            v = getattr(self, name)
            if v is not None:
                error = f"{name} must be a finite positive number, got {v!r}"
                object.__setattr__(self, name, _positive(v, error))
        tols = self.tolerances
        error = ("tolerances must be a non-empty list of finite positive numbers, "
                 f"got {tols!r}")
        if not (isinstance(tols, (list, tuple)) and tols):
            raise ValueError(error)
        object.__setattr__(self, "tolerances", tuple(_positive(t, error) for t in tols))
        # the wedge is driven by a frequency, the unit-speed problems by k
        need, other = ("omega", "k") if self.problem == "wedge" else ("k", "omega")
        if getattr(self, need) is None:
            raise ValueError(f"{self.problem} runs need {need}")
        if getattr(self, other) is not None:
            raise ValueError(f"{self.problem} runs take {need}, not {other}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "ProblemSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class RunRecord:
    """Everything one run produced: counts, history, timings, field."""

    spec: ProblemSpec
    counts: dict
    history: list
    converged: bool
    unknowns: int
    trace_size: int
    build_time: float
    setup_time: float
    solve_time: float
    true_residual: float = 0.0
    ortho_defect: float = 0.0
    strip_solves: int = 0
    block_responses: int = 0
    factorizations: int = 0
    lu_bytes: int = 0
    distinct_factors: int = 0
    block_bytes: int = 0
    kept_bytes: int = 0
    kept_fields: int = 0
    workers: int = 1
    blas_pinned: int = 0
    stop: str = "tol"
    seconds: list = dataclasses.field(default_factory=list)
    waived: list = dataclasses.field(default_factory=list)
    solution: Optional[ComplexArray] = None
    grid: Optional[Grid] = None


def _waveguide_source(y):
    return np.exp(-120.0 * (y - 0.5) ** 2) * np.sin(np.pi * y)


def build_problem(spec: ProblemSpec):
    """Grid, wavenumber field, boundary conditions, volume source."""
    if spec.problem in ("waveguide", "cavity"):
        k = spec.k
        xspan = (0.0, float(spec.subdomains))
        grid = build_grid(xspan, (0.0, 1.0), k, spec.nppwl)
        kfield = build_wavenumber(grid, HomogeneousModel(k))
        if spec.problem == "waveguide":
            bc = BoundarySpec(left=robin(lambda x, y: _waveguide_source(y)),
                              right=robin(None),
                              bottom=dirichlet(), top=dirichlet())
        else:
            theta = np.pi / 8.0
            bc = BoundarySpec(
                left=robin(lambda x, y: np.exp(-1j * k * (x * np.cos(theta)
                                                          + y * np.sin(theta)))),
                right=dirichlet(), bottom=dirichlet(), top=dirichlet())
        return grid, kfield, bc, None

    xspan, yspan = WEDGE_DOMAIN
    k_max = spec.omega / min(WedgeModel.velocities)
    grid = build_grid(xspan, yspan, k_max, spec.nppwl)
    kfield = build_wavenumber(grid, WedgeModel(), omega=spec.omega)
    width = xspan[1] - xspan[0]
    bc = BoundarySpec(
        left=robin(None), right=robin(None), bottom=robin(None),
        top=robin(lambda x, y: np.exp(-120.0 * (x / width - 0.5) ** 2)
                  * np.sin(np.pi * x / width)))
    return grid, kfield, bc, None


def iterations_at(history, tol: float):
    """First history index at or below tol, or '+N' if never reached, with
    N = len(history) - 1 the iterations the run made."""
    for i, r in enumerate(history):
        if r <= tol:
            return i
    return f"+{len(history) - 1}"


class BenchContext:
    """Built problem plus factored strips, reusable across preconditioners."""

    def __init__(self, spec: ProblemSpec):
        t0 = time.perf_counter()
        self.grid, self.kfield, self.bc, _ = build_problem(spec)
        # the wedge cuts get narrower than twice a 16-cell overlap well
        # before the decomposition itself degenerates; keep the runs legal
        self.decomp = build_strips(self.grid.nx, spec.subdomains,
                                   spec.overlap_cells,
                                   enforce_width_bound=spec.problem != "wedge")
        t1 = time.perf_counter()
        self.system = SubstructuredSystem(self.grid, self.kfield, self.bc,
                                          self.decomp)
        # assembly and factorization of the strips alone
        self.setup_time = time.perf_counter() - t1
        self.g = self.system.source_traces()
        self.build_time = time.perf_counter() - t0
        self.spec = spec

    def solve(self, spec: ProblemSpec) -> RunRecord:
        system, layout = self.system, self.system.layout
        tol = min(spec.tolerances)
        solves_before = sum(sv.solve_count for sv in system.solvers)
        blocks_before = sum(sv.block_count for sv in system.solvers)
        kept_before = sum(sv.kept_count for sv in system.solvers)
        sweep = {"jacobi": None, "ds": system.solve_double_sweep,
                 "osds": system.solve_oneway}[spec.preconditioner]

        def apply_op(x):
            return system.apply_interface_system(TraceVector(layout, x)).data

        precond = None if sweep is None else (lambda x: sweep(TraceVector(layout, x)).data)
        solver = gmres_right if spec.solver == "gmres" else richardson
        report = solver(apply_op, self.g.data, precond, tol=tol, maxit=spec.maxit)
        h = TraceVector(layout, report.solution)
        # converged means ||g - (Id - T) h|| <= tol ||g||, checked with a full
        # exchange rather than taken from the solver's own recurrence
        g, g_norm = self.g.data, float(np.linalg.norm(self.g.data))
        true_residual = float(np.linalg.norm(g - system.apply_interface_system(h).data))
        if g_norm > 0:
            true_residual /= g_norm
        converged = report.converged and true_residual <= tol
        counts = {f"{t:g}": iterations_at(report.history, t)
                  for t in spec.tolerances}
        u = system.reconstruct(h)
        # strips that share a factor, or a block set, store it once
        stored = {id(sv.lu): sv.lu.nbytes for sv in system.solvers}
        blocks = {id(sv.blocks): sum(b.nbytes for b in sv.blocks.values())
                  for sv in system.solvers if sv.blocks is not None}
        kept = {id(sv.kept): sv.kept.nbytes for sv in system.solvers if sv.kept is not None}
        return RunRecord(spec=spec, counts=counts, history=list(report.history),
                         converged=converged, unknowns=self.grid.npoints,
                         trace_size=self.g.data.size,
                         build_time=self.build_time, setup_time=self.setup_time,
                         solve_time=report.wall_time,
                         true_residual=true_residual,
                         ortho_defect=report.ortho_defect,
                         strip_solves=sum(sv.solve_count for sv in system.solvers)
                         - solves_before,
                         block_responses=sum(sv.block_count for sv in system.solvers)
                         - blocks_before,
                         factorizations=sum(sv.factor_count for sv in system.solvers),
                         lu_bytes=sum(stored.values()), distinct_factors=len(stored),
                         block_bytes=sum(blocks.values()), kept_bytes=sum(kept.values()),
                         kept_fields=sum(sv.kept_count for sv in system.solvers) - kept_before,
                         workers=WORKERS, blas_pinned=len(banded._OPENBLAS),
                         stop=report.stop, seconds=list(report.seconds),
                         waived=[] if self.decomp.width_bound_ok else ["width_bound"],
                         solution=u, grid=self.grid)


def write_outputs(record: RunRecord, out_dir) -> None:
    """residuals.csv, solution.field, manifest.json under out_dir.

    The manifest holds the iteration count and every RunRecord field that
    has no file of its own.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "residuals.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "residual", "seconds"])
        for i, (r, t) in enumerate(zip(record.history, record.seconds)):
            w.writerow([i, f"{r:.17g}", f"{t:.17g}"])
    if record.solution is not None:
        write_field(record.solution, record.grid, out / "solution.field")
    manifest = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
                if f.name not in ("history", "seconds", "solution", "grid")}
    manifest["spec"] = record.spec.to_dict()
    manifest["iterations"] = len(record.history) - 1
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def write_field(u: ComplexArray, grid: Grid, path) -> None:
    """Column-major node dump, 're im' per line after an 'nx ny h' header."""
    pairs = np.asarray(u, dtype=np.complex128).ravel().view(np.float64)
    np.savetxt(path, pairs.reshape(-1, 2), fmt="%.17g", comments="",
               header=f"{grid.nx} {grid.ny} {grid.h:.17g}")


def read_field(path):
    """Inverse of write_field: returns (nx, ny, h, values)."""
    with open(path) as fh:
        nx, ny, h = fh.readline().split()
        values = np.loadtxt(fh, ndmin=2).view(np.complex128)
    nx, ny = int(nx), int(ny)
    return nx, ny, float(h), values.reshape(nx + 1, ny + 1)


def run(spec: ProblemSpec) -> RunRecord:
    """Build, solve, and (when spec.out_dir is set) dump one configuration."""
    ctx = BenchContext(spec)
    record = ctx.solve(spec)
    if spec.out_dir is not None:
        write_outputs(record, spec.out_dir)
    return record


def run_methods(spec: ProblemSpec, preconditioners=PRECONDITIONERS) -> dict:
    """One record per preconditioner, sharing the factored strips."""
    # every spec is validated before anything is built or factored
    specs = {p: dataclasses.replace(spec, preconditioner=p, out_dir=None)
             for p in preconditioners}
    ctx = BenchContext(spec)
    return {p: ctx.solve(s) for p, s in specs.items()}


def sweep_study(spec: ProblemSpec, vary: str, values,
                preconditioners=None, out_dir=None):
    """Re-run spec across subdomain counts or overlaps; tabulate counts.

    Returns (records, rows) where rows are the CSV table lines: one row
    per value, one count column per (preconditioner, tolerance) pair.
    """
    if vary not in ("subdomains", "overlap"):
        raise ValueError(f"vary must be 'subdomains' or 'overlap', got {vary!r}")
    values = list(values)
    if not values:
        raise ValueError("need at least one value to sweep")
    preconds = list(preconditioners or [spec.preconditioner])
    header = [vary] + [f"{p}_tol{t:g}" for p in preconds
                       for t in spec.tolerances]
    rows = [header]
    records = {}
    key = "subdomains" if vary == "subdomains" else "overlap_cells"
    for v in values:
        sub = dataclasses.replace(spec, **{key: int(v)}, out_dir=None)
        records[v] = recs = run_methods(sub, preconds)
        rows.append([v] + [recs[p].counts[f"{t:g}"] for p in preconds
                           for t in spec.tolerances])
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "table.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return records, rows
