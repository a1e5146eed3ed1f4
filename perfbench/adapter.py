"""The benchmark's only way into helmsweep.

Everything the benchmark asks of the program goes through this module.
``setup`` builds the medium and the decomposition and factors the strips;
``shot`` takes one volume source to a reconstructed field, along the path
``run``, ``run_methods`` and the CLI use:

    build_problem -> build_strips -> SubstructuredSystem
    -> source_traces(f) -> gmres_right(jacobi | ds | osds) -> reconstruct(h, f)

The solve path lives in ``shot`` alone, so a change to the program's API
touches one function.  The rest reads the program's own counters and
recomputes what a shot claims, for the checks.  Modules are called through
their attributes at call time (``krylov.gmres_right``, not a name imported
here), so spans installed on them by the tracer are seen.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from helmsweep import bench, grid, krylov, strips, substructure

from . import shots

TOL = 1e-6
MAXIT = 400
# a field may differ from the monodomain direct solve by this much
# relative to it; measured errors are 1.5e-7 to 1.2e-6 at TOL
ORACLE_TOL = 1e-5

# sized so a seeded shot takes about 1 s: a 45 s run then holds dozens of
# shots, and its median and tail rest on many samples
WORKLOADS = {
    "waveguide-osds": dict(problem="waveguide", k=20.0, subdomains=5,
                           overlap_cells=4, nppwl=24, preconditioner="osds"),
    "wedge-jacobi": dict(problem="wedge", omega=30.0 * np.pi, subdomains=5,
                         overlap_cells=16, nppwl=24, preconditioner="jacobi"),
}


@dataclass
class Problem:
    """One medium and decomposition with its strips factored."""

    spec: object
    grid: object
    kfield: object
    bc: object
    system: object


@dataclass
class Shot:
    """What one shot produced, as flat arrays."""

    g: np.ndarray        # trace right-hand side
    h: np.ndarray        # trace solution
    field: np.ndarray    # reconstructed volume field
    iterations: int
    residual: float      # last GMRES recurrence residual, relative
    converged: bool
    ortho_defect: float


def setup(workload: str) -> Problem:
    spec = bench.ProblemSpec(**WORKLOADS[workload], tolerances=(TOL,),
                             maxit=MAXIT)
    mesh, kfield, bc, _ = bench.build_problem(spec)
    with warnings.catch_warnings():
        # wedge strips are narrower than twice the overlap; the run harness
        # waives the width bound there, and so does the benchmark
        warnings.simplefilter("ignore", UserWarning)
        decomp = strips.build_strips(mesh.nx, spec.subdomains, spec.overlap_cells,
                                     enforce_width_bound=spec.problem != "wedge")
    system = substructure.SubstructuredSystem(mesh, kfield, bc, decomp)
    return Problem(spec, mesh, kfield, bc, system)


def source(problem: Problem, seed: int, shot: int):
    mesh = problem.grid
    return shots.source(mesh.xs(), mesh.ys(), mesh.h, seed, shot)


def shot(problem: Problem, f) -> Shot:
    """Source traces, GMRES to TOL with the workload's preconditioner, field."""
    system = problem.system
    layout = system.layout
    vector = substructure.TraceVector
    sweep = {"jacobi": None, "ds": system.solve_double_sweep,
             "osds": system.solve_oneway}[problem.spec.preconditioner]

    def apply_op(x):
        return system.apply_interface_system(vector(layout, x)).data

    precond = None if sweep is None else (lambda x: sweep(vector(layout, x)).data)
    g = system.source_traces(f)
    report = krylov.gmres_right(apply_op, g.data, precond, tol=TOL, maxit=MAXIT)
    field = system.reconstruct(vector(layout, report.solution), f)
    return Shot(g.data, report.solution, field, report.iterations,
                report.history[-1], report.converged, report.ortho_defect)


def true_residual(problem: Problem, g: np.ndarray, h: np.ndarray) -> float:
    """||g - (Id - T) h|| / ||g||, recomputed with one exchange."""
    system = problem.system
    applied = system.apply_interface_system(
        substructure.TraceVector(system.layout, h)).data
    return float(np.linalg.norm(g - applied) / np.linalg.norm(g))


def direct_field(problem: Problem, f) -> np.ndarray:
    """Monodomain oracle: banded direct solve of the whole grid."""
    system = grid.assemble_global(problem.grid, problem.kfield, problem.bc, f)
    return grid.solve_direct(system).reshape(problem.grid.shape)


def solve_count(problem: Problem) -> int:
    return sum(sv.solve_count for sv in problem.system.solvers)


def factor_count(problem: Problem) -> int:
    return sum(sv.factor_count for sv in problem.system.solvers)


def strip_nodes(problem: Problem) -> int:
    return sum(sv.stencil.nloc for sv in problem.system.solvers)


def factor_bytes(problem: Problem) -> list[int]:
    """LAPACK band storage of each strip's factors: (2kl+ku+1) * n * 16 B."""
    return [(3 * sv.bandwidth + 1) * sv.stencil.nloc * 16
            for sv in problem.system.solvers]
