"""Substructured 2D Helmholtz solver with sweeping preconditioners.

Assembles finite-difference Helmholtz problems on uniform square-cell
grids, splits them into overlapping vertical strips, reformulates the
coupled problem on interface impedance traces, and solves it with GMRES
preconditioned by one-way or double sweeps of exact strip solves.  A
Fourier-symbol analyzer evaluates the mode-wise convergence machinery,
and a benchmark harness reproduces waveguide, open-cavity, and wedge
experiments.
"""

from .grid import (BoundarySpec, Grid, HomogeneousModel, WavenumberField,
                   WedgeModel, assemble_global, build_grid, build_wavenumber,
                   dirichlet, robin, solve_direct)
from .strips import StripDecomposition, build_strips
from .subdomain import LocalSolver, extract_trace
from .substructure import SubstructuredSystem, TraceVector
from .krylov import gmres_right
from .symbols import (C_factor, SymbolMatrices, SymbolParams, lambda_symbol,
                      lambda_waveguide, rho_factor, symbol_matrices)
from .bench import (ProblemSpec, RunRecord, build_problem, read_field, run,
                    run_methods, sweep_study)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec", "Grid", "HomogeneousModel", "WavenumberField",
    "WedgeModel", "assemble_global", "build_grid", "build_wavenumber",
    "dirichlet", "robin", "solve_direct",
    "StripDecomposition", "build_strips",
    "LocalSolver", "extract_trace",
    "SubstructuredSystem", "TraceVector",
    "gmres_right",
    "C_factor", "SymbolMatrices", "SymbolParams", "lambda_symbol",
    "lambda_waveguide", "rho_factor", "symbol_matrices",
    "ProblemSpec", "RunRecord", "build_problem", "read_field", "run",
    "run_methods", "sweep_study",
]
