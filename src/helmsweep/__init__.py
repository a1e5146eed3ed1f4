"""Substructured 2D Helmholtz solver with sweeping preconditioners.

Assembles finite-difference Helmholtz problems on uniform square-cell
grids, splits them into overlapping vertical strips, reformulates the
coupled problem on interface impedance traces, and solves it with GMRES
preconditioned by one-way or double sweeps of exact strip solves.  A
Fourier-symbol analyzer evaluates the mode-wise convergence machinery,
and a benchmark harness reproduces waveguide, open-cavity, and wedge
experiments.
"""

from .grid import (BoundarySpec, EdgeCondition, Grid, HomogeneousModel,
                   SparseSystem, WavenumberField, WedgeModel, assemble_global,
                   build_grid, build_wavenumber, dirichlet, robin,
                   solve_direct)
from .strips import StripDecomposition, build_strips
from .subdomain import LocalSolver, extract_trace
from .substructure import (SubstructuredSystem, TraceLayout, TraceVector,
                           dense_matrix, part_masks)
from .krylov import KrylovReport, gmres_right
from .symbols import (AlgebraReport, C_factor, OverlapSearch, SymbolMatrices,
                      SymbolParams, find_vanishing_overlap, lambda_symbol,
                      lambda_waveguide, rho_factor, rho_two_domain,
                      symbol_matrices, verify_symbol_algebra)
from .bench import (ProblemSpec, RunRecord, build_problem, iterations_at,
                    read_field, run, run_methods, sweep_study, write_field)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec", "EdgeCondition", "Grid", "HomogeneousModel",
    "SparseSystem", "WavenumberField", "WedgeModel", "assemble_global",
    "build_grid", "build_wavenumber", "dirichlet", "robin", "solve_direct",
    "StripDecomposition", "build_strips",
    "LocalSolver", "extract_trace",
    "SubstructuredSystem", "TraceLayout", "TraceVector", "dense_matrix",
    "part_masks",
    "KrylovReport", "gmres_right",
    "AlgebraReport", "C_factor", "OverlapSearch", "SymbolMatrices",
    "SymbolParams", "find_vanishing_overlap", "lambda_symbol",
    "lambda_waveguide", "rho_factor", "rho_two_domain", "symbol_matrices",
    "verify_symbol_algebra",
    "ProblemSpec", "RunRecord", "build_problem", "iterations_at",
    "read_field", "run", "run_methods", "sweep_study", "write_field",
]
