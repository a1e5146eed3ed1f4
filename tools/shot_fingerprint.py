"""Fingerprint benchmark shots and quick-start solver paths of a checkout.

    python3 tools/shot_fingerprint.py ROOT

ROOT is a helmsweep checkout.  Its ``src`` and ``perfbench/adapter.py`` are
imported (nothing is written under ROOT), and shots 0-2 of seed 1 run on
every benchmark workload through ``adapter.shot``, the benchmark's own solve
path.  Each shot prints one line: GMRES iterations, strip solves, the first
16 hex digits of the sha256 of the bytes of g (trace right-hand side), h
(trace solution) and the field, and the true residual ||g - (Id - T) h||/||g||
in full precision.  Two checkouts whose printouts are identical agree
bitwise on all of these.  Each workload also prints its strip factors'
bytes and how many strips store only the L D L^T band rows, (bandwidth +
1) * n * 16 bytes, so a change to the factor layer shows in memory and
layout as well as in bits.  A second line counts the strips whose one-sided
solves skip factor rows: those numbered along y, which solve a right datum
alone on the trailing rows, and of those the mirror strips, which solve a
left datum alone the same way (``subdomain.py``).  A checkout without these
paths counts 0.

Then the README quick-start waveguide (k=20, N=5, nppwl 16, tol 1e-6) runs
along ``run_methods``' path, one ``BenchContext`` and one ``solve`` per
preconditioner: gmres with jacobi, ds and osds, and fixed_point with jacobi
and osds.  Each prints its iterations, the strip solves of the whole
``solve`` (the solver, the true-residual check and the reconstruction) and
the true residual.
"""

import hashlib
import os
import sys
from pathlib import Path

SEED = 1
SHOTS = (0, 1, 2)
QUICKSTART = dict(problem="waveguide", k=20.0, subdomains=5, overlap_cells=4,
                  nppwl=16, tolerances=(1e-6,))
PATHS = {"gmres": ("jacobi", "ds", "osds"), "fixed_point": ("jacobi", "osds")}


def digest(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if not (root / "src" / "helmsweep" / "__init__.py").is_file():
        print(f"shot_fingerprint: no helmsweep sources under {root}/src",
              file=sys.stderr)
        return 2
    # one BLAS thread, as the benchmark pins it, so reductions run in one order
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root)]
    from helmsweep import bench
    from perfbench import adapter

    for workload in adapter.WORKLOADS:
        problem = adapter.setup(workload)
        solvers = problem.system.solvers
        ldlt = sum(sv.lu_bytes == (sv.bandwidth + 1) * sv.stencil.nloc * 16
                   for sv in solvers)
        print(f"{workload}: factor bytes {sum(sv.lu_bytes for sv in solvers)}, "
              f"L D L^T strips {ldlt} of {len(solvers)}", flush=True)
        right = sum(getattr(sv, "xy", False) for sv in solvers)
        mirror = sum(getattr(sv, "mirror", False) for sv in solvers)
        print(f"{workload}: right-datum strips {right}, mirror strips {mirror} "
              f"of {len(solvers)}", flush=True)
        for i in SHOTS:
            f = adapter.source(problem, SEED, i)
            before = adapter.solve_count(problem)
            shot = adapter.shot(problem, f)
            solves = adapter.solve_count(problem) - before
            residual = adapter.true_residual(problem, shot.g, shot.h)
            print(f"{workload} shot {i}: iterations {shot.iterations}, "
                  f"strip solves {solves}, g {digest(shot.g)}, "
                  f"h {digest(shot.h)}, field {digest(shot.field)}, "
                  f"true residual {residual!r}", flush=True)

    for solver, preconditioners in PATHS.items():
        ctx = bench.BenchContext(bench.ProblemSpec(**QUICKSTART, solver=solver))
        for p in preconditioners:
            before = sum(sv.solve_count for sv in ctx.system.solvers)
            record = ctx.solve(bench.ProblemSpec(**QUICKSTART, solver=solver,
                                                 preconditioner=p))
            solves = sum(sv.solve_count for sv in ctx.system.solvers) - before
            print(f"quick-start {solver} {p}: iterations {len(record.history) - 1}, "
                  f"strip solves {solves}, "
                  f"true residual {record.true_residual!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
