"""Compare two helmsweep checkouts, parent -> change, in one run.

    python3 tools/compare.py PARENT CHANGE

PARENT and CHANGE are helmsweep checkouts.  Each runs in fresh
``python -B -c`` subprocesses with one BLAS thread, which import that
checkout's ``src`` and ``perfbench/adapter.py``.  Arrays travel through a
temporary directory outside both checkouts, and no bytecode is written, so
nothing is written under either root.  For each benchmark workload the two
checkouts take turns to run first.

Per checkout and workload, one process sets the workload up through
``adapter.setup`` and records:

- the set-up's wall seconds, and VmHWM and VmRSS after it (MB, from
  /proc/self/status), so the high-water mark is that one set-up's;
- the bytes of the strip factors (kB), and how many of those kB lie on
  transparent huge pages, counted two ways (below);
- the layout: the factors' bytes, the strips that store only the L D L^T
  band rows, (bandwidth + 1) * n * 16 bytes, and the strips whose
  one-sided solves skip factor rows: those numbered along y, which solve a
  right datum alone on the trailing rows, and of those the mirror strips,
  which solve a left datum alone the same way (a checkout without these
  paths counts 0);
- shots 0-2 of seed 1 through ``adapter.shot``, the benchmark's own solve
  path: GMRES iterations, strip solves, g (trace right-hand side), h (trace
  solution), the field and the true residual ||g - (Id - T) h|| / ||g||.

A second process runs the benchmark's monodomain oracle
(``adapter.direct_field``: ``grid.solve_direct`` of the global system) on
the workload's grid, for the source of shot 1 of seed 1, without the
strips ever being built, and records its wall seconds and VmHWM before and
after it.  One more process per checkout runs the README quick-start
waveguide (k=20, N=5, nppwl 16, tol 1e-6) along ``run_methods``' path, one
``BenchContext`` and one ``solve`` per preconditioner: gmres with jacobi,
ds and osds, and fixed_point with jacobi and osds.  Each records its
iterations, the strip solves of the whole ``solve`` and the true residual.

Each line prints one group of figures, parent -> change.  g, h and the
field read "bitwise" when their bytes are equal, and ||change - parent|| /
||parent|| otherwise; the last line gives the largest difference of each.
A checkout compared with itself checks that its runs are deterministic.

Huge pages by mapping: /proc/self/smaps gives AnonHugePages per mapping, so
a mapping that holds factors adds its AnonHugePages, capped at the factor
bytes it holds.  Where the factors have mappings of their own the count is
exact; where a mapping also holds other data (a malloc heap) it is an
upper bound.  By page, in all and per strip: each resident page of a
factor whose frame /proc/kpageflags marks as part of a transparent huge
page (bit 22), found through /proc/self/pagemap.  A process that may not
read frame numbers (they read as 0 without CAP_SYS_ADMIN) prints "n/a".
"""

import os
import re
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SEED = 1
SHOTS = (0, 1, 2)
ARRAYS = ("g", "h", "field")
QUICKSTART = dict(problem="waveguide", k=20.0, subdomains=5, overlap_cells=4,
                  nppwl=16, tolerances=(1e-6,))
PATHS = {"gmres": ("jacobi", "ds", "osds"), "fixed_point": ("jacobi", "osds")}
MAPPING = re.compile(r"^([0-9a-f]+)-([0-9a-f]+) ")


def status() -> dict:
    """VmHWM and VmRSS of this process, in MB."""
    out = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, value = line.split(":", 1)
            if key in ("VmHWM", "VmRSS"):
                out[key] = int(value.split()[0]) * 1024 / 1e6
    return out


def huge_pages() -> list:
    """(start, end, AnonHugePages bytes) of every mapping of this process."""
    maps = []
    with open("/proc/self/smaps") as fh:
        for line in fh:
            m = MAPPING.match(line)
            if m:
                start, end = int(m[1], 16), int(m[2], 16)
            elif line.startswith("AnonHugePages:"):
                maps.append((start, end, int(line.split()[1]) * 1024))
    return maps


def factor_ranges(problem) -> list:
    """(address, bytes) of each strip's stored factor, in strip order."""
    out = []
    for sv in problem.system.solvers:
        lu = sv._lu
        a = lu._ld if lu._ld is not None else lu._lu
        out.append((a.ctypes.data, a.nbytes))
    return out


def huge_kb_by_mapping(factors) -> int:
    """kB of the factors on huge pages, each mapping's AnonHugePages capped
    at the factor bytes it holds."""
    total = 0
    for lo, hi, huge in huge_pages():
        held = sum(max(0, min(hi, start + size) - max(lo, start)) for start, size in factors)
        total += min(huge, held)
    return total // 1024


def huge_kb_by_page(factors):
    """kB of each factor's resident pages that belong to a transparent huge
    page, or None if frame numbers cannot be read."""
    page = os.sysconf("SC_PAGE_SIZE")
    per = []
    try:
        with open("/proc/self/pagemap", "rb") as pagemap, open("/proc/kpageflags", "rb") as flags:
            for start, size in factors:
                first, last = start // page, (start + size - 1) // page
                pagemap.seek(first * 8)
                count = last - first + 1
                entries = struct.unpack(f"{count}Q", pagemap.read(count * 8))
                frames = [e & ((1 << 55) - 1) for e in entries if e >> 63]
                if frames and not any(frames):
                    return None
                huge = 0
                for frame in frames:
                    flags.seek(frame * 8)
                    huge += struct.unpack("Q", flags.read(8))[0] >> 22 & 1
                per.append(huge * page // 1024)
    except OSError:
        return None
    return per


def record_workload(workload: str) -> dict:
    """One set-up of workload, its memory and layout, and shots 0-2."""
    from perfbench import adapter

    t0 = time.perf_counter()
    problem = adapter.setup(workload)
    seconds = time.perf_counter() - t0
    mem = status()
    factors = factor_ranges(problem)
    solvers = problem.system.solvers
    rec = {"setup_s": seconds, "vmhwm_mb": mem["VmHWM"], "vmrss_mb": mem["VmRSS"],
           "factor_kb": sum(n for _, n in factors) // 1024,
           "huge_by_mapping_kb": huge_kb_by_mapping(factors),
           "strips": len(solvers),
           "factor_bytes": sum(sv.lu_bytes for sv in solvers),
           "ldlt_strips": sum(sv.lu_bytes == (sv.bandwidth + 1) * sv.stencil.nloc * 16
                              for sv in solvers),
           "right_strips": sum(getattr(sv, "xy", False) for sv in solvers),
           "mirror_strips": sum(getattr(sv, "mirror", False) for sv in solvers)}
    per = huge_kb_by_page(factors)
    if per is not None:
        rec["huge_by_page_kb"] = np.array(per)
    for i in SHOTS:
        f = adapter.source(problem, SEED, i)
        before = adapter.solve_count(problem)
        shot = adapter.shot(problem, f)
        rec[f"shot {i}/iterations"] = shot.iterations
        rec[f"shot {i}/solves"] = adapter.solve_count(problem) - before
        rec[f"shot {i}/true_residual"] = adapter.true_residual(problem, shot.g, shot.h)
        for name in ARRAYS:
            rec[f"shot {i}/{name}"] = getattr(shot, name)
    return rec


def record_direct(workload: str) -> dict:
    """The monodomain direct solve on workload's grid, without its strips."""
    from helmsweep import bench
    from perfbench import adapter

    # the grid of adapter.setup, without its strips
    spec = bench.ProblemSpec(**adapter.WORKLOADS[workload], tolerances=(adapter.TOL,),
                             maxit=adapter.MAXIT)
    mesh, kfield, bc, _ = bench.build_problem(spec)
    problem = adapter.Problem(spec, mesh, kfield, bc, system=None)
    f = adapter.source(problem, 1, 1)
    before = status()
    t0 = time.perf_counter()
    adapter.direct_field(problem, f)
    seconds = time.perf_counter() - t0
    return {"direct_s": seconds, "direct_hwm_before_mb": before["VmHWM"],
            "direct_hwm_after_mb": status()["VmHWM"]}


def record_quickstart() -> dict:
    """Iterations, strip solves and true residual of each quick-start path."""
    from helmsweep import bench

    rec = {}
    for solver, preconditioners in PATHS.items():
        ctx = bench.BenchContext(bench.ProblemSpec(**QUICKSTART, solver=solver))
        for p in preconditioners:
            before = sum(sv.solve_count for sv in ctx.system.solvers)
            run = ctx.solve(bench.ProblemSpec(**QUICKSTART, solver=solver, preconditioner=p))
            rec[f"{solver} {p}/iterations"] = len(run.history) - 1
            rec[f"{solver} {p}/solves"] = (sum(sv.solve_count for sv in ctx.system.solvers)
                                           - before)
            rec[f"{solver} {p}/true_residual"] = float(run.true_residual)
    return rec


RECORDERS = {"workload": record_workload, "direct": record_direct,
             "quick-start": record_quickstart}


def child(root: str, task: str, args: tuple, out: str) -> None:
    """Run one recorder on checkout root and save its record to the .npz out."""
    sys.path[:0] = [str(Path(root) / "src"), root]
    np.savez(out, **RECORDERS[task](*args))


def run_child(root: Path, task: str, args: tuple, out: Path) -> dict:
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import compare; compare.child({str(root)!r}, {task!r}, {args!r}, {str(out)!r})")
    subprocess.run([sys.executable, "-B", "-c", code], check=True)
    with np.load(out) as data:
        return {k: v.item() if v.ndim == 0 else v for k, v in data.items()}


def arrow(parent: dict, change: dict, key: str, fmt: str = "{}") -> str:
    return f"{fmt.format(parent[key])} -> {fmt.format(change[key])}"


def difference(p: np.ndarray, c: np.ndarray):
    """None when p and c hold the same bytes, else ||c - p|| / ||p||."""
    if p.dtype == c.dtype and p.shape == c.shape and p.tobytes() == c.tobytes():
        return None
    return float(np.linalg.norm(c - p) / np.linalg.norm(p))


def diff_text(d) -> str:
    return "bitwise" if d is None else f"{d:.2e}"


def by_page(rec: dict) -> str:
    per = rec.get("huge_by_page_kb")
    if per is None:
        return "n/a"
    return f"{sum(per)} kB (per strip {' '.join(map(str, per))})"


def workload_lines(workload: str, p: dict, c: dict, worst: dict) -> list:
    """The lines of one workload's records; worst keeps each array's largest
    difference so far."""
    lines = [
        f"{workload} set-up: {arrow(p, c, 'setup_s', '{:.3f}')} s, "
        f"VmHWM {arrow(p, c, 'vmhwm_mb', '{:.1f}')} MB, VmRSS {arrow(p, c, 'vmrss_mb', '{:.1f}')} MB",
        f"{workload} factors: {arrow(p, c, 'factor_kb')} kB, on huge pages by mapping "
        f"{arrow(p, c, 'huge_by_mapping_kb')} kB, by page {by_page(p)} -> {by_page(c)}",
        f"{workload} layout: strips {arrow(p, c, 'strips')}, factor bytes "
        f"{arrow(p, c, 'factor_bytes')}, L D L^T strips {arrow(p, c, 'ldlt_strips')}, "
        f"right-datum strips {arrow(p, c, 'right_strips')}, "
        f"mirror strips {arrow(p, c, 'mirror_strips')}"]
    for i in SHOTS:
        key = f"shot {i}"
        diffs = {name: difference(p[f"{key}/{name}"], c[f"{key}/{name}"]) for name in ARRAYS}
        for name, d in diffs.items():
            if d is not None:
                worst[name] = max(worst[name] or 0.0, d)
        lines.append(f"{workload} {key}: iterations {arrow(p, c, key + '/iterations')}, "
                     f"strip solves {arrow(p, c, key + '/solves')}, "
                     + ", ".join(f"{name} {diff_text(d)}" for name, d in diffs.items())
                     + f", true residual {arrow(p, c, key + '/true_residual', '{!r}')}")
    lines.append(f"{workload} direct solve: {arrow(p, c, 'direct_s', '{:.3f}')} s, "
                 f"VmHWM before {arrow(p, c, 'direct_hwm_before_mb', '{:.1f}')} MB, "
                 f"after {arrow(p, c, 'direct_hwm_after_mb', '{:.1f}')} MB")
    return lines


def report(parent: dict, change: dict) -> list:
    """The comparison lines of two checkouts' records: {workload: record}
    for each workload, and "quick-start" for the quick-start paths."""
    lines = []
    worst = dict.fromkeys(ARRAYS)
    for name, p in parent.items():
        c = change[name]
        if name == "quick-start":
            lines += [f"quick-start {path}: iterations {arrow(p, c, path + '/iterations')}, "
                      f"strip solves {arrow(p, c, path + '/solves')}, "
                      f"true residual {arrow(p, c, path + '/true_residual', '{!r}')}"
                      for path in dict.fromkeys(k.split("/")[0] for k in p)]
        else:
            lines += workload_lines(name, p, c, worst)
    lines.append("largest relative difference: "
                 + ", ".join(f"{name} {diff_text(d)}" for name, d in worst.items()))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    for root in roots:
        if not (root / "src" / "helmsweep" / "__init__.py").is_file():
            print(f"compare: no helmsweep sources under {root}/src", file=sys.stderr)
            return 2
    # one BLAS thread, as the benchmark pins it, so reductions run in one order
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(roots[1] / "src"), str(roots[1])]
    from perfbench import adapter

    records = ({}, {})
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "record.npz"
        for n, name in enumerate([*adapter.WORKLOADS, "quick-start"]):
            # the two checkouts take turns to run first
            for side in (0, 1) if n % 2 == 0 else (1, 0):
                if name == "quick-start":
                    records[side][name] = run_child(roots[side], name, (), out)
                else:
                    records[side][name] = {
                        **run_child(roots[side], "workload", (name,), out),
                        **run_child(roots[side], "direct", (name,), out)}
    for line in report(*records):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
