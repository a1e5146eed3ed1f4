"""Compare two helmsweep checkouts, parent -> change, in one run.

    python3 tools/compare.py PARENT CHANGE

PARENT and CHANGE are helmsweep checkouts.  Each runs in fresh
``python -B -c`` subprocesses with one BLAS thread (THREAD_VARIABLES set to
1), which import that checkout's ``src`` and ``perfbench/adapter.py``.  Arrays travel through a
temporary directory outside both checkouts, and no bytecode is written, so
nothing is written under either root.  For each benchmark workload the two
checkouts take turns to run first.

Per checkout and workload, one process sets the workload up REPEATS times
through ``adapter.setup`` and records:

- the median, least and largest wall seconds of the set-ups and how many
  there were (set-ups in one process swing widely, so the median alone
  reads like a comparison it is not), and VmHWM and VmRSS after the first
  (MB, from /proc/self/status), so the high-water mark is that one
  set-up's; the others follow the shots;
- the bytes of the stored strip factors (kB), a factor that several strips
  share counted once, and how many of those kB lie on transparent huge
  pages (below);
- the layout: the strips, the distinct stored factors and their bytes
  with the pivots, the bytes of the distinct block sets that answer
  responses without a solve and the seconds of one more pass of the builds
  they are formed from (BandedLU.tail_inverse, once per distinct factor
  and first node column), the bytes of the distinct kept X that
  reconstruct takes interior fields from, the strips that store only the
  L D L^T band rows, (bandwidth + 1) * n * 16 bytes, and the strips with
  blocks;
- shots 0-2 of seed 1 through ``adapter.shot``, the benchmark's own solve
  path: GMRES iterations, strip solves, g (trace right-hand side), h (trace
  solution), the field, the true residual ||g - (Id - T) h|| / ||g|| and
  VmRSS after the shot, so a footprint that stays after set-up shows.

A second process runs the benchmark's monodomain oracle
(``adapter.direct_field``: ``grid.solve_direct`` of the global system) on
the workload's grid, for the source of shot 1 of seed 1, without the
strips ever being built, REPEATS times, and records the median, least and
largest wall seconds of those solves, and VmHWM before and after the
first.  Two more processes per checkout run a quick-start waveguide
(k=20, N=5) along ``run_methods``' path, one ``BenchContext`` and one
``solve`` per preconditioner: gmres with jacobi, ds and osds, and
fixed_point with jacobi and osds.  "quick-start" is the README's (nppwl 16,
overlap 4, tol 1e-6); "coarse quick-start" (nppwl 4, overlap 2, tol 1e-10)
is one whose interior strips and global system pivot, so they keep
zgbtrf's LU, which the benchmark's strips never do; fixed_point diverges
on it, so those two paths only show whether the bits moved.  Each path
records its iterations, the strip solves of the whole ``solve``, the true
residual and the field.  Each checkout then runs both quick-starts again
with THREAD_VARIABLES removed from the environment, so each BLAS library
starts on its own thread count, and only the program's own pin (banded.py)
keeps the arithmetic on one thread: a line per checkout and quick-start
says, path by path, whether those fields are bitwise the pinned ones.

The first line gives the code lines of each checkout's src/helmsweep: the
lines of its .py files that hold a token other than a comment, a docstring
(a string that is a statement of its own) or layout (code_lines).

Each line prints one group of figures, parent -> change.  g, h and the
fields read "bitwise" when their bytes are equal, and ||change - parent|| /
||parent|| otherwise; the last line gives the largest difference of each,
the quick-start fields apart from the shots'.  A checkout compared with
itself checks that its runs are deterministic.

Huge pages by mapping: /proc/self/smaps gives AnonHugePages per mapping, so
a mapping that holds factors adds its AnonHugePages, capped at the factor
bytes it holds.  Every stored factor has a mapping of its own (banded.py),
so the count is exact.
"""

import os
import re
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

SEED = 1
# the set-ups, and the direct solves, timed in one process
REPEATS = 3
SHOTS = (0, 1, 2)
ARRAYS = ("g", "h", "field")
QUICKSTARTS = {"quick-start": dict(problem="waveguide", k=20.0, subdomains=5,
                                   overlap_cells=4, nppwl=16, tolerances=(1e-6,)),
               "coarse quick-start": dict(problem="waveguide", k=20.0, subdomains=5,
                                          overlap_cells=2, nppwl=4, tolerances=(1e-10,))}
PATHS = {"gmres": ("jacobi", "ds", "osds"), "fixed_point": ("jacobi", "osds")}
# the environment variables that set the BLAS libraries' thread counts
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the record of a quick-start run without THREAD_VARIABLES, after its name
UNPINNED = " unpinned"
MAPPING = re.compile(r"^([0-9a-f]+)-([0-9a-f]+) ")
# the record of code_lines
CODE = "code lines"
# the tokens a statement, and so a docstring, follows
STARTS = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)


def code_lines(root) -> int:
    """Lines of the .py files under root/src/helmsweep that hold a token
    other than a comment, a docstring or layout."""
    lines = set()
    for path in sorted((Path(root) / "src" / "helmsweep").rglob("*.py")):
        with open(path, "rb") as fh:
            tokens = [t for t in tokenize.tokenize(fh.readline)
                      if t.type not in (tokenize.NL, tokenize.COMMENT)]
        for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
            docstring = (tok.type == tokenize.STRING and before.type in STARTS
                         and after.type == tokenize.NEWLINE)
            if tok.type not in (*STARTS, tokenize.ENDMARKER) and not docstring:
                lines.update((path, n) for n in range(tok.start[0], tok.end[0] + 1))
    return len(lines)


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
    """(address, bytes, bytes with pivots) of each stored strip factor, in
    strip order; a factor that several strips share is listed once."""
    out = {}
    for sv in problem.system.solvers:
        a = sv.lu.factor
        out.setdefault(a.ctypes.data, (a.nbytes, sv.lu.nbytes))
    return [(start, size, stored) for start, (size, stored) in out.items()]


def huge_kb_by_mapping(factors) -> int:
    """kB of the factors on huge pages, each mapping's AnonHugePages capped
    at the factor bytes it holds."""
    total = 0
    for lo, hi, huge in huge_pages():
        held = sum(max(0, min(hi, start + size) - max(lo, start))
                   for start, size, _ in factors)
        total += min(huge, held)
    return total // 1024


def block_layout(problem) -> tuple:
    """(bytes of the distinct block sets, seconds of one more pass of the
    builds they are formed from, strips with blocks)."""
    blocked = [sv for sv in problem.system.solvers if sv.blocks]
    sets = {id(sv.blocks): sum(b.nbytes for b in sv.blocks.values()) for sv in blocked}
    builds = {(id(sv.lu), sv.first): sv for sv in blocked}
    t0 = time.perf_counter()
    for (_, at), sv in builds.items():
        sv.lu.tail_inverse(at)
    return sum(sets.values()), time.perf_counter() - t0, len(blocked)


def kept_bytes(problem) -> int:
    """Bytes of the distinct kept columns of the strips."""
    kept = (sv.kept for sv in problem.system.solvers)
    return sum({id(x): x.nbytes for x in kept if x is not None}.values())


def timed_setup(workload: str):
    """(seconds, problem) of one adapter.setup of workload."""
    from perfbench import adapter

    t0 = time.perf_counter()
    problem = adapter.setup(workload)
    return time.perf_counter() - t0, problem


def record_workload(workload: str) -> dict:
    """REPEATS set-ups of workload, the first's memory and layout, and its
    shots 0-2."""
    from perfbench import adapter

    seconds, problem = timed_setup(workload)
    mem = status()
    factors = factor_ranges(problem)
    solvers = problem.system.solvers
    block_bytes, build_s, block_strips = block_layout(problem)
    rec = {"vmhwm_mb": mem["VmHWM"], "vmrss_mb": mem["VmRSS"],
           "factor_kb": sum(size for _, size, _ in factors) // 1024,
           "huge_by_mapping_kb": huge_kb_by_mapping(factors),
           "strips": len(solvers),
           "factors": len(factors),
           "factor_bytes": sum(stored for _, _, stored in factors),
           "block_bytes": block_bytes, "build_s": build_s,
           "kept_bytes": kept_bytes(problem),
           "ldlt_strips": sum(sv.lu.nbytes == (sv.bandwidth + 1) * sv.stencil.nloc * 16
                              for sv in solvers),
           "block_strips": block_strips}
    for i in SHOTS:
        f = adapter.source(problem, SEED, i)
        before = adapter.solve_count(problem)
        shot = adapter.shot(problem, f)
        rec[f"shot {i}/iterations"] = shot.iterations
        rec[f"shot {i}/solves"] = adapter.solve_count(problem) - before
        rec[f"shot {i}/true_residual"] = adapter.true_residual(problem, shot.g, shot.h)
        rec[f"shot {i}/vmrss_mb"] = status()["VmRSS"]
        for name in ARRAYS:
            rec[f"shot {i}/{name}"] = getattr(shot, name)
    del problem, solvers, shot
    times = [seconds] + [timed_setup(workload)[0] for _ in range(REPEATS - 1)]
    rec["setup_s"], rec["setups"] = float(np.median(times)), len(times)
    rec["setup_min_s"], rec["setup_max_s"] = min(times), max(times)
    return rec


def record_direct(workload: str) -> dict:
    """REPEATS monodomain direct solves on workload's grid, without its
    strips, and the memory of the first."""
    from helmsweep import bench
    from perfbench import adapter

    # the grid of adapter.setup, without its strips
    spec = bench.ProblemSpec(**adapter.WORKLOADS[workload], tolerances=(adapter.TOL,),
                             maxit=adapter.MAXIT)
    mesh, kfield, bc, _ = bench.build_problem(spec)
    problem = adapter.Problem(spec, mesh, kfield, bc, system=None)
    f = adapter.source(problem, 1, 1)
    before = status()
    times = []
    for i in range(REPEATS):
        t0 = time.perf_counter()
        adapter.direct_field(problem, f)
        times.append(time.perf_counter() - t0)
        if i == 0:
            after = status()
    return {"direct_s": float(np.median(times)), "direct_solves": len(times),
            "direct_min_s": min(times), "direct_max_s": max(times),
            "direct_hwm_before_mb": before["VmHWM"], "direct_hwm_after_mb": after["VmHWM"]}


def record_quickstart(name: str) -> dict:
    """Iterations, strip solves, true residual and field of each path of
    the quick-start QUICKSTARTS[name]."""
    from helmsweep import bench

    config = QUICKSTARTS[name]
    rec = {}
    for solver, preconditioners in PATHS.items():
        ctx = bench.BenchContext(bench.ProblemSpec(**config, solver=solver))
        for p in preconditioners:
            before = sum(sv.solve_count for sv in ctx.system.solvers)
            run = ctx.solve(bench.ProblemSpec(**config, solver=solver, preconditioner=p))
            rec[f"{solver} {p}/iterations"] = len(run.history) - 1
            rec[f"{solver} {p}/solves"] = (sum(sv.solve_count for sv in ctx.system.solvers)
                                           - before)
            rec[f"{solver} {p}/true_residual"] = float(run.true_residual)
            rec[f"{solver} {p}/field"] = run.solution
    return rec


RECORDERS = {"workload": record_workload, "direct": record_direct,
             "quick-start": record_quickstart}


def child(root: str, task: str, args: tuple, out: str) -> None:
    """Run one recorder on checkout root and save its record to the .npz out."""
    sys.path[:0] = [str(Path(root) / "src"), root]
    np.savez(out, **RECORDERS[task](*args))


def run_child(root: Path, task: str, args: tuple, out: Path, env: dict | None = None) -> dict:
    """The record of one recorder run on checkout root in a child process,
    in the environment env (this process's if None)."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import compare; compare.child({str(root)!r}, {task!r}, {args!r}, {str(out)!r})")
    subprocess.run([sys.executable, "-B", "-c", code], check=True, env=env)
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


def track(worst: dict, key: str, d) -> None:
    """Keep in worst[key] the largest difference d seen."""
    if d is not None:
        worst[key] = max(worst[key] or 0.0, d)


def time_range(rec: dict, name: str) -> str:
    return f"{rec[name + '_min_s']:.3f}-{rec[name + '_max_s']:.3f}"


def workload_lines(workload: str, p: dict, c: dict, worst: dict) -> list:
    """The lines of one workload's records; worst keeps each array's largest
    difference so far."""
    lines = [
        f"{workload} set-up: median {arrow(p, c, 'setup_s', '{:.3f}')} s, "
        f"range {time_range(p, 'setup')} -> {time_range(c, 'setup')} s, "
        f"of {arrow(p, c, 'setups')} samples, "
        f"VmHWM {arrow(p, c, 'vmhwm_mb', '{:.1f}')} MB, VmRSS {arrow(p, c, 'vmrss_mb', '{:.1f}')} MB",
        f"{workload} factors: {arrow(p, c, 'factor_kb')} kB, on huge pages by mapping "
        f"{arrow(p, c, 'huge_by_mapping_kb')} kB",
        f"{workload} layout: strips {arrow(p, c, 'strips')}, "
        f"distinct factors {arrow(p, c, 'factors')}, factor bytes "
        f"{arrow(p, c, 'factor_bytes')}, block bytes {arrow(p, c, 'block_bytes')}, "
        f"build {arrow(p, c, 'build_s', '{:.4f}')} s, "
        f"kept column bytes {arrow(p, c, 'kept_bytes')}, "
        f"L D L^T strips {arrow(p, c, 'ldlt_strips')}, "
        f"strips with blocks {arrow(p, c, 'block_strips')}"]
    for i in SHOTS:
        key = f"shot {i}"
        diffs = {name: difference(p[f"{key}/{name}"], c[f"{key}/{name}"]) for name in ARRAYS}
        for name, d in diffs.items():
            track(worst, name, d)
        lines.append(f"{workload} {key}: iterations {arrow(p, c, key + '/iterations')}, "
                     f"strip solves {arrow(p, c, key + '/solves')}, "
                     + ", ".join(f"{name} {diff_text(d)}" for name, d in diffs.items())
                     + f", true residual {arrow(p, c, key + '/true_residual', '{!r}')}, "
                     f"VmRSS {arrow(p, c, key + '/vmrss_mb', '{:.1f}')} MB")
    lines.append(f"{workload} direct solve: median {arrow(p, c, 'direct_s', '{:.3f}')} s, "
                 f"range {time_range(p, 'direct')} -> {time_range(c, 'direct')} s, "
                 f"of {arrow(p, c, 'direct_solves')} samples, "
                 f"VmHWM before {arrow(p, c, 'direct_hwm_before_mb', '{:.1f}')} MB, "
                 f"after {arrow(p, c, 'direct_hwm_after_mb', '{:.1f}')} MB")
    return lines


def quickstart_paths(rec: dict) -> list:
    """The paths of a quick-start record, in the order they ran."""
    return list(dict.fromkeys(k.split("/")[0] for k in rec))


def report(parent: dict, change: dict) -> list:
    """The comparison lines of two checkouts' records: {workload: record}
    for each workload, {name: record} for each QUICKSTARTS name, the same
    for name + UNPINNED, and {CODE: code_lines}."""
    lines = []
    worst = dict.fromkeys([*ARRAYS, "quick-start field"])
    for name, p in parent.items():
        c = change[name]
        if name == CODE:
            lines.append(f"code lines of src/helmsweep: {p} -> {c}")
        elif name in QUICKSTARTS:
            for path in quickstart_paths(p):
                d = difference(p[path + "/field"], c[path + "/field"])
                track(worst, "quick-start field", d)
                lines.append(f"{name} {path}: iterations {arrow(p, c, path + '/iterations')}, "
                             f"strip solves {arrow(p, c, path + '/solves')}, "
                             f"true residual {arrow(p, c, path + '/true_residual', '{!r}')}, "
                             f"field {diff_text(d)}")
        elif name.endswith(UNPINNED):
            pinned = name[:-len(UNPINNED)]
            for side, rec in (("parent", parent), ("change", change)):
                diffs = {path: difference(rec[pinned][path + "/field"], rec[name][path + "/field"])
                         for path in quickstart_paths(rec[name])}
                lines.append(f"{name} fields against pinned, {side}: "
                             + ", ".join(f"{path} {diff_text(d)}" for path, d in diffs.items()))
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
    unpinned = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    # one BLAS thread, as the benchmark pins it, so reductions run in one order
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(roots[1] / "src"), str(roots[1])]
    from perfbench import adapter

    records = tuple({CODE: code_lines(root)} for root in roots)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "record.npz"
        names = [*adapter.WORKLOADS, *QUICKSTARTS, *(name + UNPINNED for name in QUICKSTARTS)]
        for n, name in enumerate(names):
            # the two checkouts take turns to run first
            for side in (0, 1) if n % 2 == 0 else (1, 0):
                if name in QUICKSTARTS:
                    records[side][name] = run_child(roots[side], "quick-start", (name,), out)
                elif name.endswith(UNPINNED):
                    records[side][name] = run_child(roots[side], "quick-start",
                                                    (name[:-len(UNPINNED)],), out, unpinned)
                else:
                    records[side][name] = {
                        **run_child(roots[side], "workload", (name,), out),
                        **run_child(roots[side], "direct", (name,), out)}
    for line in report(*records):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
