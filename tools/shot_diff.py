"""Compare the benchmark shots of two checkouts to roundoff.

    python3 tools/shot_diff.py PARENT CHANGE

PARENT and CHANGE are helmsweep checkouts.  Each runs in its own Python
subprocess, which imports that checkout's ``src`` and
``perfbench/adapter.py`` and solves shots 0-2 of seed 1 on every benchmark
workload through ``adapter.shot``, the benchmark's own solve path.  The
arrays travel through a temporary directory outside both checkouts, and
no bytecode is written, so nothing is written under either root.

Each shot prints one line: GMRES iterations and strip solves (parent ->
change), and ||change - parent|| / ||parent|| of g (trace right-hand
side), h (trace solution) and the field.  The last line is the largest of
each difference.  Where ``tools/shot_fingerprint.py`` tells whether two
checkouts agree bitwise, this tells by how much they differ when they do
not.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 1
SHOTS = (0, 1, 2)
ARRAYS = ("g", "h", "field")


def record(root: str, out: str) -> None:
    """Solve the shots on checkout root and save them to the .npz file out."""
    root = Path(root)
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import adapter

    saved = {}
    for workload in adapter.WORKLOADS:
        problem = adapter.setup(workload)
        for i in SHOTS:
            f = adapter.source(problem, SEED, i)
            before = adapter.solve_count(problem)
            shot = adapter.shot(problem, f)
            key = f"{workload}/{i}"
            saved[f"{key}/iterations"] = shot.iterations
            saved[f"{key}/solves"] = adapter.solve_count(problem) - before
            for name in ARRAYS:
                saved[f"{key}/{name}"] = getattr(shot, name)
        del problem  # free these factors before the next workload's
    np.savez(out, **saved)


def run_checkout(root: Path, out: Path) -> dict:
    # one BLAS thread, as the benchmark pins it, so reductions run in one order
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import shot_diff; shot_diff.record({str(root)!r}, {str(out)!r})")
    subprocess.run([sys.executable, "-B", "-c", code], env=env, check=True)
    with np.load(out) as data:
        return dict(data)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    for root in roots:
        if not (root / "src" / "helmsweep" / "__init__.py").is_file():
            print(f"shot_diff: no helmsweep sources under {root}/src",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = [run_checkout(root, Path(tmp) / f"{name}.npz")
                          for root, name in zip(roots, ("parent", "change"))]
    worst = dict.fromkeys(ARRAYS, 0.0)
    for key in dict.fromkeys(k.rsplit("/", 1)[0] for k in parent):
        diffs = {}
        for name in ARRAYS:
            p, c = parent[f"{key}/{name}"], change[f"{key}/{name}"]
            diffs[name] = float(np.linalg.norm(c - p) / np.linalg.norm(p))
            worst[name] = max(worst[name], diffs[name])
        workload, i = key.split("/")
        print(f"{workload} shot {i}: "
              f"iterations {parent[key + '/iterations']} -> {change[key + '/iterations']}, "
              f"strip solves {parent[key + '/solves']} -> {change[key + '/solves']}, "
              + ", ".join(f"{name} {d:.2e}" for name, d in diffs.items()))
    print("largest relative difference: "
          + ", ".join(f"{name} {d:.2e}" for name, d in worst.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
