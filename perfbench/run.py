"""Command line of the multi-shot solve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a helmsweep checkout: the program is imported from
its ``src`` directory, never from an installed copy, and the run stops with
exit code 2 and no result line when the sources are not there.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A summary and the environment go to
standard error; the shots, set-up times and spans go to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # pinned before numpy loads OpenBLAS: two threads on two shared cores
    # made single factorizations ten times slower on some repeats
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "helmsweep" / "__init__.py").is_file():
        print(f"perfbench: no helmsweep sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    import helmsweep
    if Path(helmsweep.__file__).resolve().parent != (src / "helmsweep").resolve():
        print(f"perfbench: imported helmsweep from {helmsweep.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from perfbench import harness
    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
