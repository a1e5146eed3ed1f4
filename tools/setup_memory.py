"""Time and memory of one strip set-up per benchmark workload.

    python3 tools/setup_memory.py ROOT

ROOT is a helmsweep checkout.  Its ``src`` and ``perfbench/adapter.py`` are
imported (nothing is written under ROOT).  Each benchmark workload is set
up once through ``adapter.setup``, in a fresh Python process of its own, so
the process's high-water mark is that one set-up's.  Each prints one line:
the set-up's wall seconds, VmHWM and VmRSS after it (MB, from
/proc/self/status), the bytes of the strip factors (kB), and how many of
those kB lie on transparent huge pages, counted two ways.

By mapping: /proc/self/smaps gives AnonHugePages per mapping, so a mapping
that holds factors adds its AnonHugePages, capped at the factor bytes it
holds.  Where the factors have mappings of their own the count is exact;
where a mapping also holds other data (a malloc heap) it is an upper bound.

By page, in all and per strip: each resident page of a factor whose frame
/proc/kpageflags marks as part of a transparent huge page (bit 22), found
through /proc/self/pagemap.  A process that may not read frame numbers
(they read as 0 without CAP_SYS_ADMIN) prints "n/a".

The script only reads /proc.
"""

import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

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


def measure(workload: str) -> str:
    from perfbench import adapter

    t0 = time.perf_counter()
    problem = adapter.setup(workload)
    seconds = time.perf_counter() - t0
    mem = status()
    factors = factor_ranges(problem)
    per = huge_kb_by_page(factors)
    by_page = "n/a" if per is None else f"{sum(per)} kB (per strip {' '.join(map(str, per))})"
    return (f"{workload}: setup {seconds:.3f} s, VmHWM {mem['VmHWM']:.1f} MB, "
            f"VmRSS {mem['VmRSS']:.1f} MB, factors {sum(n for _, n in factors) // 1024} kB, "
            f"on huge pages by mapping {huge_kb_by_mapping(factors)} kB, by page {by_page}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if not (root / "src" / "helmsweep" / "__init__.py").is_file():
        print(f"setup_memory: no helmsweep sources under {root}/src", file=sys.stderr)
        return 2
    # one BLAS thread, as the benchmark pins it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root)]
    if len(argv) == 2:
        # a child: one workload in this process
        print(measure(argv[1]), flush=True)
        return 0
    from perfbench import adapter

    for workload in adapter.WORKLOADS:
        done = subprocess.run([sys.executable, __file__, str(root), workload])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
