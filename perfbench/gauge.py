"""Host-speed gauge: fixed work timed next to every measurement.

On a shared host the speed of one core changes by a third or more over
minutes, with no change to the code: other tenants' load, not the program,
sets it.  Set-ups and shots slow down together with any other work on the
core, so each timed set-up and shot is preceded by one gauge reading, and
its time is reported as

    t * REF_S / gauge

that is, in seconds at the host speed at which the gauge reads REF_S.

A reading is the time of two fixed pieces of work, one for each kind of
cost in a strip solve:

- SOLVES back-substitutions (zgbtrs, the routine the program's strip
  solves call) with one banded LU of order N with KL sub- and
  super-diagonals, whose 1.5 MB of factors stay in a core's L2 cache;
- PASSES sums over a STREAM_MB array, which does not fit there.

The stream part takes a little over half of a reading.  Alone, the solves
moved more than the shots and the stream less; this mix tracked the shot
medians of 45-shot windows on both workloads (see README.md).  The gauge is
benchmark code only, so a change to the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import get_lapack_funcs

N = 1500
KL = 20
SOLVES = 200
STREAM_MB = 64
PASSES = 4
# the gauge's median reading on the machine the bounds were set on (2
# vCPUs of an Intel Xeon with AVX-512, OpenBLAS on one thread); it only
# sets the scale of the reported seconds
REF_S = 0.050


class Gauge:
    """Fixed operands; read() times the fixed work on them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        ab = np.zeros((3 * KL + 1, N), dtype=np.complex128)
        ab[KL:] = rng.normal(size=(2 * KL + 1, N)) + 1j * rng.normal(size=(2 * KL + 1, N))
        ab[2 * KL] += 4.0 * KL  # diagonally dominant: no pivoting surprises
        gbtrf, self._gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        self._lu, self._ipiv, info = gbtrf(ab, KL, KL)
        if info != 0:
            raise ValueError(f"gauge factorization failed, zgbtrf info={info}")
        self._rhs = np.ones(N, dtype=np.complex128)
        self._stream = np.ones(STREAM_MB * 2**20 // 8)
        self.read()  # first touch of the operands and the code

    @property
    def nbytes(self) -> int:
        """Resident bytes the gauge adds to the process."""
        return self._lu.nbytes + self._stream.nbytes

    def read(self) -> float:
        """Seconds the fixed work takes now."""
        gbtrs, lu, ipiv, rhs = self._gbtrs, self._lu, self._ipiv, self._rhs
        t0 = time.perf_counter()
        for _ in range(SOLVES):
            gbtrs(lu, KL, KL, rhs, ipiv)
        for _ in range(PASSES):
            self._stream.sum()
        return time.perf_counter() - t0


def scale(seconds: float, gauge_s: float) -> float:
    """A time read next to a gauge reading, in seconds at the reference speed."""
    return seconds * REF_S / gauge_s
