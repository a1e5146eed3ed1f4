"""Banded LU factorization of complex band matrices.

Thin wrapper over LAPACK zgbtrf, which factors a matrix with lower
bandwidth kl and upper bandwidth ku in the (2*kl+ku+1, n) LAPACK band layout
with partial pivoting.  The factor is computed once and reused for any
number of right-hand sides.  A matrix with a non-finite entry is rejected
before factoring.

Every strip matrix is complex symmetric (A = A^T, see grid.py), and zgbtrf
swaps no row on the benchmark's strips.  Then U = D L^T with D the diagonal
of U, so only L is kept: its kl + 1 band rows, 1/D in row 0 where L's unit
diagonal is never read.  That is (kl+1)*n*16 bytes, half of both triangles:
40 MB for the five waveguide-osds strips, 36 MB for wedge-jacobi.  A solve
is ztbsv with L, a multiply by 1/D, and ztbsv with L^T (trans 'T': the
plain transpose, not the conjugate transpose), all in place on one array:
the caller's right-hand side itself if it hands it over (overwrite_rhs),
else a copy.  The second pass re-reads an L still in cache: a strip solve
made in turn with the other strips costs 2.1 ms instead of 3.0 on
waveguide-osds and 2.1 instead of 2.7 on wedge-jacobi.  A multiply by the
strided row 1/D costs the largest wedge-jacobi strip (n 11086) 16 us where
a division by D took 52 us (BENCH_23.json).

Such a matrix is factored one chunk of columns at a time, in a single
zgbtrf workspace of about 4 MiB (_CHUNK_BYTES) reused along it: 1115
columns of a waveguide-osds strip, 6 chunks.  Chunk [c0, c1)
is rows c0 .. c1 + kl - 1 of its columns, all the rows their multipliers
reach, so zgbtrf(M = min(n, c1 + kl) - c0, N = c1 - c0) leaves their L and
D complete, and its rows kl + ku .. go straight into the kept factor.  The
pivots before c0 have changed only the chunk's leading kl x kl block, by C =
W diag(D) W^T, where W[a, b] = l(c0 + a, c0 - kl + b) and D are the last kl
pivots.  A chunk is at least kl columns wide, so C is the carry from one
chunk to the next: read from the kept factor and subtracted before zgbtrf
runs.  Row 0 takes 1/D once the last chunk is done.  A matrix of one chunk
is one zgbtrf call on its LAPACK band storage, so its L is zgbtrf's bit for
bit, and row 0 is 1.0 / D of it.  A longer one differs from that by
roundoff: 1.4e-15 of the largest entry on the benchmark strips.  A
factorization so holds its factor and 4 MiB, where one call on the whole
matrix held a workspace three times the factor.

Any other matrix goes through the same loop as one chunk of n columns and
keeps that chunk's workspace and pivots, zgbtrf's own LU, to be solved by
zgbtrs: a matrix that is not exactly symmetric, whose columns are read from
a CSC copy (a symmetric matrix's are its CSR rows), and one whose only
chunk swaps a row or meets a zero pivot, which is then reported as
singular.  A chunk of a longer matrix that swaps or meets a zero pivot
sends it back through the loop as one chunk.  So a one-chunk matrix is
factored once, whatever zgbtrf finds.  No benchmark strip takes this path;
strips of coarse stock problems do (README).

The factorization (zgbtrf and the carry's zgemm) and both solves (ztbsv,
zgbtrs) call their kernel through the function pointer that scipy's Cython
BLAS/LAPACK API exports (scipy.linalg.cython_blas and cython_lapack), as a
ctypes function.  A ctypes call releases the GIL, so strips factored or
solved on different threads run side by side; scipy's f2py wrappers hold it
and serialize them.  Solving the five wedge-jacobi strips in turn on two
threads costs 0.75 ms a solve against 1.30 ms on one; through the wrappers
two threads took 1.40 ms against 1.22 ms (one BLAS thread, 2 shared cores,
BENCH_13.json).  It is the same OpenBLAS routine the wrappers call, so the
results are bitwise equal; a lone call costs 1-4 % more through ctypes.
solve() may run on one factor from several threads at once, and counts
every call under a lock.

The kept factor and the chunk workspace, which is zgbtrf's LU when it is
kept, are each a private anonymous mapping of their own, so each goes straight
back to the OS when released, not to a malloc arena of the thread that
factored it.  As numpy does for its arrays of 4 MiB and more, a mapping
that large starts on a 2 MiB boundary and is advised onto transparent huge
pages before its first touch, up to the end of the huge page the array ends
in, so all of it can be: every benchmark factor is.  A factor whose last
part stayed on small pages made shots 4-6 % slower (BENCH_20.json).  The
workspace of a matrix of several chunks is advised too: it is
_CHUNK_BYTES, two huge pages, and on small pages its faults cost several
per cent of a set-up.

A strip solve with data on one side only need not sweep the whole factor
(the sparse right-hand sides of Gilbert & Peierls, SISC 9(5), 1988, and
the sparse requested entries of Amestoy, Duff, L'Excellent & Rouet, SISC
37(2), 2015).  solve(rhs, head, keep) takes rhs[:head] == 0, so L^-1 rhs is
zero there too and the L pass runs on rows >= head only; and it returns
only rows >= keep, which the L^T back-substitution computes from rows >=
keep alone, so that pass runs on the trailing n - keep rows.  Each pass is
ztbsv on a trailing block of the factor, reached by offsetting the
pointers, and does on the rows it keeps the arithmetic of the full pass:
those rows are bitwise the full solve.  Rows < keep are NaN, so a read of
one fails loudly.  The zgbtrs fallback always solves in full.  row_count
adds up the factor columns the passes sweep, per right-hand side: 2 n for
a full solve.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import operator
import threading

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cython_blas, cython_lapack
from scipy.sparse import spmatrix

ComplexArray = NDArray[np.complex128]

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _kernel(module, name: str, nargs: int):
    """scipy's Cython export `name` of module as a GIL-releasing ctypes call.

    Every argument is a pointer, passed as an address: the routines take
    Fortran's by-reference characters, integers and arrays.
    """
    capsule = module.__pyx_capi__[name]
    pointer = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(pointer)


_ztbsv = _kernel(cython_blas, "ztbsv", 9)
_zgbtrf = _kernel(cython_lapack, "zgbtrf", 8)
_zgbtrs = _kernel(cython_lapack, "zgbtrs", 11)
_zgemm = _kernel(cython_blas, "zgemm", 13)


def _ints(*values):
    """References to fresh C ints holding values, for by-reference arguments."""
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


# numpy advises its arrays of 4 MiB and more onto transparent huge pages,
# which are 2 MiB on x86-64
_HUGE_FROM = 4 << 20
_HUGE_PAGE = 2 << 20
_PRIVATE = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
# the workspace zgbtrf factors one chunk of a symmetric band matrix in, the
# L2 cache of one core of the 2-core host of BENCH_20.json.  Of 0.5, 1, 2
# and 4 MiB, 4 factored the benchmark strips fastest there, and its peak
# memory was within 2 MB of the smallest's.
_CHUNK_BYTES = 4 << 20


def _address(mapping: mmap.mmap) -> int:
    return np.frombuffer(mapping, np.uint8).ctypes.data


def _workspace(rows: int, n: int, huge: bool = False) -> ComplexArray:
    """A zero (rows, n) Fortran-ordered array in a private anonymous mapping
    of its own, its base.

    An array of _HUGE_FROM bytes or more, or any if huge, starts on a huge
    page boundary, and is advised onto huge pages before the first touch up
    to the end of the huge page it ends in, for at most 2 MiB past it.
    """
    size = rows * n * 16
    huge = huge or size >= _HUGE_FROM
    # whole huge pages, and room to align them
    span = -(-size // _HUGE_PAGE) * _HUGE_PAGE if huge else size
    mapping = mmap.mmap(-1, max(span + huge * _HUGE_PAGE, 1), flags=_PRIVATE)
    offset = 0
    if huge:
        offset = -_address(mapping) % _HUGE_PAGE
        with contextlib.suppress(OSError):  # a kernel without transparent huge pages
            mapping.madvise(mmap.MADV_HUGEPAGE, offset, span)
    return np.ndarray((rows, n), np.complex128, mapping, offset, order="F")


def _check_band(off: NDArray, kl: int, ku: int, label: str) -> None:
    """Raise if a row - column offset in off lies outside the band."""
    if off.size and (off.max() > kl or -off.min() > ku):
        raise ValueError(
            f"{label}: entry outside declared band: kl={kl}, ku={ku}, "
            f"found offsets [{-off.min()}, {off.max()}]"
        )


def _chunk_columns(kl: int, ku: int) -> int:
    """Columns of the chunks an exactly symmetric matrix is factored in:
    _CHUNK_BYTES of zgbtrf workspace, and never fewer than kl, so a chunk
    holds every pivot the next one needs."""
    return max(kl, 1, _CHUNK_BYTES // (16 * (2 * kl + ku + 1)))


class BandedLU:
    """LU factorization of a banded complex matrix, computed once at init.

    A complex-symmetric matrix factored without a row swap is stored as one
    Fortran-contiguous (kl + 1, n) array _ld in tbsv storage: 1/D in row 0,
    L's multipliers in rows 1..kl.  Any other matrix is factored as one
    chunk, and keeps that chunk's workspace as zgbtrf's (2 kl + ku + 1, n)
    array _lu and its 1-based pivots _ipiv, as zgbtrs reads them: a matrix
    that is not exactly symmetric, one whose only chunk swaps a row, and
    one of several chunks that swaps a row or meets a zero pivot, which is
    factored again as one chunk.
    """

    def __init__(self, matrix: spmatrix, kl: int, ku: int, label: str = "system"):
        n = matrix.shape[0]
        if matrix.shape[1] != n:
            raise ValueError(f"{label}: matrix must be square, got {matrix.shape}")
        if not np.isfinite(matrix.data).all():
            raise ValueError(f"{label}: matrix has a non-finite entry")
        self.n = n
        self.kl = kl
        self.ku = ku
        self._ld = self._lu = self._ipiv = None
        symmetric = (matrix != matrix.T).nnz == 0
        # entries indptr[j]:indptr[j + 1] of either are column j of A
        self._factor(matrix.tocsr() if symmetric else matrix.tocsc(), symmetric, label)
        # the by-reference k, lda and incx of every ztbsv call
        self._tbsv_args = _ints(kl, kl + 1, 1)
        self.factor_count = 1
        self.solve_count = 0
        self.row_count = 0
        self._count_lock = threading.Lock()

    def _factor(self, columns: spmatrix, symmetric: bool, label: str) -> None:
        """Factor A, whose column j is entries indptr[j]:indptr[j + 1] of
        columns, into _ld, or else into _lu and _ipiv (module docstring).

        The pivots before chunk [c0, c1) have taken C = W diag(D) W^T from
        its leading kl x kl block, with W[a, b] = l(c0 + a, c0 - kl + b) and
        D the chunk before's last kl pivots; W is upper triangular, since
        l(i, k) = 0 for i - k > kl.
        """
        n, kl, ku = self.n, self.kl, self.ku
        rows = 2 * kl + ku + 1
        j = np.repeat(np.arange(n), np.diff(columns.indptr))
        i = columns.indices
        _check_band(i - j, kl, ku, label)
        # where A(i, j) lands in the workspace of a chunk starting at column 0
        at = kl + ku + i - j + rows * j
        info = ctypes.c_int(0)
        a, b = np.triu_indices(kl)
        w = np.zeros((kl, kl), np.complex128, order="F")
        one, zero = np.ones(1, np.complex128), np.zeros(1, np.complex128)
        carry = np.empty((kl, kl), np.complex128, order="F")
        chunk = _chunk_columns(kl, ku) if symmetric else n
        for width in (chunk, n) if chunk < n else (chunk,):
            # ztbsv reads the factor with leading dimension kl + 1
            ld = _workspace(kl + 1, n) if symmetric else None
            # a whole chunk's workspace fills the two huge pages of
            # _CHUNK_BYTES; on small pages, a page fault per 4 kB of it cost
            # several per cent of a set-up
            ws = _workspace(rows, min(n, width), huge=n > width)
            flat = ws.reshape(-1, order="F")
            ipiv = np.empty(ws.shape[1], np.intc)
            unswapped = np.arange(1, ws.shape[1] + 1, dtype=np.intc)
            for c0 in range(0, n, width):
                c1 = min(n, c0 + width)
                # rows 0 .. kl - 1 are zgbtrf's fill-in, which it sets itself
                ws[kl:, :c1 - c0] = 0
                p0, p1 = columns.indptr[c0], columns.indptr[c1]
                # entries above row c0 land in the triangle LAPACK documents as unused
                flat[at[p0:p1] - rows * c0] = columns.data[p0:p1]
                if c0:
                    # the leading block: A(c0 + r, c0 + c) at ws[kl + ku + r - c, c],
                    # r, c < kl; rows of C past the last row of A are 0
                    block = np.lib.stride_tricks.as_strided(flat[kl + ku:], (kl, kl),
                                                            (16, 16 * (rows - 1)))
                    block -= carry
                _zgbtrf(*_ints(min(n, c1 + kl) - c0, c1 - c0, kl, ku), ws.ctypes.data,
                        *_ints(rows), ipiv.ctypes.data, ctypes.byref(info))
                if (info.value != 0 or not symmetric
                        or not np.array_equal(ipiv[:c1 - c0], unswapped[:c1 - c0])):
                    break
                ld[:, c0:c1] = ws[kl + ku:, :c1 - c0]
                if c1 < n and kl:
                    w[a, b] = ld[kl + a - b, c1 - kl + b]
                    wd = np.multiply(w, ld[0, c1 - kl:c1], order="F")
                    # (W D) W^T by the BLAS zgbtrf calls; numpy's matmul runs in
                    # a BLAS of its own, whose threads would spin beside them
                    _zgemm(b"N", b"T", *_ints(kl, kl, kl), one.ctypes.data, wd.ctypes.data,
                           *_ints(kl), w.ctypes.data, *_ints(kl), zero.ctypes.data,
                           carry.ctypes.data, *_ints(kl))
            else:
                # the carry has read D, so row 0 can take 1/D, which a solve
                # multiplies by
                np.divide(1.0, ld[0], out=ld[0])
                self._ld = ld
                return
        if info.value != 0:
            raise ValueError(f"{label}: banded LU failed, zgbtrf info={info.value}")
        self._lu = ws
        self._ipiv = ipiv

    @property
    def nbytes(self) -> int:
        """Bytes of the stored factors and pivot indices."""
        return sum(a.nbytes for a in (self._ld, self._lu, self._ipiv) if a is not None)

    def _ldlt(self, x: ComplexArray, head: int, keep: int) -> None:
        """Overwrite rows >= keep of the (n, k) Fortran-ordered x with those of
        L^-T D^-1 L^-1 x, for x[:head] == 0, and rows < keep with NaN."""
        k, lda, inc = self._tbsv_args
        lower, upper = _ints(self.n - head, self.n - keep)
        # column j of the factor starts (kl + 1) entries after column j - 1
        ld = self._ld.ctypes.data
        step = self._ld.strides[1]
        # rows < head stay zero and rows < keep are dropped
        start = max(head, keep)
        for c in x.T:
            at = c.ctypes.data
            _ztbsv(b"L", b"N", b"U", lower, k, ld + head * step, lda, at + head * c.itemsize, inc)
            c[start:] *= self._ld[0, start:]
            _ztbsv(b"L", b"T", b"U", upper, k, ld + keep * step, lda, at + keep * c.itemsize, inc)
            c[:keep] = np.nan

    def _gbtrs(self, x: ComplexArray) -> None:
        """Overwrite the (n, k) Fortran-ordered x with A^-1 x by zgbtrs."""
        info = ctypes.c_int(0)
        _zgbtrs(b"N", *_ints(self.n, self.kl, self.ku, x.shape[1]), self._lu.ctypes.data,
                *_ints(2 * self.kl + self.ku + 1), self._ipiv.ctypes.data, x.ctypes.data,
                *_ints(self.n), ctypes.byref(info))
        if info.value != 0:
            raise ValueError(f"banded back-substitution failed, zgbtrs info={info.value}")

    def solve(self, rhs: ComplexArray, head: int = 0, keep: int = 0,
              overwrite_rhs: bool = False) -> ComplexArray:
        """x with A x = rhs, for a right-hand side of shape (n,) or (n, k).

        rhs[:head] must be zero, and only x[keep:] is solved for: x[:keep]
        is NaN.  The zgbtrs fallback ignores both and solves in full.  With
        overwrite_rhs, a Fortran-ordered complex128 rhs is solved in place
        and returned; any other rhs is copied, as it always is without it.
        """
        x = (np.asarray if overwrite_rhs else np.array)(rhs, dtype=np.complex128, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(f"right-hand side of shape {x.shape} for order {self.n}")
        head, keep = operator.index(head), operator.index(keep)
        if not (0 <= head <= self.n and 0 <= keep <= self.n):
            raise ValueError(f"head {head} and keep {keep} must lie in 0..{self.n}")
        block = x.reshape(self.n, -1, order="F")
        if self._ld is not None:
            self._ldlt(block, head, keep)
            rows = 2 * self.n - head - keep
        else:
            self._gbtrs(block)
            rows = 2 * self.n
        with self._count_lock:
            self.solve_count += 1
            self.row_count += rows * block.shape[1]
        return x
