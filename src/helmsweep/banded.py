"""Banded LU factorization of complex band matrices.

Thin wrapper over LAPACK zgbtrf, which factors a matrix with lower
bandwidth kl and upper bandwidth ku in the (2*kl+ku+1, n) LAPACK band layout
with partial pivoting.  The factor is computed once and reused for any
number of right-hand sides.  It reads the matrix's diagonals: a DIA
matrix's own (RectStencil.matrix), any other's once its entries lie in the
band.  A matrix with a non-finite entry is rejected before factoring.

Every strip matrix is complex symmetric (A = A^T, see grid.py), and zgbtrf
swaps no row on the benchmark's strips.  Then U = D L^T with D the diagonal
of U, so only L is kept: its kl + 1 band rows, 1/D in row 0 where L's unit
diagonal is never read.  That is (kl+1)*n*16 bytes, half of both triangles.
Strips whose factors are bitwise equal store one copy (share, below).  A
solve is ztbsv with L, a multiply by 1/D, and ztbsv with L^T (trans 'T':
the plain transpose, not the conjugate transpose), all in place on one
array: the caller's right-hand side itself if it hands it over
(overwrite_rhs), else a copy.  The second pass so re-reads an L still in
cache, and a multiply by the strided row 1/D is cheaper than a division by
D (BENCH_23.json).

Such a matrix is factored one chunk of columns at a time, in a single
zgbtrf workspace of _CHUNK_BYTES reused along it.  Chunk [c0, c1)
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
roundoff.  A factorization so holds its factor and one chunk's workspace,
where a zgbtrf workspace of the whole matrix is three times the factor
(BENCH_20.json).

Any other matrix goes through the same loop as one chunk of n columns and
keeps that chunk's workspace and pivots, zgbtrf's own LU, to be solved by
zgbtrs: a matrix that is not exactly symmetric, and one whose only chunk
swaps a row or meets a zero pivot, which is then reported as singular.  A
chunk of a longer matrix that swaps or meets a zero pivot sends it back
through the loop as one chunk.  So a one-chunk matrix is factored once,
whatever zgbtrf finds.  No benchmark strip takes this path; strips of
coarse stock problems do (README).

The factorization (zgbtrf and the carry's zgemm) and both solves (ztbsv,
zgbtrs) call their kernel through the function pointer that scipy's Cython
BLAS/LAPACK API exports (scipy.linalg.cython_blas and cython_lapack), as a
ctypes function.  A ctypes call releases the GIL, so strips factored or
solved on different threads run side by side; scipy's f2py wrappers hold it
and serialize them, so through them two threads solved the wedge-jacobi
strips no faster than one (BENCH_13.json).  It is the same OpenBLAS
routine the wrappers call, so the results are bitwise equal.  solve() may
run on one factor from several threads at once, and counts every call
under a lock.

BandedLU.share(other) makes a factorization read other's stored arrays and
drops its own when the two hold the same bytes: same (n, kl, ku), same
storage kind, and equal bits in every entry, so 0.0 and -0.0 differ.  An
unequal pair of one shape is usually told apart on a sample of _SAMPLE
columns, at a fraction of the cost of comparing all of them.  The shared
arrays are only read, so solves on them from several factorizations need
no lock; each keeps its own counters and ztbsv arguments.  Strips solved
in turn that share a factor cost per MB of factor what one strip solved
again and again costs, less than strips with factors of their own
(BENCH_25.json).

The kept factor and the chunk workspace, which is zgbtrf's LU when it is
kept, are each a private anonymous mapping of their own, so each goes straight
back to the OS when released, not to a malloc arena of the thread that
factored it.  As numpy does for its arrays of _HUGE_FROM bytes and more, a
mapping that large starts on a huge page boundary and is advised onto
transparent huge pages before its first touch, up to the end of the huge
page the array ends in, so all of it can be: every benchmark factor is.  A
factor whose last part stayed on small pages made shots slower
(BENCH_20.json).  The workspace of a matrix of several chunks is advised
too: it is _CHUNK_BYTES, whole huge pages, and on small pages its page
faults slow a set-up.

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
adds up the factor columns the passes sweep: 2 n for a full solve.
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
# the workspace zgbtrf factors one chunk of a symmetric band matrix in: of
# the sizes tried, the one that factored the benchmark strips fastest, at a
# peak memory close to the smallest's (BENCH_20.json)
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


def _diagonals(matrix: spmatrix, kl: int, ku: int, label: str) -> dict:
    """{o: d} with d[j] = A(j - o, j) for max(0, o) <= j < min(n, n + o), as
    DIA stores it; any other matrix is checked against the band first."""
    n = matrix.shape[0]
    dia = matrix.format == "dia" and matrix.data.shape[1] >= n
    if dia:
        offsets, data = matrix.offsets.tolist(), matrix.data[:, :n]
        off = -np.array([o for o in offsets if abs(o) < n], int)
    else:
        coo = matrix.tocoo(copy=True)
        coo.sum_duplicates()
        off = coo.row - coo.col
    if off.size and (off.max() > kl or -off.min() > ku):
        raise ValueError(f"{label}: entry outside declared band: kl={kl}, ku={ku}, "
                         f"found offsets [{-off.min()}, {off.max()}]")
    if not dia:
        offsets, data = range(-kl, ku + 1), np.zeros((kl + ku + 1, n), np.complex128)
        data[kl + coo.col - coo.row, coo.col] = coo.data
    return {o: d for o, d in zip(offsets, data) if abs(o) < n}


def _chunk_columns(kl: int, ku: int) -> int:
    """Columns of the chunks an exactly symmetric matrix is factored in:
    _CHUNK_BYTES of zgbtrf workspace, and never fewer than kl, so a chunk
    holds every pivot the next one needs."""
    return max(kl, 1, _CHUNK_BYTES // (16 * (2 * kl + ku + 1)))


# the columns BandedLU.share compares before all of them
_SAMPLE = 64


def _bits(a: np.ndarray) -> np.ndarray:
    """The Fortran-ordered a by columns, one row each, as integers that are
    equal exactly where a's bytes are: 0.0 and -0.0 differ."""
    return a.T.view(np.uint64) if a.dtype == np.complex128 else a.T


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
        diags = _diagonals(matrix, kl, ku, label)
        if not all(np.isfinite(d[max(0, o):n + min(0, o)]).all() for o, d in diags.items()):
            raise ValueError(f"{label}: matrix has a non-finite entry")
        self.n, self.kl, self.ku = n, kl, ku
        self._ld = self._lu = self._ipiv = None
        zero = np.zeros(n, np.complex128)
        # A(j - o, j) == A(j, j - o) for j >= o, on each diagonal pair
        symmetric = all(np.array_equal(diags.get(o, zero)[o:], diags.get(-o, zero)[:n - o])
                        for o in {abs(o) for o in diags} - {0})
        self._factor(diags, symmetric, label)
        # the by-reference k, lda and incx of every ztbsv call
        self._tbsv_args = _ints(kl, kl + 1, 1)
        self.factor_count = 1
        self.solve_count = 0
        self.row_count = 0
        self._count_lock = threading.Lock()

    def _factor(self, diags: dict, symmetric: bool, label: str) -> None:
        """Factor A, the diagonals diags of _diagonals, into _ld, or else
        into _lu and _ipiv (module docstring).

        The pivots before chunk [c0, c1) have taken C = W diag(D) W^T from
        its leading kl x kl block, with W[a, b] = l(c0 + a, c0 - kl + b) and
        D the chunk before's last kl pivots; W is upper triangular, since
        l(i, k) = 0 for i - k > kl.
        """
        n, kl, ku = self.n, self.kl, self.ku
        rows = 2 * kl + ku + 1
        info = ctypes.c_int(0)
        a, b = np.triu_indices(kl)
        w = np.zeros((kl, kl), np.complex128, order="F")
        one, zero = np.ones(1, np.complex128), np.zeros(1, np.complex128)
        carry = np.empty((kl, kl), np.complex128, order="F")
        chunk = _chunk_columns(kl, ku) if symmetric else n
        for width in (chunk, n) if chunk < n else (chunk,):
            # ztbsv reads the factor with leading dimension kl + 1
            ld = _workspace(kl + 1, n) if symmetric else None
            # a whole chunk's workspace fills the huge pages of _CHUNK_BYTES;
            # on small pages, its page faults slow a set-up
            ws = _workspace(rows, min(n, width), huge=n > width)
            ipiv = np.empty(ws.shape[1], np.intc)
            unswapped = np.arange(1, ws.shape[1] + 1, dtype=np.intc)
            for c0 in range(0, n, width):
                c1 = min(n, c0 + width)
                # rows 0 .. kl - 1 are zgbtrf's fill-in, which it sets itself
                ws[kl:, :c1 - c0] = 0
                for o, d in diags.items():
                    # A(i, j) at ws[kl + ku + i - j, j - c0]; entries above
                    # row c0 land in the triangle LAPACK documents as unused
                    lo = max(o, c0)
                    hi = max(lo, min(n + o, c1))
                    ws[kl + ku - o, lo - c0:hi - c0] = d[lo:hi]
                if c0:
                    # the leading block: A(c0 + r, c0 + c) at ws[kl + ku + r - c, c],
                    # r, c < kl; rows of C past the last row of A are 0
                    block = np.lib.stride_tricks.as_strided(ws[kl + ku:], (kl, kl),
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

    @property
    def factor(self) -> ComplexArray:
        """The stored factor, _ld or else _lu: the same array on every
        BandedLU that shares it."""
        return self._lu if self._ld is None else self._ld

    def share(self, other: "BandedLU") -> bool:
        """Read other's stored arrays from now on, and drop this one's, if
        they hold the same bytes; True if so.

        A pair of another (n, kl, ku) or storage kind is refused first, then
        one that differs on every _SAMPLE-th column, so an unequal pair of
        one shape costs a fraction of the full comparison.  The counters
        stay this object's own.
        """
        if (self.n, self.kl, self.ku) != (other.n, other.kl, other.ku):
            return False
        mine, theirs = (self._ld, self._lu, self._ipiv), (other._ld, other._lu, other._ipiv)
        if any((a is None) != (b is None) for a, b in zip(mine, theirs)):
            return False
        pairs = [(_bits(a), _bits(b)) for a, b in zip(mine, theirs) if a is not None]
        step = max(1, self.n // _SAMPLE)
        if not all(np.array_equal(a[::step], b[::step]) for a, b in pairs):
            return False
        if not all(np.array_equal(a, b) for a, b in pairs):
            return False
        self._ld, self._lu, self._ipiv = theirs
        return True

    def _ldlt(self, x: ComplexArray, head: int, keep: int) -> None:
        """Overwrite rows >= keep of the contiguous (n,) x with those of
        L^-T D^-1 L^-1 x, for x[:head] == 0, and rows < keep with NaN."""
        k, lda, inc = self._tbsv_args
        lower, upper = _ints(self.n - head, self.n - keep)
        # column j of the factor starts (kl + 1) entries after column j - 1
        ld = self._ld.ctypes.data
        step = self._ld.strides[1]
        at = x.ctypes.data
        # rows < head stay zero and rows < keep are dropped
        start = max(head, keep)
        _ztbsv(b"L", b"N", b"U", lower, k, ld + head * step, lda, at + head * x.itemsize, inc)
        x[start:] *= self._ld[0, start:]
        _ztbsv(b"L", b"T", b"U", upper, k, ld + keep * step, lda, at + keep * x.itemsize, inc)
        x[:keep] = np.nan

    def _gbtrs(self, x: ComplexArray) -> None:
        """Overwrite the contiguous (n,) x with A^-1 x by zgbtrs."""
        info = ctypes.c_int(0)
        _zgbtrs(b"N", *_ints(self.n, self.kl, self.ku, 1), self._lu.ctypes.data,
                *_ints(2 * self.kl + self.ku + 1), self._ipiv.ctypes.data, x.ctypes.data,
                *_ints(self.n), ctypes.byref(info))
        if info.value != 0:
            raise ValueError(f"banded back-substitution failed, zgbtrs info={info.value}")

    def solve(self, rhs: ComplexArray, head: int = 0, keep: int = 0,
              overwrite_rhs: bool = False) -> ComplexArray:
        """x with A x = rhs, for a right-hand side of shape (n,).

        rhs[:head] must be zero, and only x[keep:] is solved for: x[:keep]
        is NaN.  The zgbtrs fallback ignores both and solves in full.  With
        overwrite_rhs, a contiguous complex128 rhs is solved in place and
        returned; any other rhs is copied, as it always is without it.
        """
        x = (np.asarray if overwrite_rhs else np.array)(rhs, dtype=np.complex128, order="C")
        if x.shape != (self.n,):
            raise ValueError(f"right-hand side of shape {x.shape} for order {self.n}")
        head, keep = operator.index(head), operator.index(keep)
        if not (0 <= head <= self.n and 0 <= keep <= self.n):
            raise ValueError(f"head {head} and keep {keep} must lie in 0..{self.n}")
        if self._ld is not None:
            self._ldlt(x, head, keep)
            rows = 2 * self.n - head - keep
        else:
            self._gbtrs(x)
            rows = 2 * self.n
        with self._count_lock:
            self.solve_count += 1
            self.row_count += rows
        return x
