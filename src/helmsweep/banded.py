"""Banded LU factorization of complex band matrices.

Thin wrapper over LAPACK zgbtrf.  A matrix with lower bandwidth kl and upper
bandwidth ku is packed into the (2*kl+ku+1, n) LAPACK layout, factored once
in place with partial pivoting, and reused for any number of right-hand
sides.  A matrix with a non-finite entry is rejected before factoring.

Every strip matrix is complex symmetric (A = A^T, see grid.py), and zgbtrf
swaps no row on the benchmark's strips.  Then U = D L^T with D the diagonal
of U, so only L is kept: its kl + 1 band rows, D in row 0 where L's unit
diagonal is never read.  That is (kl+1)*n*16 bytes, half of both triangles:
40 MB for the five waveguide-osds strips, 36 MB for wedge-jacobi.  A solve
is ztbsv with L, a division by D, and ztbsv with L^T (trans 'T': the
plain transpose, not the conjugate transpose).  The second pass re-reads an L
still in cache: a strip solve made in turn with the other strips costs 2.1
ms instead of 3.0 on waveguide-osds and 2.1 instead of 2.7 on wedge-jacobi.

Any other matrix, swapped or not exactly symmetric, keeps zgbtrf's own
array and pivots and is solved by zgbtrs.  No benchmark strip takes this
path.

The factorization (zgbtrf) and both solves (ztbsv, zgbtrs) call their
kernel through the function pointer that scipy's Cython BLAS/LAPACK API
exports (scipy.linalg.cython_blas and cython_lapack), as a ctypes function.
A ctypes call releases the GIL, so strips factored or solved on different
threads run side by side; scipy's f2py wrappers hold it and serialize them.
Solving the five wedge-jacobi strips in turn on two threads costs 0.75 ms a
solve against 1.30 ms on one; through the wrappers two threads took 1.40 ms
against 1.22 ms (one BLAS thread, 2 shared cores, BENCH_13.json).  It is
the same OpenBLAS routine the wrappers call, so the results are bitwise
equal; a lone call costs 1-4 % more through ctypes.  solve() may run on one
factor from several threads at once, and counts every call under a lock.

zgbtrf factors in a workspace of its own, a private anonymous mapping.  As
numpy does for its arrays of 4 MiB and more, a workspace that large is
advised onto transparent huge pages before its first touch, and it starts
on a 2 MiB boundary, so all of it but a partial last page can be.  The
L D L^T path then moves each column's kept rows kl+ku .. 2kl+ku to the
front of the same mapping, at leading dimension kl + 1, in increasing
column order and in chunks that never overwrite a column not yet moved,
and hands the pages behind them back to the OS (MADV_DONTNEED), all but
the rest of a huge page the factor reaches into.  So the factor stays on
huge pages whole, for at most 2 MiB of old workspace: every benchmark
factor does, where numpy's arrays held 77-87 % of them on huge pages
(BENCH_19.json).  No copy of the factor is made, and no freed workspace
lingers in a malloc arena of the thread that factored it, so strips
factored side by side hold one workspace more than strips factored in
turn, and only while they factor.  The mapping must be private: a shared
one keeps released pages in shmem, where they still take memory but no
longer count in the process's RSS.

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


def _ints(*values):
    """References to fresh C ints holding values, for by-reference arguments."""
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


# numpy advises its arrays of 4 MiB and more onto transparent huge pages,
# which are 2 MiB on x86-64
_HUGE_FROM = 4 << 20
_HUGE_PAGE = 2 << 20
_PRIVATE = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS


def _address(mapping: mmap.mmap) -> int:
    return np.frombuffer(mapping, np.uint8).ctypes.data


def _workspace(rows: int, n: int) -> ComplexArray:
    """A zero (rows, n) Fortran-ordered array in a private anonymous mapping
    of its own, its base.

    An array of _HUGE_FROM bytes or more starts on a huge page boundary,
    and the whole huge pages it spans are advised onto huge pages before
    the first touch.  Its partial last one stays on small pages, so no huge
    page reaches past the array.
    """
    size = rows * n * 16
    huge = size >= _HUGE_FROM
    mapping = mmap.mmap(-1, max(size + huge * _HUGE_PAGE, 1), flags=_PRIVATE)
    offset = 0
    if huge:
        offset = -_address(mapping) % _HUGE_PAGE
        with contextlib.suppress(OSError):  # a kernel without transparent huge pages
            mapping.madvise(mmap.MADV_HUGEPAGE, offset, size // _HUGE_PAGE * _HUGE_PAGE)
    return np.ndarray((rows, n), np.complex128, mapping, offset, order="F")


def _pack(ab: ComplexArray, top: int) -> ComplexArray:
    """Rows top.. of the workspace ab, moved to its front as a Fortran-ordered
    (rows - top, n) array; the whole pages behind them go back to the OS.

    Column j moves from offset j * rows + top to j * (rows - top), so a
    chunk of columns a..b-1 may move at once while b * (rows - top) <=
    a * rows + top: it then overwrites neither its own entries nor those of
    a column not yet moved.  The chunks grow geometrically.  A huge page
    the moved rows reach into stays whole.
    """
    rows, n = ab.shape
    m = rows - top
    front = ab.reshape(-1, order="F")[:m * n].reshape((m, n), order="F")
    a = 0
    while top and a < n:
        # a single column may overlap itself; numpy then copies through a buffer
        b = min(n, max(a + 1, (a * rows + top) // m))
        front[:, a:b] = ab[top:, a:b]
        a = b
    mapping = ab.base
    page = _HUGE_PAGE if ab.nbytes >= _HUGE_FROM else mmap.PAGESIZE
    start = ab.ctypes.data - _address(mapping) + -(-front.nbytes // page) * page
    if start < len(mapping):
        mapping.madvise(mmap.MADV_DONTNEED, start, len(mapping) - start)
    return front


def band_storage(matrix: spmatrix, kl: int, ku: int) -> ComplexArray:
    """Pack a sparse matrix into LAPACK band storage for gbtrf.

    Entry (i, j) lands in ab[kl + ku + i - j, j]; the top kl rows are pivot
    workspace.  The array is Fortran-ordered so gbtrf can factor it in
    place, and lives in a mapping of its own (see _workspace).  Raises if
    any entry falls outside the declared band.
    """
    coo = matrix.tocoo()
    n = coo.shape[0]
    off = coo.row - coo.col
    if off.size and (off.max() > kl or -off.min() > ku):
        raise ValueError(
            f"entry outside declared band: kl={kl}, ku={ku}, "
            f"found offsets [{-off.min()}, {off.max()}]"
        )
    ab = _workspace(2 * kl + ku + 1, n)
    ab[kl + ku + off, coo.col] = coo.data
    return ab


class BandedLU:
    """LU factorization of a banded complex matrix, computed once at init.

    A complex-symmetric matrix factored without a row swap is stored as one
    Fortran-contiguous (kl + 1, n) array _ld in tbsv storage: D in row 0,
    L's multipliers in rows 1..kl.  Any other matrix keeps zgbtrf's
    (2 kl + ku + 1, n) array _lu and its pivots _ipiv.
    """

    def __init__(self, matrix: spmatrix, kl: int, ku: int, label: str = "system"):
        n = matrix.shape[0]
        if matrix.shape[1] != n:
            raise ValueError(f"{label}: matrix must be square, got {matrix.shape}")
        if not np.isfinite(matrix.data).all():
            raise ValueError(f"{label}: matrix has a non-finite entry")
        ab = band_storage(matrix, kl, ku)
        ipiv = np.empty(n, dtype=np.intc)
        info = ctypes.c_int(0)
        _zgbtrf(*_ints(n, n, kl, ku), ab.ctypes.data, *_ints(ab.shape[0]),
                ipiv.ctypes.data, ctypes.byref(info))
        if info.value != 0:
            raise ValueError(f"{label}: banded LU failed, zgbtrf info={info.value}")
        # kept 0-based; zgbtrs gets them back 1-based
        ipiv -= 1
        self.n = n
        self.kl = kl
        self.ku = ku
        self._ld = self._lu = self._ipiv = None
        if np.array_equal(ipiv, np.arange(n)) and (matrix != matrix.T).nnz == 0:
            # ztbsv reads the factor with leading dimension kl + 1
            self._ld = _pack(ab, kl + ku)
        else:
            self._lu = ab
            self._ipiv = ipiv
        self.factor_count = 1
        self.solve_count = 0
        self.row_count = 0
        self._count_lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Bytes of the stored factors and pivot indices."""
        return sum(a.nbytes for a in (self._ld, self._lu, self._ipiv) if a is not None)

    def _ldlt(self, x: ComplexArray, head: int, keep: int) -> None:
        """Overwrite rows >= keep of the (n, k) Fortran-ordered x with those of
        L^-T D^-1 L^-1 x, for x[:head] == 0, and rows < keep with NaN."""
        k, lda, inc = _ints(self.kl, self.kl + 1, 1)
        lower, upper = _ints(self.n - head, self.n - keep)
        # column j of the factor starts (kl + 1) entries after column j - 1
        ld = self._ld.ctypes.data
        step = self._ld.strides[1]
        # rows < head stay zero and rows < keep are dropped
        start = max(head, keep)
        for c in x.T:
            at = c.ctypes.data
            _ztbsv(b"L", b"N", b"U", lower, k, ld + head * step, lda, at + head * c.itemsize, inc)
            c[start:] /= self._ld[0, start:]
            _ztbsv(b"L", b"T", b"U", upper, k, ld + keep * step, lda, at + keep * c.itemsize, inc)
            c[:keep] = np.nan

    def _gbtrs(self, x: ComplexArray) -> None:
        """Overwrite the (n, k) Fortran-ordered x with A^-1 x by zgbtrs."""
        info = ctypes.c_int(0)
        # zgbtrs reads LAPACK's 1-based pivot indices
        ipiv = np.add(self._ipiv, 1, dtype=np.intc)
        _zgbtrs(b"N", *_ints(self.n, self.kl, self.ku, x.shape[1]), self._lu.ctypes.data,
                *_ints(2 * self.kl + self.ku + 1), ipiv.ctypes.data, x.ctypes.data,
                *_ints(self.n), ctypes.byref(info))
        if info.value != 0:
            raise ValueError(f"banded back-substitution failed, zgbtrs info={info.value}")

    def solve(self, rhs: ComplexArray, head: int = 0, keep: int = 0) -> ComplexArray:
        """x with A x = rhs, for a right-hand side of shape (n,) or (n, k).

        rhs[:head] must be zero, and only x[keep:] is solved for: x[:keep]
        is NaN.  The zgbtrs fallback ignores both and solves in full.
        """
        x = np.array(rhs, dtype=np.complex128, order="F")
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
