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

Both solves call their kernel (ztbsv, zgbtrs) through the function pointer
that scipy's Cython BLAS/LAPACK API exports (scipy.linalg.cython_blas and
cython_lapack), as a ctypes function.  A ctypes call releases the GIL, so
strip solves on different threads run side by side; scipy's f2py wrappers
hold it and serialize them.  Solving the five wedge-jacobi strips in turn
on two threads costs 0.75 ms a solve against 1.30 ms on one; through the
wrappers two threads took 1.40 ms against 1.22 ms (one BLAS thread, 2
shared cores, BENCH_13.json).  It is the same OpenBLAS routine the
wrappers call, so the results are bitwise equal; a lone call costs 1-4 %
more through ctypes.  solve() may run on one factor from several threads at once, and
counts every call under a lock.

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

import ctypes
import operator
import threading

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cython_blas, cython_lapack, get_lapack_funcs
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
_zgbtrs = _kernel(cython_lapack, "zgbtrs", 11)


def _ints(*values):
    """References to fresh C ints holding values, for by-reference arguments."""
    return [ctypes.byref(ctypes.c_int(v)) for v in values]


def band_storage(matrix: spmatrix, kl: int, ku: int) -> ComplexArray:
    """Pack a sparse matrix into LAPACK band storage for gbtrf.

    Entry (i, j) lands in ab[kl + ku + i - j, j]; the top kl rows are pivot
    workspace.  The array is Fortran-ordered so gbtrf can factor it in
    place.  Raises if any entry falls outside the declared band.
    """
    coo = matrix.tocoo()
    n = coo.shape[0]
    off = coo.row - coo.col
    if off.size and (off.max() > kl or -off.min() > ku):
        raise ValueError(
            f"entry outside declared band: kl={kl}, ku={ku}, "
            f"found offsets [{-off.min()}, {off.max()}]"
        )
    ab = np.zeros((2 * kl + ku + 1, n), dtype=np.complex128, order="F")
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
        gbtrf = get_lapack_funcs("gbtrf", (ab,))
        lu, ipiv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
        if info != 0:
            raise ValueError(f"{label}: banded LU failed, zgbtrf info={info}")
        self.n = n
        self.kl = kl
        self.ku = ku
        self._ld = self._lu = self._ipiv = None
        if np.array_equal(ipiv, np.arange(n)) and (matrix != matrix.T).nnz == 0:
            # a contiguous copy: ztbsv reads the factor with leading dimension kl + 1
            self._ld = np.asfortranarray(lu[kl + ku:])
        else:
            self._lu = lu
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
