"""Banded LU factorization of complex-symmetric band matrices.

A matrix is given by its diagonals, {offset: (n,) array}, as
RectStencil.diagonals() assembles them: A(i, j) sits in slot j of offset
j - i, and the slots outside the matrix are never read.  Its half-bandwidth
kl is the largest offset, and a missing offset is a diagonal of zeros.
Diagonals of unequal lengths, offsets not closed under negation or reaching
n, a non-finite entry, and a matrix not exactly complex symmetric (A = A^T
bit for bit, as every RectStencil matrix is, see grid.py) are each a
ValueError naming the factorization's label.  The factor is computed once,
by LAPACK zgbtrf in its (3 kl + 1, n) band layout with partial pivoting, and
reused for any number of right-hand sides.

On the benchmark's strips zgbtrf swaps no row.  Then U = D L^T with D the
diagonal of U, so only L is kept: its kl + 1 band rows, 1/D in row 0 where
L's unit diagonal is never read.  That is (kl+1)*n*16 bytes, half of both
triangles.  A solve is ztbsv with L, a multiply by 1/D, and ztbsv with L^T
(trans 'T': the plain transpose, not the conjugate transpose), all in place
on one array: the caller's right-hand side itself if it hands it over
(overwrite_rhs), else a copy.  The second pass so re-reads an L still in
cache, and a multiply by the strided row 1/D is cheaper than a division by D
(BENCH_23.json).

A matrix is factored one chunk of columns at a time, in a single
zgbtrf workspace of _CHUNK_BYTES reused along it.  Chunk [c0, c1)
is rows c0 .. c1 + kl - 1 of its columns, all the rows their multipliers
reach, so zgbtrf(M = min(n, c1 + kl) - c0, N = c1 - c0) leaves their L and
D complete, and its rows 2 kl .. go straight into the kept factor.  The
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

A matrix whose only chunk swaps a row keeps that chunk's workspace and
pivots, zgbtrf's own LU, to be solved by zgbtrs; one that meets a zero
pivot is reported as singular.  A chunk of a longer matrix that swaps or
meets a zero pivot sends it back through the loop as one chunk of n
columns.  So a one-chunk matrix is factored once, whatever zgbtrf finds.
No benchmark strip takes this path; strips of coarse stock problems do
(README).

The factorization (zgbtrf and the carry's zgemm), both solves (ztbsv,
zgbtrs) and tail_inverse (ztrsm, ztrmm) call their kernel through the
function pointer that scipy's Cython BLAS/LAPACK API exports
(scipy.linalg.cython_blas and cython_lapack), as a ctypes function.  A ctypes call releases the GIL, so strips factored or
solved on different threads run side by side; scipy's f2py wrappers hold it
and serialize them, so through them two threads solved the wedge-jacobi
strips no faster than one (BENCH_13.json).  It is the same OpenBLAS
routine the wrappers call, so the results are bitwise equal.  A BandedLU
is not changed once __init__ returns, and a solve only reads the factor,
so any number of strips may solve with one factor at once: strips built
from equal inputs share one (substructure.py).  Strips solved in turn that
share a factor cost per MB of factor what one strip solved again and again
costs, less than strips with factors of their own (BENCH_25.json).

Every BLAS call that can start threads of its own runs on one thread:
the factorization (zgbtrf and the carry's zgemm), tail_inverse (ztrsm,
ztrmm), reconstruct's zgemm (substructure.py), and the bodies of
krylov.gmres_right and krylov.richardson, whose vector arithmetic runs in
numpy's OpenBLAS.  Each holds _one_blas_thread, the one place that sets a
BLAS thread count.  It sets openblas_set_num_threads_local of each
OpenBLAS the program calls, scipy's and numpy's, found once, at import,
through the handles of scipy.linalg.cython_blas and
numpy.linalg._umath_linalg; a library without that symbol is left out and
keeps its own count.  The count is the library's, not the calling
thread's, whatever the name says: a count set on one thread is the one
another thread reads back.  So pins are counted under a lock: the first
saves each library's count and sets 1, the last restores them, and pins
that overlap on several threads keep one thread until the last ends.
BLAS calls of other threads of the process run on one thread meanwhile
too.  A solve takes no pin: ztbsv starts no thread, and a wedge-jacobi
strip solve gives the same bits on 1 and 2 threads.  OpenBLAS splits a
reduction across threads in another order, so without the pin the bits
would depend on the thread count the environment sets
(OPENBLAS_NUM_THREADS): with it, a strip factored or built anywhere is
bitwise the one SubstructuredSystem builds, and a run gives the same bits
with or without OPENBLAS_NUM_THREADS=1.  It saves time too, on 2 shared
cores: a BLAS thread per CPU beside each strip thread made the set-up of
waveguide k=40, N=10, osds take 4.1-4.6 s, against 1.5-1.6 s with one, and
numpy's beside them made median wedge-jacobi shots take 0.35-0.48 s,
against 0.21-0.28 s with one.

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
faults slow a set-up.  tail_inverse's output is a mapping of its own too:
all of X is about a factor's size, and from a pool thread's malloc arena
its 8 MB stayed resident after the strips that kept it were dropped.  A
5 s waveguide-osds benchmark run, which sets the workload up five times,
then read peak_rss_mb 116.1 MB, against 108.7 MB with the mapping.

A strip's interface response is a few columns of A^-1, built once
(tail_inverse).  For n a multiple of kl, panel p is rows p kl .. p kl + kl
- 1, and R_p = A^-1[n - kl:, panel p] is, by symmetry, X_p^T, the rows of
panel p of X = A^-1 [0; I_kl], the response to unit data on the last kl
rows.  L X = [0; I] is zero above the trailing panel, so one
back-substitution with kl right-hand sides gives X, here transposed: R of
the trailing panel is L_tt^-T D^-1 L_tt^-1, from I by two ztrsm with its
kl x kl block of L and a multiply by 1/D between them, and then, panel by
panel upwards, R_p = -R_(p+1) C L_pp^-1, where C, the rows of L below
panel p in its columns, is upper triangular: ztrmm on C, ztrsm on L_pp.
L(i, j) sits at flat offset i + j kl of the factor, so each of these
blocks is a dense matrix with leading dimension kl, of which BLAS reads
one triangle, all inside the band; OpenBLAS took the two triangles
faster from the right than from the left.  tail_inverse(first) runs the
pass from the trailing panel up to panel first, and builds each R_p in its
place in the output from the one below it.  Each R_p is kept
Fortran-ordered, so the output is X from row first kl on, in C order: with
first 0, all of X, the (n, kl) array a strip that keeps it multiplies by
(subdomain.py).  It has half the flops of an LU factorization from panel
first down (BENCH_30.json).
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
_ztrsm = _kernel(cython_blas, "ztrsm", 11)
_ztrmm = _kernel(cython_blas, "ztrmm", 11)
_zgbtrf = _kernel(cython_lapack, "zgbtrf", 8)
_zgbtrs = _kernel(cython_lapack, "zgbtrs", 11)
_zgemm = _kernel(cython_blas, "zgemm", 13)


def _thread_counts() -> list:
    """int openblas_set_num_threads_local(int) of each OpenBLAS the program
    calls, scipy's and numpy's, as ctypes calls: a library without it is
    left out, and one that both use is listed once (module docstring)."""
    libraries = (ctypes.CDLL(m.__file__) for m in (cython_blas, np.linalg._umath_linalg))
    calls = (getattr(lib, "openblas_set_num_threads_local", None) for lib in libraries)
    addresses = dict.fromkeys(ctypes.cast(c, ctypes.c_void_p).value for c in calls if c)
    return [ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)(a) for a in addresses]


_OPENBLAS = _thread_counts()
# the pins held, and each library's (call, count) before the first
_pins, _pin_lock = [0, []], threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Every library of _OPENBLAS on one thread while any pin is held: the
    first pin saves each count and sets 1, the last restores them."""
    with _pin_lock:
        if _pins[0] == 0:
            _pins[1] = [(call, call(1)) for call in _OPENBLAS]
        _pins[0] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins[0] -= 1
            if _pins[0] == 0:
                for call, count in _pins[1]:
                    call(count)


# the kernels' alpha and beta operands, passed by reference: read-only views
_ONE, _ZERO, _MINUS = (np.broadcast_to(np.complex128(v), (1,)) for v in (1, 0, -1))


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


def _chunk_columns(kl: int) -> int:
    """Columns of the chunks a matrix of half-bandwidth kl is factored in:
    _CHUNK_BYTES of zgbtrf workspace, and never fewer than kl, so a chunk
    holds every pivot the next one needs."""
    return max(kl, 1, _CHUNK_BYTES // (16 * (3 * kl + 1)))


class BandedLU:
    """LU factorization of a complex-symmetric band matrix, computed once at init.

    A matrix factored without a row swap is stored as one Fortran-contiguous
    (kl + 1, n) array _ld in tbsv storage: 1/D in row 0, L's multipliers in
    rows 1..kl.  One that swaps a row is factored as one chunk, and keeps
    that chunk's workspace as zgbtrf's (3 kl + 1, n) array _lu and its
    1-based pivots _ipiv, as zgbtrs reads them.
    """

    def __init__(self, diagonals: dict, label: str = "system"):
        diags = {operator.index(o): np.asarray(d) for o, d in diagonals.items()}
        shapes = {d.shape for d in diags.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"{label}: diagonals must be (n,) arrays of one length, "
                             f"got shapes {sorted(shapes)}")
        (n,), kl = shapes.pop(), max(diags)
        if {-o for o in diags} != diags.keys() or kl >= n:
            raise ValueError(f"{label}: offsets {sorted(diags)} are not a symmetric band "
                             f"of order {n}")
        if not all(np.isfinite(d[max(0, o):n + min(0, o)]).all() for o, d in diags.items()):
            raise ValueError(f"{label}: matrix has a non-finite entry")
        # A(j - o, j) == A(j, j - o) for j >= o, on each diagonal pair
        if not all(np.array_equal(diags[o][o:], diags[-o][:n - o]) for o in diags if o > 0):
            raise ValueError(f"{label}: matrix is not complex symmetric")
        self.n, self.kl = n, kl
        self._ld = self._lu = self._ipiv = None
        with _one_blas_thread():
            self._factor(diags, label)
        # the by-reference n, k, lda and incx of every ztbsv call
        self._tbsv_args = _ints(n, kl, kl + 1, 1)

    def _factor(self, diags: dict, label: str) -> None:
        """Factor A, given by its diagonals diags, into _ld, or else into
        _lu and _ipiv (module docstring).

        The pivots before chunk [c0, c1) have taken C = W diag(D) W^T from
        its leading kl x kl block, with W[a, b] = l(c0 + a, c0 - kl + b) and
        D the chunk before's last kl pivots; W is upper triangular, since
        l(i, k) = 0 for i - k > kl.
        """
        n, kl = self.n, self.kl
        rows = 3 * kl + 1
        info = ctypes.c_int(0)
        a, b = np.triu_indices(kl)
        w = np.zeros((kl, kl), np.complex128, order="F")
        carry = np.empty((kl, kl), np.complex128, order="F")
        chunk = _chunk_columns(kl)
        for width in (chunk, n) if chunk < n else (chunk,):
            # ztbsv reads the factor with leading dimension kl + 1
            ld = _workspace(kl + 1, n)
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
                    # A(i, j) at ws[2 kl + i - j, j - c0]; entries above row
                    # c0 land in the triangle LAPACK documents as unused
                    lo = max(o, c0)
                    hi = max(lo, min(n + o, c1))
                    ws[2 * kl - o, lo - c0:hi - c0] = d[lo:hi]
                if c0:
                    # the leading block: A(c0 + r, c0 + c) at ws[2 kl + r - c, c],
                    # r, c < kl; rows of C past the last row of A are 0
                    block = np.lib.stride_tricks.as_strided(ws[2 * kl:], (kl, kl),
                                                            (16, 16 * (rows - 1)))
                    block -= carry
                _zgbtrf(*_ints(min(n, c1 + kl) - c0, c1 - c0, kl, kl), ws.ctypes.data,
                        *_ints(rows), ipiv.ctypes.data, ctypes.byref(info))
                if info.value != 0 or not np.array_equal(ipiv[:c1 - c0], unswapped[:c1 - c0]):
                    break
                ld[:, c0:c1] = ws[2 * kl:, :c1 - c0]
                if c1 < n and kl:
                    w[a, b] = ld[kl + a - b, c1 - kl + b]
                    wd = np.multiply(w, ld[0, c1 - kl:c1], order="F")
                    # (W D) W^T by the BLAS zgbtrf calls; numpy's matmul runs in
                    # a BLAS of its own, whose threads would spin beside them
                    _zgemm(b"N", b"T", *_ints(kl, kl, kl), _ONE.ctypes.data, wd.ctypes.data,
                           *_ints(kl), w.ctypes.data, *_ints(kl), _ZERO.ctypes.data,
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
        """The stored factor, _ld or else _lu."""
        return self._lu if self._ld is None else self._ld

    @property
    def ldlt(self) -> bool:
        """True if the factor is stored as L D L^T, which tail_inverse
        reads; False if as zgbtrf's LU."""
        return self._ld is not None

    def _ldlt(self, x: ComplexArray) -> None:
        """Overwrite the contiguous (n,) x with L^-T D^-1 L^-1 x."""
        n, k, lda, inc = self._tbsv_args
        _ztbsv(b"L", b"N", b"U", n, k, self._ld.ctypes.data, lda, x.ctypes.data, inc)
        x *= self._ld[0]
        _ztbsv(b"L", b"T", b"U", n, k, self._ld.ctypes.data, lda, x.ctypes.data, inc)

    def _gbtrs(self, x: ComplexArray) -> None:
        """Overwrite the contiguous (n,) x with A^-1 x by zgbtrs."""
        info = ctypes.c_int(0)
        _zgbtrs(b"N", *_ints(self.n, self.kl, self.kl, 1), self._lu.ctypes.data,
                *_ints(3 * self.kl + 1), self._ipiv.ctypes.data, x.ctypes.data,
                *_ints(self.n), ctypes.byref(info))
        if info.value != 0:
            raise ValueError(f"banded back-substitution failed, zgbtrs info={info.value}")

    def solve(self, rhs: ComplexArray, overwrite_rhs: bool = False) -> ComplexArray:
        """x with A x = rhs, for a right-hand side of shape (n,).

        With overwrite_rhs, a contiguous complex128 rhs is solved in place
        and returned; any other rhs is copied, as it always is without it.
        """
        x = (np.asarray if overwrite_rhs else np.array)(rhs, dtype=np.complex128, order="C")
        if x.shape != (self.n,):
            raise ValueError(f"right-hand side of shape {x.shape} for order {self.n}")
        if self.ldlt:
            self._ldlt(x)
        else:
            self._gbtrs(x)
        return x

    def tail_inverse(self, first: int = 0) -> ComplexArray:
        """X = A^-1 [0; I_kl] from row first * kl on (module docstring): a
        C-ordered (n - first kl, kl) array, panels first .. n / kl - 1 of X.

        Only an L D L^T factor whose n is a multiple of kl >= 1 has panels,
        0 .. n / kl - 1; any other factor, or a first outside them, is a
        ValueError.
        """
        n, kl = self.n, self.kl
        if not self.ldlt or kl == 0 or n % kl:
            raise ValueError(f"no kl-row panels in a factor of order {n}, kl {kl}"
                             f"{'' if self.ldlt else ', stored as LU'}")
        first, bottom = operator.index(first), n // kl - 1
        if not 0 <= first <= bottom:
            raise ValueError(f"first panel {first} must lie in 0..{bottom}")
        # in a mapping of its own, as a factor is, since all of X is as large
        x = _workspace(kl, n - first * kl).T
        # R_p = X_p^T is r[p - first], panel p of x seen Fortran-ordered
        r = x.reshape(-1, kl, kl).transpose(0, 2, 1)
        k, = _ints(kl)
        base = self._ld.ctypes.data

        def block(row, col):
            # L(row + a, col + b) at flat offset (row + a) + (col + b) kl
            return base + (row + col * kl) * 16

        def trsm(trans, p):
            # R_p := R_p L_pp^-1, or R_p L_pp^-T
            _ztrsm(b"R", b"L", trans, b"U", k, k, _ONE.ctypes.data, block(p * kl, p * kl), k,
                   r[p - first].ctypes.data, k)

        with _one_blas_thread():
            # R_t = X_t^T = L_tt^-T D^-1 L_tt^-1, as I L_tt^-T D^-1 L_tt^-1
            r[-1] = np.eye(kl)
            trsm(b"T", bottom)
            r[-1] *= self._ld[0, n - kl:]
            trsm(b"N", bottom)
            for p in range(bottom - 1, first - 1, -1):
                # R_p = -R_(p+1) C L_pp^-1, C = L(rows of panel p + 1, columns of
                # panel p); on the right, BLAS takes these triangles faster than
                # their transposes on the left
                r[p - first] = r[p - first + 1]
                _ztrmm(b"R", b"U", b"N", b"N", k, k, _MINUS.ctypes.data,
                       block((p + 1) * kl, p * kl), k, r[p - first].ctypes.data, k)
                trsm(b"N", p)
        return x
