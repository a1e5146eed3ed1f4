"""Banded LU factorization of complex band matrices.

Thin wrapper over LAPACK zgbtrf/zgbtrs.  A matrix with lower bandwidth kl and
upper bandwidth ku is packed into the (2*kl+ku+1, n) LAPACK layout, factored
once in place with partial pivoting, and reused for any number of right-hand
sides.

zgbtrf reserves kl extra superdiagonals of U for fill from row swaps, but a
swap of row j with row j+p only widens U to ku+p superdiagonals.  After
factoring, the band rows above U's reach (ku plus the largest pivot offset)
are exact zeros and are dropped, so every solve streams only the rows the
factorization filled.  A matrix whose pivots reach kl rows down keeps the
full layout.

When no row was swapped, L and U are two band triangles.  Each is stored as
its own dense band array and solved with one BLAS ztbsv call: the same
operations, in the same order, that zgbtrs performs on one right-hand side
with the same bandwidths, so the result is bitwise the same, but no solve
reads the rows of the other triangle.  A factor with a swap keeps the one compact array and zgbtrs.
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

    U has kl + self.ku superdiagonals, where self.ku is the declared ku less
    the dropped all-zero rows.  Without row swaps the factors are two
    Fortran-contiguous band arrays in BLAS tbsv storage: _upper holds U with
    its diagonal in the last row, _lower the unit-diagonal L with its
    multipliers in rows 1..kl (row 0 is never read).  With a swap they are
    one compact array _lu in gbtrs storage for bandwidths (kl, self.ku),
    with the pivot indices _ipiv.
    """

    def __init__(self, matrix: spmatrix, kl: int, ku: int, label: str = "system"):
        n = matrix.shape[0]
        if matrix.shape[1] != n:
            raise ValueError(f"{label}: matrix must be square, got {matrix.shape}")
        ab = band_storage(matrix, kl, ku)
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, ipiv, info = gbtrf(ab, kl, ku, overwrite_ab=True)
        if info != 0:
            raise ValueError(f"{label}: banded LU failed, zgbtrf info={info}")
        # ipiv[j] >= j, so a zero largest offset means no row was swapped
        fill = int((ipiv - np.arange(n)).max())
        drop = min(kl - fill, ku)
        self.n = n
        self.kl = kl
        self.ku = ku - drop
        # copies, not views: f2py would copy a strided view on every call
        if fill == 0:
            k = kl + self.ku
            self._upper = np.asfortranarray(lu[drop:drop + k + 1])
            self._lower = np.asfortranarray(lu[drop + k:])
            self._lu = self._ipiv = None
            self._tbsv = get_blas_funcs("tbsv", (ab,))
        else:
            self._lu = np.asfortranarray(lu[drop:])
            self._ipiv = ipiv
            self._upper = self._lower = None
            self._gbtrs = gbtrs
        self.factor_count = 1
        self.solve_count = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the stored factors and pivot indices."""
        return sum(a.nbytes for a in (self._upper, self._lower, self._lu, self._ipiv)
                   if a is not None)

    def _triangles(self, b: ComplexArray) -> ComplexArray:
        y = self._tbsv(self.kl, self._lower, b, lower=1, diag=1)
        return self._tbsv(self.kl + self.ku, self._upper, y, overwrite_x=1)

    def solve(self, rhs: ComplexArray) -> ComplexArray:
        """x with A x = rhs, for a right-hand side of shape (n,) or (n, k)."""
        b = rhs.astype(np.complex128, copy=False)
        if self._lu is None:
            # tbsv takes one vector, so a block is solved column by column
            x = (self._triangles(b) if b.ndim == 1
                 else np.stack([self._triangles(c) for c in b.T], axis=1))
        else:
            x, info = self._gbtrs(self._lu, self.kl, self.ku, b, self._ipiv)
            if info != 0:
                raise ValueError(f"banded back-substitution failed, zgbtrs info={info}")
        self.solve_count += 1
        return x
