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
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import get_lapack_funcs
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

    The factors are kept in gbtrs band storage for bandwidths (kl, self.ku),
    where self.ku is the declared ku less the dropped all-zero rows, so U
    keeps kl + self.ku superdiagonals.
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
        fill = int((ipiv - np.arange(n)).max())
        drop = min(kl - fill, ku)
        self.n = n
        self.kl = kl
        self.ku = ku - drop
        # a copy, not a view: gbtrs would copy a strided view on every call
        self._lu = np.asfortranarray(lu[drop:])
        self._ipiv = ipiv
        self._gbtrs = gbtrs
        self.factor_count = 1
        self.solve_count = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the stored factors and pivot indices."""
        return self._lu.nbytes + self._ipiv.nbytes

    def solve(self, rhs: ComplexArray) -> ComplexArray:
        x, info = self._gbtrs(self._lu, self.kl, self.ku, rhs.astype(np.complex128, copy=False), self._ipiv)
        if info != 0:
            raise ValueError(f"banded back-substitution failed, zgbtrs info={info}")
        self.solve_count += 1
        return x
