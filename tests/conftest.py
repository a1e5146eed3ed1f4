"""Shared builders for small strip-decomposed test problems, and the dense
oracles of the trace operators."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from helmsweep.grid import (Grid, HomogeneousModel, BoundarySpec, robin,
                            dirichlet, build_wavenumber)
from helmsweep.strips import build_strips
from helmsweep.substructure import SubstructuredSystem, TraceVector


def left_bump(x, y):
    return np.exp(-3.0 * (y - 0.4) ** 2)


def make_grid(nstrips, ny=8, cells_per_strip=8):
    h = 1.0 / ny
    nx = cells_per_strip * nstrips
    return Grid(0.0, nx * h, 0.0, 1.0, nx, ny, h)


def make_case(nstrips, k=5.0, ny=8, cells_per_strip=8, overlap_cells=2,
              bc=None):
    """Small waveguide-style substructured system, cheap enough for dense
    probing of the interface operators."""
    grid = make_grid(nstrips, ny=ny, cells_per_strip=cells_per_strip)
    kfield = build_wavenumber(grid, HomogeneousModel(k))
    if bc is None:
        bc = BoundarySpec(left=robin(left_bump), right=robin(None),
                          bottom=dirichlet(), top=dirichlet())
    decomp = build_strips(grid.nx, nstrips, overlap_cells)
    return SubstructuredSystem(grid, kfield, bc, decomp)


def dense_matrix(op, layout):
    """Materialize a trace operator densely by probing unit vectors."""
    n = math.prod(layout)
    mat = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        e = TraceVector.zeros(layout)
        e.data[j] = 1.0
        mat[:, j] = op(e).data
    return mat


def part_masks(layout):
    """Boolean masks of the four parts of T in the trace basis.

    The first half of a trace vector holds the left data.  'ml': left
    rows/left cols, 'ar': right rows/left cols, 'mr': right rows/right
    cols, 'al': left rows/right cols.
    """
    total = math.prod(layout)
    is_left = np.arange(total) < total // 2
    row_l = is_left[:, None]
    col_l = is_left[None, :]
    return {
        "ml": row_l & col_l,
        "al": row_l & ~col_l,
        "ar": ~row_l & col_l,
        "mr": ~row_l & ~col_l,
    }


def dense_parts(system):
    """Dense exchange T of system and its four parts masked out of it."""
    t = dense_matrix(system.apply_exchange, system.layout)
    masks = part_masks(system.layout)
    return t, {name: np.where(m, t, 0.0) for name, m in masks.items()}


def band_storage(matrix, kl, ku):
    """matrix in LAPACK band storage, the array scipy's f2py gbtrf factors:
    entry (i, j) at [kl + ku + i - j, j], the top kl rows pivot workspace."""
    coo = matrix.tocoo()
    ab = np.zeros((2 * kl + ku + 1, coo.shape[0]), np.complex128, order="F")
    ab[kl + ku + coo.row - coo.col, coo.col] = coo.data
    return ab


def band_diagonals(matrix, kl):
    """The sparse matrix as the {offset: (n,) diagonal} mapping BandedLU
    reads, with every offset -kl..kl below n: A(i, j) scattered into slot j
    of offset j - i, and 0 in the other slots."""
    coo = matrix.tocoo(copy=True)
    coo.sum_duplicates()
    n = coo.shape[0]
    kl = min(kl, n - 1)
    assert coo.shape == (n, n) and np.all(np.abs(coo.col - coo.row) <= kl)
    data = np.zeros((2 * kl + 1, n), np.complex128)
    data[kl + coo.col - coo.row, coo.col] = coo.data
    return dict(zip(range(-kl, kl + 1), data))


def sparse(diagonals):
    """The CSR matrix of a {offset: (n,) diagonal} mapping, for dense checks:
    slot j of offset o is A(j - o, j), and the slots outside the matrix are
    dropped."""
    offsets = list(diagonals)
    n = len(diagonals[offsets[0]])
    return sp.dia_matrix((np.array([diagonals[o] for o in offsets]), offsets),
                         shape=(n, n)).tocsr()


def column_reversal_invariant(matrix, columns):
    """P A P == A exactly, by permuting the sparse matrix A: P reverses the
    node columns of an xy-numbered matrix with that many node columns."""
    a = matrix.tocsr()
    perm = np.arange(a.shape[0]).reshape(columns, -1)[::-1].ravel()
    return (a[perm][:, perm] != a).nnz == 0


def ldlt_parts(lu):
    """(D, L) of a BandedLU's L D L^T factor: row 0 stores 1/D, rows 1..kl
    L's multipliers, in tbsv storage."""
    return 1.0 / lu._ld[0], lu._ld[1:]


def reconstruct_dense(lu):
    """Rebuild a BandedLU's factored matrix as P_0 L_0 P_1 L_1 ... U (dense).

    gbtrf stores multipliers in place without retroactive pivot swaps, so
    the factorization is the interleaved product above, with zgbtrf's
    1-based ipiv.  Each L_j is applied as the row update it stands for.  An
    L D L^T factor is the same product with identity pivots and U = D L^T,
    built from its D and L.
    """
    n, kl = lu.n, lu.kl
    full = np.zeros((n, n), dtype=np.complex128)
    if lu._ld is not None:
        (d, mult), ipiv = ldlt_parts(lu), np.arange(n)
        for i in range(n):
            m = min(kl, n - 1 - i)
            full[i, i] = d[i]
            full[i, i + 1:i + 1 + m] = d[i] * mult[:m, i]
    else:
        band, ipiv, top = lu._lu, lu._ipiv - 1, 2 * kl
        mult = band[top + 1:]
        for j in range(n):
            for i in range(max(0, j - top), j + 1):
                full[i, j] = band[top + i - j, j]
    for j in range(n - 2, -1, -1):
        below = min(n, j + kl + 1)
        full[j + 1:below] += np.outer(mult[:below - j - 1, j], full[j])
        piv = ipiv[j]
        if piv != j:
            full[[j, piv], :] = full[[piv, j], :]
    return full


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
