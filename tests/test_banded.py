import ctypes
import mmap
import re
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from helmsweep import banded
from helmsweep.banded import BandedLU
from helmsweep.grid import HomogeneousModel, RectStencil, build_wavenumber
from conftest import band_storage, ldlt_parts, make_grid, reconstruct_dense


def random_banded(rng, n, kl, ku):
    diags = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
             for _ in range(kl + ku + 1)]
    m = sp.diags(diags, offsets=range(-kl, ku + 1), shape=(n, n)).tocsc()
    # push mass onto the diagonal so the test matrix is comfortably regular
    return (m + sp.eye(n) * (kl + ku + 2.0)).tocsc()


def shuffled_dominant(rng, n, kl, ku, reach):
    """A (kl, ku) band matrix on which partial pivoting swaps rows `reach` apart.

    A column diagonally dominant (kl - reach, ku - reach) matrix keeps its
    diagonal as every pivot, so reversing its rows in blocks of reach + 1
    makes gbtrf pivot up to exactly `reach` rows down, and the matrix stays
    as well conditioned as the unshuffled one.
    """
    lo, hi = kl - reach, ku - reach
    offsets = range(-lo, hi + 1)
    diags = [rng.uniform(-1, 1, n) * np.exp(2j * np.pi * rng.uniform(size=n))
             for _ in offsets]
    m = sp.diags(diags, offsets=offsets, shape=(n, n)).tolil()
    m.setdiag((lo + hi + 1.0) * np.exp(2j * np.pi * rng.uniform(size=n)))
    order = np.arange(n).reshape(-1, reach + 1)[:, ::-1].ravel()
    return m.tocsr()[order].tocsc()


def test_band_storage_layout(rng):
    n, kl, ku = 12, 3, 2
    a = random_banded(rng, n, kl, ku)
    ab = band_storage(a, kl, ku)
    assert ab.shape == (2 * kl + ku + 1, n)
    dense = a.toarray()
    for i in range(n):
        for j in range(n):
            if -kl <= j - i <= ku:
                assert ab[kl + ku + i - j, j] == dense[i, j]


def test_solve_matches_dense(rng):
    n, kl, ku = 40, 3, 2
    a = random_banded(rng, n, kl, ku)
    lu = BandedLU(a, kl, ku)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = lu.solve(b)
    ref = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_reconstruct_factored_matrix(rng):
    n, kl, ku = 25, 2, 4
    a = random_banded(rng, n, kl, ku)
    lu = BandedLU(a, kl, ku)
    err = np.linalg.norm(reconstruct_dense(lu) - a.toarray())
    assert err <= 1e-10 * np.linalg.norm(a.toarray())


def test_counters(rng):
    n, kl, ku = 10, 1, 1
    a = random_banded(rng, n, kl, ku)
    lu = BandedLU(a, kl, ku)
    assert (lu.factor_count, lu.solve_count) == (1, 0)
    for _ in range(3):
        lu.solve(np.ones(n, dtype=np.complex128))
    assert (lu.factor_count, lu.solve_count) == (1, 3)
    # a full solve sweeps the factor's n columns twice
    assert lu.row_count == 3 * 2 * n


def test_singular_matrix_reports_label():
    a = sp.csc_matrix((4, 4), dtype=np.complex128)
    with pytest.raises(ValueError, match="strip 3"):
        BandedLU(a, 1, 1, label="strip 3")


def test_non_square_rejected():
    a = sp.csc_matrix((3, 4), dtype=np.complex128)
    with pytest.raises(ValueError, match="square"):
        BandedLU(a, 1, 1)


def tridiagonal(n):
    return sp.diags([np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)], [-1, 0, 1],
                    dtype=np.complex128)


# offsets are [largest above, largest below] the diagonal
@pytest.mark.parametrize("symmetric, offsets", [(True, "8, 8"), (False, "1, 8")],
                         ids=["symmetric", "non-symmetric"])
def test_entry_outside_band_reports_label(symmetric, offsets):
    a = tridiagonal(20).tolil()
    a[10, 2] = 1.0
    if symmetric:
        a[2, 10] = 1.0
    message = f"strip 3: entry outside declared band: kl=1, ku=1, found offsets [{offsets}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BandedLU(a.tocsr(), 1, 1, label="strip 3")


# an entry at offset n - 1 below or above the diagonal: its offset is checked
# before any (ndiag, n) array is built, which scipy would warn about
@pytest.mark.parametrize("fmt", ["csr", "dia"])
@pytest.mark.parametrize("i, j, offsets", [(19, 0, "1, 19"), (0, 19, "19, 1")])
def test_far_entry_rejected_before_the_diagonals_are_built(fmt, i, j, offsets):
    n = 20
    a = tridiagonal(n)
    if fmt == "csr":
        a = a.tolil()
        a[i, j] = 1.0
        a = a.tocsr()
    else:
        # built by hand: converting to DIA is what the check must not need
        far = np.zeros(n, np.complex128)
        far[j] = 1.0
        a = sp.dia_matrix((np.vstack([a.data, far]), [*a.offsets, j - i]), shape=(n, n))
    message = f"strip 3: entry outside declared band: kl=1, ku=1, found offsets [{offsets}]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BandedLU(a, 1, 1, label="strip 3")


def symmetric_flag(monkeypatch, matrix, kl, ku):
    """Whether BandedLU finds matrix exactly symmetric."""
    seen = []
    monkeypatch.setattr(BandedLU, "_factor",
                        lambda self, diags, symmetric, label: seen.append(symmetric))
    BandedLU(matrix, kl, ku)
    return seen[0]


# (row, column, value) entries set on a symmetric (3, 3) band matrix declared
# (5, 5), or (5, 3): none, an entry in one triangle only, in both, a stored
# zero, a value changed on one side, and an entry in an upper diagonal that
# has no lower partner
SYMMETRY = {"as built": ([], True),
            "one triangle": ([(7, 2, 0.5)], False),
            "both triangles": ([(7, 2, 0.5), (2, 7, 0.5)], True),
            "stored zero": ([(7, 2, 0.0)], True),
            "one value": ([(4, 3, 1.0 + 1e-15)], False),
            "no partner diagonal": ([(2, 7, 0.5)], False)}


@pytest.mark.parametrize("fmt", ["csr", "dia"])
@pytest.mark.parametrize("case", SYMMETRY)
def test_symmetry_on_diagonals_is_the_transpose_test(rng, monkeypatch, case, fmt):
    entries, symmetric = SYMMETRY[case]
    a = symmetric_banded(rng, 30, 3).tolil()
    for i, j, v in entries:
        a[i, j] = v
    a = a.tocsr()
    assert ((a != a.T).nnz == 0) == symmetric
    kl = 3 if case == "no partner diagonal" else 5
    assert symmetric_flag(monkeypatch, a.todia() if fmt == "dia" else a, kl, 5) == symmetric


# reach 0 swaps no row but is not symmetric; (40, 35) takes zgbtrf's
# blocked path, which needs kl >= 32
@pytest.mark.parametrize("kl, ku, reach", [(3, 3, 0), (2, 5, 0), (5, 2, 0),
                                           (3, 1, 1), (1, 3, 1), (4, 4, 2),
                                           (40, 35, 10)])
def test_fallback_factor_is_gbtrf_storage(rng, monkeypatch, kl, ku, reach):
    # any factor but L D L^T keeps zgbtrf's own array and pivots for zgbtrs
    n = 462  # whole blocks of reach + 1 rows
    a = shuffled_dominant(rng, n, kl, ku, reach)
    ab = band_storage(a, kl, ku)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    full, ipiv, info = gbtrf(ab, kl, ku)
    assert info == 0
    assert (ipiv - np.arange(n)).max() == reach

    calls = zgbtrf_columns(monkeypatch)
    lu = BandedLU(a, kl, ku)
    # not symmetric: one chunk of n columns, factored once
    assert calls == [n]
    assert lu._ld is None and (lu.kl, lu.ku) == (kl, ku)
    assert lu._lu.shape == (2 * kl + ku + 1, n) and lu._lu.flags.f_contiguous
    # zgbtrf's 1-based pivots, which scipy's wrapper shifts to 0-based
    assert np.array_equal(lu._lu, full) and np.array_equal(lu._ipiv, ipiv + 1)
    assert lu.nbytes == full.nbytes + ipiv.nbytes
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = lu.solve(b)
    ref, info = gbtrs(full, kl, ku, b, ipiv)
    assert info == 0
    # the ctypes zgbtrs call is the routine scipy's wrapper calls
    assert np.array_equal(x, ref)
    assert np.linalg.norm(a @ x - b) <= 1e-13 * np.linalg.norm(b)
    dense = a.toarray()
    err = np.linalg.norm(reconstruct_dense(lu) - dense)
    assert err <= 1e-13 * np.linalg.norm(dense)


def helmholtz_strip(ny, cells, k=20.0):
    """A Robin/Dirichlet Helmholtz strip of cells x ny cells and its band."""
    grid = make_grid(1, ny=ny, cells_per_strip=cells)
    kfield = build_wavenumber(grid, HomogeneousModel(k))
    stencil = RectStencil(grid, kfield, {"left": "robin", "right": "robin",
                                         "bottom": "dirichlet", "top": "dirichlet"})
    return stencil.matrix(), stencil.bandwidth


# the matrix numbers nodes along the shorter side: columns of ny + 1 nodes
# when ny <= w, rows of w + 1 when ny > w
STRIPS = {"ny<=w": (24, 40), "ny>w": (40, 24)}


@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_unswapped_strip_stored_as_ldlt(rng, ny, cells):
    a, band = helmholtz_strip(ny, cells)
    n = a.shape[0]
    lu = BandedLU(a, band, band)
    assert lu._lu is None and lu._ipiv is None
    assert lu._ld.shape == (band + 1, n) and lu._ld.flags.f_contiguous
    assert lu.nbytes == (band + 1) * n * 16

    ab = band_storage(a, band, band)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    full, ipiv, info = gbtrf(ab, band, band)
    assert info == 0 and np.array_equal(ipiv, np.arange(n))
    # one chunk: row 0 is 1/D, D U's diagonal, and L the multipliers below
    # it, both as gbtrf left them
    assert n <= banded._chunk_columns(band, band)
    assert np.array_equal(lu._ld[0], 1.0 / full[2 * band])
    assert np.array_equal(lu._ld[1:], full[2 * band + 1:])
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    kept = b.copy()
    x = lu.solve(b)
    assert np.array_equal(b, kept)
    # gbtrs solves with gbtrf's U, which is D L^T only to roundoff
    ref, info = gbtrs(full, band, band, b, ipiv)
    assert info == 0
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def symmetric_banded(rng, n, kl):
    """A complex-symmetric matrix of bandwidth kl, so diagonally dominant
    that zgbtrf swaps no row."""
    off = [rng.standard_normal(n - k) + 1j * rng.standard_normal(n - k)
           for k in range(1, min(kl, n - 1) + 1)]
    ks = range(1, len(off) + 1)
    d = 10.0 * (kl + 1) + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sp.diags([d] + off + off,
                    [0, *ks, *(-k for k in ks)], shape=(n, n), format="csc")


def mapping_of(array):
    """The mmap an array's memory lives in."""
    while not isinstance(array, mmap.mmap):
        array = array.base
    return array


# (n, kl, ku): a diagonal band, kl = 1 (also declared wider above), n <=
# kl + 1, n = 1, a long factor of one chunk, one of several, and one of 4
# MiB or more
@pytest.mark.parametrize("n, kl, ku", [(40, 0, 0), (40, 1, 1), (40, 1, 3), (3, 4, 4),
                                       (5, 4, 4), (1, 2, 2), (3000, 3, 3), (3000, 30, 30),
                                       (3000, 90, 90)])
def test_ldlt_factor_packed_at_the_front_of_its_workspace(rng, n, kl, ku):
    a = symmetric_banded(rng, n, kl)
    lu = BandedLU(a, kl, ku)
    ab = band_storage(a, kl, ku)
    full, ipiv, info = get_lapack_funcs("gbtrf", (ab,))(ab, kl, ku)
    assert info == 0 and np.array_equal(ipiv, np.arange(n))
    ld = lu._ld
    assert ld.shape == (kl + 1, n) and ld.flags.f_contiguous
    assert lu.nbytes == (kl + 1) * n * 16
    # the factor is a mapping of its own, which starts on a 2 MiB huge page
    # boundary when it holds 4 MiB or more
    at = ld.ctypes.data - np.frombuffer(mapping_of(ld), np.uint8).ctypes.data
    assert ld.ctypes.data % (2 << 20) == 0 if ld.nbytes >= 4 << 20 else at == 0
    if n <= banded._chunk_columns(kl, ku):
        # one chunk is one zgbtrf call on band_storage's array, and 1/D
        assert np.array_equal(ld[0], 1.0 / full[kl + ku])
        assert np.array_equal(ld[1:], full[kl + ku + 1:])
    else:
        assert (n, kl) in {(3000, 30), (3000, 90)}
        dl = np.vstack(ldlt_parts(lu))
        assert np.linalg.norm(dl - full[kl + ku:]) <= 1e-13 * np.linalg.norm(full[kl + ku:])


def chunks_of(monkeypatch, width, kl, ku):
    """Make BandedLU factor exactly symmetric (kl, ku) band matrices in
    chunks of width columns."""
    monkeypatch.setattr(banded, "_CHUNK_BYTES", 16 * (2 * kl + ku + 1) * width)
    assert banded._chunk_columns(kl, ku) == width


def strip_case(ny, cells):
    a, band = helmholtz_strip(ny, cells)
    return a, band, band


# exactly symmetric matrices and their declared (kl, ku): both strip
# numberings, a band whose last chunk is narrower than kl (610 = 20 * 30 +
# 10 = 6 * 97 + 28), a band declared wider above, and a diagonal
CHUNKED = {
    "ny<=w strip": lambda rng: strip_case(*STRIPS["ny<=w"]),
    "ny>w strip": lambda rng: strip_case(*STRIPS["ny>w"]),
    "kl=30": lambda rng: (symmetric_banded(rng, 610, 30), 30, 30),
    "ku>kl": lambda rng: (symmetric_banded(rng, 610, 1), 1, 3),
    "kl=0": lambda rng: (symmetric_banded(rng, 610, 0), 0, 0),
}


# chunks of kl columns, the fewest there can be, or of 97
@pytest.mark.parametrize("columns", [None, 97], ids=["kl columns", "97 columns"])
@pytest.mark.parametrize("case", CHUNKED)
def test_multi_chunk_factor_matches_oracles(rng, monkeypatch, case, columns):
    a, kl, ku = CHUNKED[case](rng)
    n = a.shape[0]
    width = columns or max(kl, 1)
    chunks_of(monkeypatch, width, kl, ku)
    assert n > 2 * width
    lu = BandedLU(a, kl, ku)
    assert lu._lu is None and lu._ipiv is None
    ld = lu._ld
    assert ld.shape == (kl + 1, n) and ld.flags.f_contiguous
    dense = a.toarray()
    err = np.linalg.norm(reconstruct_dense(lu) - dense)
    assert err <= 1e-10 * np.linalg.norm(dense)
    ab = band_storage(a, kl, ku)
    full, ipiv, info = get_lapack_funcs("gbtrf", (ab,))(ab, kl, ku)
    assert info == 0 and np.array_equal(ipiv, np.arange(n))
    # the same factor as one zgbtrf call, to roundoff
    dl = np.vstack(ldlt_parts(lu))
    assert np.linalg.norm(dl - full[kl + ku:]) <= 1e-13 * np.linalg.norm(full[kl + ku:])
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.linalg.norm(a @ lu.solve(b) - b) <= 1e-10 * np.linalg.norm(b)
    assert np.array_equal(BandedLU(a, kl, ku)._ld, ld)


def later_chunk_matrix(rng, monkeypatch):
    """A symmetric (6, 6) band matrix of order 610 factored in chunks of 97
    columns, and a column p of its third chunk."""
    n, kl, width = 610, 6, 97
    chunks_of(monkeypatch, width, kl, kl)
    return symmetric_banded(rng, n, kl).tolil(), 2 * width + 7


def zgbtrf_columns(monkeypatch):
    """The list of the column counts N of the zgbtrf calls BandedLU makes
    from now on."""
    calls = []
    kernel = banded._zgbtrf

    def counted(m, n, *args):
        calls.append(n._obj.value)
        kernel(m, n, *args)

    monkeypatch.setattr(banded, "_zgbtrf", counted)
    return calls


def test_swap_in_a_later_chunk_keeps_gbtrf_storage(rng, monkeypatch):
    a, p = later_chunk_matrix(rng, monkeypatch)
    calls = zgbtrf_columns(monkeypatch)
    # a tiny pivot beside a large symmetric pair: partial pivoting swaps
    # rows p and p + 1, and no row before
    a[p, p] = 1e-3
    a[p + 1, p] = a[p, p + 1] = 100.0
    a = a.tocsc()
    n, kl = a.shape[0], 6
    assert (a != a.T).nnz == 0
    ab = band_storage(a, kl, kl)
    full, ipiv, info = get_lapack_funcs("gbtrf", (ab,))(ab, kl, kl)
    assert info == 0 and np.flatnonzero(ipiv != np.arange(n))[0] == p
    lu = BandedLU(a, kl, kl)
    # the chunks up to the one that swaps, then the whole matrix as one chunk
    assert calls == [97, 97, 97, n]
    assert lu._ld is None
    assert np.array_equal(lu._lu, full) and np.array_equal(lu._ipiv, ipiv + 1)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.linalg.norm(a @ lu.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


def test_zero_pivot_in_a_later_chunk_reports_label(rng, monkeypatch):
    # row and column p are zero, so is the Schur complement's column p
    a, p = later_chunk_matrix(rng, monkeypatch)
    a[p, :] = 0
    a[:, p] = 0
    with pytest.raises(ValueError, match=f"strip 3: banded LU failed, zgbtrf info={p + 1}$"):
        BandedLU(a.tocsc(), 6, 6, label="strip 3")


def test_swapped_symmetric_strip_keeps_gbtrs(rng, monkeypatch):
    # under-resolved (about 5 points per wavelength), zgbtrf swaps rows of
    # this symmetric strip, and L D L^T no longer describes the factor
    a, band = helmholtz_strip(16, 12)
    n = a.shape[0]
    calls = zgbtrf_columns(monkeypatch)
    lu = BandedLU(a, band, band)
    # one chunk, factored once: its workspace is zgbtrf's LU, bit for bit
    assert calls == [n]
    assert lu._ld is None and (lu._ipiv - np.arange(1, n + 1)).max() > 0
    ab = band_storage(a, band, band)
    full, ipiv, info = get_lapack_funcs("gbtrf", (ab,))(ab, band, band)
    assert info == 0
    assert np.array_equal(lu._lu, full) and np.array_equal(lu._ipiv, ipiv + 1)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.linalg.norm(a @ lu.solve(b) - b) <= 1e-10 * np.linalg.norm(b)
    dense = a.toarray()
    err = np.linalg.norm(reconstruct_dense(lu) - dense)
    assert err <= 1e-13 * np.linalg.norm(dense)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_matrix_reports_label(bad):
    a = tridiagonal(50).tolil()
    a[17, 18] = bad
    with pytest.raises(ValueError, match="strip 3.*non-finite"):
        BandedLU(a.tocsr(), 1, 1, label="strip 3")


# the slots of each diagonal above the first row or below the last column
@pytest.mark.parametrize("columns", [None, 97], ids=["one chunk", "97 columns"])
@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_dia_slots_outside_the_matrix_are_ignored(monkeypatch, ny, cells, columns):
    a, band = helmholtz_strip(ny, cells)
    n = a.shape[0]
    if columns:
        chunks_of(monkeypatch, columns, band, band)
    want = BandedLU(a.tocsr(), band, band)
    # one more column past the matrix, NaN like the other outside slots
    data = np.hstack([a.data, np.zeros((len(a.offsets), 1))])
    for row, o in zip(data, a.offsets):
        row[:max(0, o)] = np.nan
        row[n + min(0, o):] = np.nan
    assert np.isnan(data).sum() == 2 * (1 + band) + len(a.offsets)
    lu = BandedLU(sp.dia_matrix((data, a.offsets), shape=a.shape), band, band)
    assert lu._ld is not None and np.array_equal(lu._ld, want._ld)
    # a NaN inside the matrix is rejected, naming its strip
    for k, o in enumerate(a.offsets):
        bad = data.copy()
        bad[k, max(0, o) + 3] = np.nan
        with pytest.raises(ValueError, match="^strip 3: matrix has a non-finite entry$"):
            BandedLU(sp.dia_matrix((bad, a.offsets), shape=a.shape), band, band,
                     label="strip 3")


@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_ctypes_tbsv_is_scipy_tbsv_bitwise(rng, ny, cells):
    # the GIL-free kernel is the routine get_blas_funcs("tbsv") wraps
    a, band = helmholtz_strip(ny, cells)
    n = a.shape[0]
    lu = BandedLU(a, band, band)
    ld = lu._ld
    tbsv = get_blas_funcs("tbsv", (ld,))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ints = [ctypes.c_int(v) for v in (n, band, band + 1, 1)]
    refs = [ctypes.byref(i) for i in ints]
    for trans, flag in ((0, b"N"), (1, b"T")):
        x = b.copy()
        banded._ztbsv(b"L", flag, b"U", *refs[:2], ld.ctypes.data, refs[2],
                      x.ctypes.data, refs[3])
        assert np.array_equal(x, tbsv(band, ld, b, lower=1, trans=trans, diag=1))
    # a whole solve: L, a multiply by the stored 1/D, then L^T, as the
    # f2py wrapper took it
    y = tbsv(band, ld, b, lower=1, diag=1)
    y *= ld[0]
    assert np.array_equal(lu.solve(b), tbsv(band, ld, y, lower=1, trans=1, diag=1))


@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_partial_solve_is_full_solve_on_kept_rows_bitwise(rng, ny, cells):
    # with b[:head] == 0, rows >= keep of solve(b, head, keep) are those of
    # solve(b) bit for bit, and rows < keep are NaN
    a, band = helmholtz_strip(ny, cells)
    n = a.shape[0]
    lu = BandedLU(a, band, band)
    assert lu._ld is not None
    edges = [(0, 0), (0, n), (n, 0), (n, n), (n - band, n - 1), (1, 1)]
    drawn = [tuple(rng.integers(0, n + 1, 2)) for _ in range(20)]
    for head, keep in edges + drawn:
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b[:head] = 0
        full = lu.solve(b)
        solves, rows = lu.solve_count, lu.row_count
        x = lu.solve(b, head, keep)
        assert lu.solve_count == solves + 1
        assert lu.row_count == rows + 2 * n - head - keep
        assert np.array_equal(x[keep:], full[keep:])
        assert np.isnan(x[:keep]).all()


def test_fallback_solve_ignores_head_and_keep(rng):
    lu = BandedLU(shuffled_dominant(rng, 462, 4, 4, 2), 4, 4)
    assert lu._ld is None
    n = lu.n
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b[:200] = 0
    full = lu.solve(b)
    assert np.array_equal(lu.solve(b, 200, 300), full)
    assert (lu.solve_count, lu.row_count) == (2, 2 * 2 * n)


def test_head_and_keep_out_of_range_rejected(rng):
    a, band = helmholtz_strip(*STRIPS["ny<=w"])
    lu = BandedLU(a, band, band)
    n = lu.n
    for head, keep in [(-1, 0), (0, -1), (n + 1, 0), (0, n + 1)]:
        with pytest.raises(ValueError, match="head"):
            lu.solve(np.zeros(n, dtype=np.complex128), head, keep)
    assert (lu.solve_count, lu.row_count) == (0, 0)


def test_bad_rhs_shape_rejected(rng):
    a, band = helmholtz_strip(*STRIPS["ny>w"])
    lu = BandedLU(a, band, band)
    for shape in [(a.shape[0] - 1,), (), (a.shape[0], 2), (a.shape[0], 2, 1)]:
        with pytest.raises(ValueError, match="right-hand side"):
            lu.solve(np.ones(shape, dtype=np.complex128))
    assert lu.solve_count == 0


@pytest.mark.parametrize("kind", ["ldlt", "gbtrs"])
def test_solve_in_place_only_when_told_it_owns_rhs(rng, kind):
    if kind == "ldlt":
        a, band = helmholtz_strip(*STRIPS["ny<=w"])
        lu = BandedLU(a, band, band)
    else:
        lu = BandedLU(shuffled_dominant(rng, 462, 4, 4, 2), 4, 4)
    assert (lu._ld is not None) == (kind == "ldlt")
    n = lu.n
    # a full and a one-sided solve
    for head, keep in [(0, 0), (n // 3, n // 2)]:
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b[:head] = 0
        kept = b.copy()
        x = lu.solve(b, head, keep)
        assert np.array_equal(b, kept) and not np.shares_memory(x, b)
        y = lu.solve(b, head, keep, overwrite_rhs=True)
        assert y is b
        assert np.array_equal(y, x, equal_nan=True)


@pytest.mark.parametrize("kind", ["ldlt", "gbtrs"])
def test_concurrent_solves_counted_and_bitwise(rng, kind):
    # two threads solving with one factor lose no count and no bit
    if kind == "ldlt":
        a, band = helmholtz_strip(*STRIPS["ny>w"])
        lu = BandedLU(a, band, band)
    else:
        lu = BandedLU(shuffled_dominant(rng, 462, 4, 4, 2), 4, 4)
    assert (lu._ld is not None) == (kind == "ldlt")
    n, threads, solves = lu.n, 2, 200
    rhs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(threads)]
    expect = [lu.solve(b) for b in rhs]
    lu.solve_count = 0
    bad = []

    def work(t):
        for _ in range(solves):
            if not np.array_equal(lu.solve(rhs[t]), expect[t]):
                bad.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert bad == []
    assert lu.solve_count == threads * solves


def factor_pair(rng, kind):
    """Two BandedLU of one matrix, stored as L D L^T or as zgbtrf's LU."""
    a = symmetric_banded(rng, 300, 3) if kind == "ldlt" else shuffled_dominant(rng, 300, 3, 3, 1)
    first, second = BandedLU(a, 3, 3), BandedLU(a, 3, 3)
    assert (first._ld is not None) == (kind == "ldlt")
    return first, second


@pytest.mark.parametrize("kind", ["ldlt", "gbtrs"])
def test_share_reads_an_equal_factor_and_keeps_its_counts(rng, kind):
    first, second = factor_pair(rng, kind)
    b = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    x = second.solve(b)
    assert second.share(first)
    assert second.factor is first.factor
    assert second._ipiv is first._ipiv
    assert np.array_equal(second.solve(b), x)
    assert (first.solve_count, second.solve_count) == (0, 2)
    assert (first.factor_count, second.factor_count) == (1, 1)


# one bit of an entry that the sampled columns miss: a value, the sign of a
# zero in the unused corner of the factor, and a pivot index
ONE_ENTRY = {"value": ("ldlt", "factor", (1, 301 % 64)),
             "zero sign": ("ldlt", "factor", (3, 299)),
             "lu value": ("gbtrs", "factor", (7, 301 % 64)),
             "pivot": ("gbtrs", "_ipiv", (301 % 64,))}


@pytest.mark.parametrize("case", ONE_ENTRY.values(), ids=ONE_ENTRY.keys())
def test_share_refuses_a_factor_one_entry_apart(rng, case):
    kind, name, at = case
    first, second = factor_pair(rng, kind)
    step = 300 // banded._SAMPLE
    assert at[-1] % step
    array = getattr(second, name)
    if name == "_ipiv":
        array[at] = 300 + 1 - array[at]
    elif array[at] == 0:
        array[at] = -0.0
    else:
        array[at] = np.nextafter(array[at].real, np.inf) + 1j * array[at].imag
    kept = getattr(second, name)
    assert not second.share(first) and not first.share(second)
    assert second.factor is not first.factor and getattr(second, name) is kept


def test_share_refuses_another_shape_or_storage_kind(rng):
    a = symmetric_banded(rng, 300, 3)
    ld = BandedLU(a, 3, 3)
    others = {"n": BandedLU(symmetric_banded(rng, 299, 3), 3, 3),
              # one matrix, a band declared wider: another kl, or ku alone
              "kl": BandedLU(a, 4, 4), "ku": BandedLU(a, 3, 4),
              "storage": BandedLU(shuffled_dominant(rng, 300, 3, 3, 1), 3, 3)}
    assert others["ku"]._ld.shape == ld._ld.shape and others["storage"]._ld is None
    for name, other in others.items():
        assert not ld.share(other), name
        assert not other.share(ld), name
        assert ld.factor is not other.factor
