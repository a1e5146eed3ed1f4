import ctypes
import mmap
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from helmsweep import banded
from helmsweep.banded import BandedLU
from helmsweep.bench import BenchContext, ProblemSpec
from helmsweep.grid import HomogeneousModel, RectStencil, build_wavenumber
from conftest import (band_diagonals, band_storage, ldlt_parts, make_grid, reconstruct_dense,
                      sparse)


def random_banded(rng, n, kl, ku):
    diags = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
             for _ in range(kl + ku + 1)]
    m = sp.diags(diags, offsets=range(-kl, ku + 1), shape=(n, n)).tocsc()
    # push mass onto the diagonal so the test matrix is comfortably regular
    return (m + sp.eye(n) * (kl + ku + 2.0)).tocsc()


def pivoting_symmetric(rng, n, kl, reach):
    """A complex-symmetric matrix of half-bandwidth kl on which partial
    pivoting swaps rows up to `reach` apart.

    It is the permutation that reverses the rows in blocks of reach + 1,
    itself symmetric, plus a symmetric band of entries too small to be a
    pivot beside its ones, so the matrix is as well conditioned as the
    permutation.
    """
    order = np.arange(n)
    for b in range(0, n, reach + 1):
        order[b:b + reach + 1] = order[b:b + reach + 1][::-1]
    off = [rng.uniform(-1, 1, n - k) * np.exp(2j * np.pi * rng.uniform(size=n - k)) / (4 * kl + 2)
           for k in range(kl + 1)]
    small = sp.diags(off + off[1:], [*range(kl + 1), *range(-1, -kl - 1, -1)], shape=(n, n))
    return (small + sp.csr_matrix((np.ones(n), (np.arange(n), order)), shape=(n, n))).tocsr()


def test_band_storage_layout(rng):
    n, kl, ku = 12, 3, 2
    a = random_banded(rng, n, kl, ku)
    ab = band_storage(a, kl, ku)
    assert ab.shape == (2 * kl + ku + 1, n)
    diagonals = band_diagonals(a, kl)
    assert list(diagonals) == list(range(-kl, kl + 1))
    dense = a.toarray()
    for i in range(n):
        for j in range(n):
            if -kl <= j - i <= ku:
                assert ab[kl + ku + i - j, j] == dense[i, j]
            if -kl <= j - i <= kl:
                assert diagonals[j - i][j] == dense[i, j]


def test_solve_matches_dense(rng):
    n, kl = 40, 3
    a = pivoting_symmetric(rng, n, kl, 1)
    lu = BandedLU(band_diagonals(a, kl))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = lu.solve(b)
    ref = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_reconstruct_factored_matrix(rng):
    n, kl = 25, 4
    a = pivoting_symmetric(rng, n, kl, 2)
    lu = BandedLU(band_diagonals(a, kl))
    assert lu._ld is None
    err = np.linalg.norm(reconstruct_dense(lu) - a.toarray())
    assert err <= 1e-10 * np.linalg.norm(a.toarray())


def test_counters():
    # a factor keeps no counts: the strip that solves through it counts one
    # factorization and each solve, through either storage kind.  The
    # coarse waveguide's end strips are L D L^T factors and its interior
    # strips pivoted ones.
    spec = ProblemSpec(problem="waveguide", k=20.0, subdomains=5, overlap_cells=2, nppwl=4,
                       tolerances=(1e-10,))
    solvers = BenchContext(spec).system.solvers
    assert [sv.lu.ldlt for sv in solvers] == [True, False, False, False, True]
    for sv in solvers[:2]:
        assert not any(hasattr(sv.lu, c) for c in ("factor_count", "solve_count", "block_count"))
        solves = sv.solve_count
        d = np.ones(sv.stencil.ny + 1, np.complex128)
        for _ in range(3):
            sv.solve(right=d) if sv.strip == 1 else sv.solve(left=d, right=d)
        assert (sv.factor_count, sv.solve_count - solves) == (1, 3)


def test_singular_matrix_reports_label():
    with pytest.raises(ValueError, match="^strip 3: banded LU failed"):
        BandedLU({o: np.zeros(4, np.complex128) for o in (-1, 0, 1)}, label="strip 3")


def tridiagonal(n):
    return sp.diags([np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)], [-1, 0, 1],
                    dtype=np.complex128)


def ones(*lengths):
    """Diagonals of ones at offsets 0, 1, -1, ... of the given lengths."""
    return {o: np.ones(k, np.complex128) for o, k in zip((0, 1, -1, 2, -2), lengths)}


def test_non_square_rejected():
    # diagonals that are not (n,) arrays of one length describe no n x n matrix
    for diagonals in (ones(5, 5, 4), {o: np.ones((5, 1)) for o in (0, 1, -1)}, {0: 1.0}, {}):
        with pytest.raises(ValueError, match="^strip 3: diagonals must be"):
            BandedLU(diagonals, label="strip 3")


# offsets that are no symmetric band, and a matrix that is not symmetric:
# each rejected before anything is factored
MALFORMED = {
    "one-sided": (ones(5, 5), "not a symmetric band of order 5"),
    "unpaired": ({**ones(5, 5, 5), 2: np.ones(5)}, "not a symmetric band of order 5"),
    "offset n": ({**ones(5), 5: np.ones(5), -5: np.ones(5)}, "not a symmetric band of order 5"),
    "non-symmetric": ({**ones(5, 5), -1: np.full(5, 2.0)}, "not complex symmetric"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_diagonals_rejected_naming_label(case):
    diagonals, message = MALFORMED[case]
    with pytest.raises(ValueError, match=f"^strip 3: .*{message}"):
        BandedLU(diagonals, label="strip 3")


# (row, column, value) entries set on a symmetric (3, 3) band matrix: none,
# an entry in one triangle only, in both, a stored zero, a value changed on
# one side, and an entry in an upper diagonal that has no lower partner
SYMMETRY = {"as built": ([], True),
            "one triangle": ([(7, 2, 0.5)], False),
            "both triangles": ([(7, 2, 0.5), (2, 7, 0.5)], True),
            "stored zero": ([(7, 2, 0.0)], True),
            "one value": ([(4, 3, 1.0 + 1e-15)], False),
            "no partner diagonal": ([(2, 7, 0.5)], False)}


# the matrix built as CSR and handed over with every offset of its band, as
# band_diagonals packs it, or converted to DIA and handed over with the
# diagonals DIA stores, which need not come in pairs
@pytest.mark.parametrize("fmt", ["csr", "dia"])
@pytest.mark.parametrize("case", SYMMETRY)
def test_symmetry_on_diagonals_is_the_transpose_test(rng, case, fmt):
    entries, symmetric = SYMMETRY[case]
    a = symmetric_banded(rng, 30, 3).tolil()
    for i, j, v in entries:
        a[i, j] = v
    a = a.tocsr()
    assert ((a != a.T).nnz == 0) == symmetric
    if fmt == "dia":
        dia = a.todia()
        diagonals = dict(zip(dia.offsets.tolist(), dia.data))
    else:
        diagonals = band_diagonals(a, 5)
    if symmetric:
        assert BandedLU(diagonals, label="strip 3")._ld is not None
    else:
        with pytest.raises(ValueError, match="^strip 3: (matrix is not complex symmetric|"
                                             "offsets .* are not a symmetric band)"):
            BandedLU(diagonals, label="strip 3")


# (40, 10) takes zgbtrf's blocked path, which needs kl >= 32
@pytest.mark.parametrize("kl, reach", [(1, 1), (3, 1), (4, 2), (40, 10)])
def test_fallback_factor_is_gbtrf_storage(rng, monkeypatch, kl, reach):
    # a factor that swaps a row keeps zgbtrf's own array and pivots for zgbtrs
    n = 462  # whole blocks of reach + 1 rows
    a = pivoting_symmetric(rng, n, kl, reach)
    ab = band_storage(a, kl, kl)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    full, ipiv, info = gbtrf(ab, kl, kl)
    assert info == 0
    assert (ipiv - np.arange(n)).max() == reach

    calls = zgbtrf_columns(monkeypatch)
    lu = BandedLU(band_diagonals(a, kl))
    # one chunk of n columns, factored once
    assert calls == [n]
    assert lu._ld is None and lu.kl == kl
    assert lu._lu.shape == (3 * kl + 1, n) and lu._lu.flags.f_contiguous
    # zgbtrf's 1-based pivots, which scipy's wrapper shifts to 0-based
    assert np.array_equal(lu._lu, full) and np.array_equal(lu._ipiv, ipiv + 1)
    assert lu.nbytes == full.nbytes + ipiv.nbytes
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = lu.solve(b)
    ref, info = gbtrs(full, kl, kl, b, ipiv)
    assert info == 0
    # the ctypes zgbtrs call is the routine scipy's wrapper calls
    assert np.array_equal(x, ref)
    assert np.linalg.norm(a @ x - b) <= 1e-13 * np.linalg.norm(b)
    dense = a.toarray()
    err = np.linalg.norm(reconstruct_dense(lu) - dense)
    assert err <= 1e-13 * np.linalg.norm(dense)


def helmholtz_strip(ny, cells, k=20.0):
    """A Robin/Dirichlet Helmholtz strip of cells x ny cells: its diagonals,
    its sparse matrix and its band."""
    grid = make_grid(1, ny=ny, cells_per_strip=cells)
    kfield = build_wavenumber(grid, HomogeneousModel(k))
    stencil = RectStencil(grid, kfield, {"left": "robin", "right": "robin",
                                         "bottom": "dirichlet", "top": "dirichlet"})
    diagonals = stencil.diagonals()
    return diagonals, sparse(diagonals), stencil.bandwidth


# the matrix numbers nodes along the shorter side: columns of ny + 1 nodes
# when ny <= w, rows of w + 1 when ny > w
STRIPS = {"ny<=w": (24, 40), "ny>w": (40, 24)}


@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_unswapped_strip_stored_as_ldlt(rng, ny, cells):
    diagonals, a, band = helmholtz_strip(ny, cells)
    n = a.shape[0]
    lu = BandedLU(diagonals)
    assert lu.kl == band
    assert lu._lu is None and lu._ipiv is None
    assert lu._ld.shape == (band + 1, n) and lu._ld.flags.f_contiguous
    assert lu.nbytes == (band + 1) * n * 16

    ab = band_storage(a, band, band)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    full, ipiv, info = gbtrf(ab, band, band)
    assert info == 0 and np.array_equal(ipiv, np.arange(n))
    # one chunk: row 0 is 1/D, D U's diagonal, and L the multipliers below
    # it, both as gbtrf left them
    assert n <= banded._chunk_columns(band)
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


# (n, width, kl): a matrix of bandwidth width handed over with the offsets
# -kl..kl below n.  A diagonal band, width 1 (also with zero diagonals out to
# 3), n <= width + 1, n = 1, a long factor of one chunk, one of several, and
# one of 4 MiB or more
@pytest.mark.parametrize("n, width, kl", [(40, 0, 0), (40, 1, 1), (40, 1, 3), (3, 4, 4),
                                          (5, 4, 4), (1, 2, 2), (3000, 3, 3), (3000, 30, 30),
                                          (3000, 90, 90)])
def test_ldlt_factor_packed_at_the_front_of_its_workspace(rng, n, width, kl):
    a = symmetric_banded(rng, n, width)
    lu = BandedLU(band_diagonals(a, kl))
    # the band is read from the offsets, zero diagonals included
    kl = min(kl, n - 1)
    assert lu.kl == kl
    ab = band_storage(a, kl, kl)
    full, ipiv, info = get_lapack_funcs("gbtrf", (ab,))(ab, kl, kl)
    assert info == 0 and np.array_equal(ipiv, np.arange(n))
    ld = lu._ld
    assert ld.shape == (kl + 1, n) and ld.flags.f_contiguous
    assert lu.nbytes == (kl + 1) * n * 16
    # the factor is a mapping of its own, which starts on a 2 MiB huge page
    # boundary when it holds 4 MiB or more
    at = ld.ctypes.data - np.frombuffer(mapping_of(ld), np.uint8).ctypes.data
    assert ld.ctypes.data % (2 << 20) == 0 if ld.nbytes >= 4 << 20 else at == 0
    if n <= banded._chunk_columns(kl):
        # one chunk is one zgbtrf call on band_storage's array, and 1/D
        assert np.array_equal(ld[0], 1.0 / full[2 * kl])
        assert np.array_equal(ld[1:], full[2 * kl + 1:])
    else:
        assert (n, kl) in {(3000, 30), (3000, 90)}
        dl = np.vstack(ldlt_parts(lu))
        assert np.linalg.norm(dl - full[2 * kl:]) <= 1e-13 * np.linalg.norm(full[2 * kl:])


def chunks_of(monkeypatch, width, kl):
    """Make BandedLU factor band matrices of half-bandwidth kl in chunks of
    width columns."""
    monkeypatch.setattr(banded, "_CHUNK_BYTES", 16 * (3 * kl + 1) * width)
    assert banded._chunk_columns(kl) == width


def strip_case(ny, cells):
    diagonals, a, _ = helmholtz_strip(ny, cells)
    return a, diagonals


def band_case(a, kl):
    return a, band_diagonals(a, kl)


# exactly symmetric matrices and their diagonals: both strip numberings, the
# stencil's own five, a band whose last chunk is narrower than kl (610 = 20
# * 30 + 10 = 6 * 97 + 28), a band of 1 with zero diagonals out to 3, and a
# diagonal
CHUNKED = {
    "ny<=w strip": lambda rng: strip_case(*STRIPS["ny<=w"]),
    "ny>w strip": lambda rng: strip_case(*STRIPS["ny>w"]),
    "kl=30": lambda rng: band_case(symmetric_banded(rng, 610, 30), 30),
    "zero diagonals": lambda rng: band_case(symmetric_banded(rng, 610, 1), 3),
    "kl=0": lambda rng: band_case(symmetric_banded(rng, 610, 0), 0),
}


# chunks of kl columns, the fewest there can be, or of 97
@pytest.mark.parametrize("columns", [None, 97], ids=["kl columns", "97 columns"])
@pytest.mark.parametrize("case", CHUNKED)
def test_multi_chunk_factor_matches_oracles(rng, monkeypatch, case, columns):
    a, diagonals = CHUNKED[case](rng)
    n, kl = a.shape[0], max(diagonals)
    width = columns or max(kl, 1)
    chunks_of(monkeypatch, width, kl)
    assert n > 2 * width
    lu = BandedLU(diagonals)
    assert lu._lu is None and lu._ipiv is None
    ld = lu._ld
    assert ld.shape == (kl + 1, n) and ld.flags.f_contiguous
    dense = a.toarray()
    err = np.linalg.norm(reconstruct_dense(lu) - dense)
    assert err <= 1e-10 * np.linalg.norm(dense)
    ab = band_storage(a, kl, kl)
    full, ipiv, info = get_lapack_funcs("gbtrf", (ab,))(ab, kl, kl)
    assert info == 0 and np.array_equal(ipiv, np.arange(n))
    # the same factor as one zgbtrf call, to roundoff
    dl = np.vstack(ldlt_parts(lu))
    assert np.linalg.norm(dl - full[2 * kl:]) <= 1e-13 * np.linalg.norm(full[2 * kl:])
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.linalg.norm(a @ lu.solve(b) - b) <= 1e-10 * np.linalg.norm(b)
    assert np.array_equal(BandedLU(diagonals)._ld, ld)


def later_chunk_matrix(rng, monkeypatch):
    """A symmetric (6, 6) band matrix of order 610 factored in chunks of 97
    columns, and a column p of its third chunk."""
    n, kl, width = 610, 6, 97
    chunks_of(monkeypatch, width, kl)
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
    lu = BandedLU(band_diagonals(a, kl))
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
        BandedLU(band_diagonals(a, 6), label="strip 3")


def test_swapped_symmetric_strip_keeps_gbtrs(rng, monkeypatch):
    # under-resolved (about 5 points per wavelength), zgbtrf swaps rows of
    # this symmetric strip, and L D L^T no longer describes the factor
    diagonals, a, band = helmholtz_strip(16, 12)
    n = a.shape[0]
    calls = zgbtrf_columns(monkeypatch)
    lu = BandedLU(diagonals)
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
        BandedLU(band_diagonals(a, 1), label="strip 3")


# the slots of each diagonal above the first row or below the last column
@pytest.mark.parametrize("columns", [None, 97], ids=["one chunk", "97 columns"])
@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_dia_slots_outside_the_matrix_are_ignored(monkeypatch, ny, cells, columns):
    diagonals, a, band = helmholtz_strip(ny, cells)
    n = a.shape[0]
    if columns:
        chunks_of(monkeypatch, columns, band)
    want = BandedLU(band_diagonals(a, band))
    # NaN in every slot outside the matrix
    data = {o: d.copy() for o, d in diagonals.items()}
    for o, d in data.items():
        d[:max(0, o)] = np.nan
        d[n + min(0, o):] = np.nan
    assert sum(np.isnan(d).sum() for d in data.values()) == 2 * (1 + band)
    lu = BandedLU(data)
    assert lu._ld is not None and np.array_equal(lu._ld, want._ld)
    # a NaN inside the matrix is rejected, naming its strip
    for o in data:
        bad = {p: d.copy() for p, d in data.items()}
        bad[o][max(0, o) + 3] = np.nan
        with pytest.raises(ValueError, match="^strip 3: matrix has a non-finite entry$"):
            BandedLU(bad, label="strip 3")


@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_ctypes_tbsv_is_scipy_tbsv_bitwise(rng, ny, cells):
    # the GIL-free kernel is the routine get_blas_funcs("tbsv") wraps
    diagonals, a, band = helmholtz_strip(ny, cells)
    n = a.shape[0]
    lu = BandedLU(diagonals)
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
def test_tail_inverse_matches_full_solves(rng, ny, cells):
    # R[i] = A^-1[n - kl:, panel p] for p = panels[i], any order, repeats
    # included; by symmetry, rows of panel p of the solves of the last kl
    # unit vectors
    diagonals, a, band = helmholtz_strip(ny, cells)
    lu = BandedLU(diagonals)
    n, kl = lu.n, lu.kl
    last = n // kl - 1
    assert n % kl == 0 and kl == band
    units = np.eye(n, dtype=np.complex128)[:, n - kl:]
    x = np.stack([lu.solve(e) for e in units.T])
    panels = [last, 0, 3, last - 1, 3, *rng.integers(0, last + 1, 4)]
    r = lu.tail_inverse(panels)
    assert r.shape == (len(panels), kl, kl)
    for got, p in zip(r, panels):
        want = x[:, p * kl:(p + 1) * kl]
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    # the trailing panel alone stops after it: the rows it returns are those
    # of the whole pass
    assert np.array_equal(lu.tail_inverse([last])[0], r[0])


@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_tail_inverse_of_every_panel_is_x_in_place(ny, cells):
    # asked for every panel in order, R is X = A^-1 [0; I] in C order, with
    # no copy; each panel is bitwise the one a shorter pass returns
    lu = BandedLU(helmholtz_strip(ny, cells)[0])
    n, kl = lu.n, lu.kl
    r = lu.tail_inverse(range(n // kl))
    assert all(block.flags.f_contiguous for block in r)
    x = r.transpose(0, 2, 1).reshape(n, kl)
    assert np.shares_memory(x, r) and x.flags.c_contiguous
    units = np.eye(n, dtype=np.complex128)[:, n - kl:]
    want = np.stack([lu.solve(e) for e in units.T], axis=1)
    assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
    panels = [3, 1, n // kl - 1, 3]
    assert all(got.tobytes() == r[p].tobytes()
               for got, p in zip(lu.tail_inverse(panels), panels))


def test_tail_inverse_needs_an_ldlt_factor_of_whole_panels(rng):
    pivoted = BandedLU(band_diagonals(pivoting_symmetric(rng, 462, 4, 2), 4))
    assert not pivoted.ldlt
    odd = BandedLU(band_diagonals(symmetric_banded(rng, 301, 3), 3))
    assert odd.ldlt and odd.n % odd.kl
    for lu, message in ((pivoted, "stored as LU"), (odd, "order 301, kl 3")):
        with pytest.raises(ValueError, match=message):
            lu.tail_inverse([0])


def test_tail_panels_out_of_range_rejected():
    lu = BandedLU(helmholtz_strip(*STRIPS["ny<=w"])[0])
    last = lu.n // lu.kl - 1
    for panels in ([-1], [last + 1], [0, last + 1], []):
        with pytest.raises(ValueError, match=f"must be some of 0..{last}"):
            lu.tail_inverse(panels)


def test_bad_rhs_shape_rejected(rng):
    lu = BandedLU(helmholtz_strip(*STRIPS["ny>w"])[0])
    for shape in [(lu.n - 1,), (), (lu.n, 2), (lu.n, 2, 1)]:
        with pytest.raises(ValueError, match="right-hand side"):
            lu.solve(np.ones(shape, dtype=np.complex128))


@pytest.mark.parametrize("kind", ["ldlt", "gbtrs"])
def test_solve_in_place_only_when_told_it_owns_rhs(rng, kind):
    if kind == "ldlt":
        lu = BandedLU(helmholtz_strip(*STRIPS["ny<=w"])[0])
    else:
        lu = BandedLU(band_diagonals(pivoting_symmetric(rng, 462, 4, 2), 4))
    assert lu.ldlt == (lu._ld is not None) == (kind == "ldlt")
    n = lu.n
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    kept = b.copy()
    x = lu.solve(b)
    assert np.array_equal(b, kept) and not np.shares_memory(x, b)
    y = lu.solve(b, overwrite_rhs=True)
    assert y is b
    assert np.array_equal(y, x)


@pytest.mark.parametrize("kind", ["ldlt", "gbtrs"])
def test_concurrent_solves_bitwise(rng, kind):
    # two threads solving with one factor lose no bit
    if kind == "ldlt":
        lu = BandedLU(helmholtz_strip(*STRIPS["ny>w"])[0])
    else:
        lu = BandedLU(band_diagonals(pivoting_symmetric(rng, 462, 4, 2), 4))
    assert (lu._ld is not None) == (kind == "ldlt")
    n, threads, solves = lu.n, 2, 200
    rhs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(threads)]
    expect = [lu.solve(b) for b in rhs]
    bad, done = [], []

    def work(t):
        for _ in range(solves):
            if not np.array_equal(lu.solve(rhs[t]), expect[t]):
                bad.append(t)
            done.append(t)

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
    assert len(done) == threads * solves

