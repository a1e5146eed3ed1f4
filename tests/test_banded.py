import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from helmsweep.banded import BandedLU, band_storage
from helmsweep.grid import HomogeneousModel, RectStencil, build_wavenumber
from conftest import make_grid, reconstruct_dense


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


def test_singular_matrix_reports_label():
    a = sp.csc_matrix((4, 4), dtype=np.complex128)
    with pytest.raises(ValueError, match="strip 3"):
        BandedLU(a, 1, 1, label="strip 3")


def test_non_square_rejected():
    a = sp.csc_matrix((3, 4), dtype=np.complex128)
    with pytest.raises(ValueError, match="square"):
        BandedLU(a, 1, 1)


@pytest.mark.parametrize("kl, ku", [(3, 3), (2, 5), (5, 2)])
def test_unpivoted_factor_drops_fill_rows(rng, kl, ku):
    # no row swaps, so U keeps ku superdiagonals: it is stored in
    # max(kl, ku) + 1 rows, the least gbtrs accepts, and L in kl + 1
    n = 60
    a = shuffled_dominant(rng, n, kl, ku, reach=0)
    lu = BandedLU(a, kl, ku)
    assert lu._lu is None and lu._ipiv is None
    assert lu._upper.shape == (max(kl, ku) + 1, n)
    assert lu._lower.shape == (kl + 1, n)
    assert lu._upper.flags.f_contiguous and lu._lower.flags.f_contiguous
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.linalg.norm(a @ lu.solve(b) - b) <= 1e-13 * np.linalg.norm(b)


# (40, 35) takes zgbtrf's blocked path, which needs kl >= 32
@pytest.mark.parametrize("kl, ku, reach", [(3, 1, 1), (1, 3, 1), (4, 4, 2),
                                           (40, 35, 10)])
def test_pivoted_factor_keeps_what_pivoting_filled(rng, kl, ku, reach):
    n = 462  # whole blocks of reach + 1 rows
    a = shuffled_dominant(rng, n, kl, ku, reach)
    ab = band_storage(a, kl, ku)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    full, ipiv, info = gbtrf(ab, kl, ku)
    assert info == 0
    fill = (ipiv - np.arange(n)).max()
    assert fill == reach
    # LAPACK's bound: U reaches ku + fill superdiagonals, so the top rows
    # of full storage beyond that are exact zeros
    drop = min(kl - fill, ku)
    assert not full[:drop].any()

    lu = BandedLU(a, kl, ku)
    assert (lu.kl, lu.ku) == (kl, ku - drop)
    assert lu._lu.shape == (2 * kl + ku + 1 - drop, n)
    b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    ref, info = gbtrs(full, kl, ku, b, ipiv)
    assert info == 0
    assert np.linalg.norm(lu.solve(b) - ref) <= 1e-13 * np.linalg.norm(ref)
    dense = a.toarray()
    err = np.linalg.norm(reconstruct_dense(lu) - dense)
    assert err <= 1e-13 * np.linalg.norm(dense)


def helmholtz_strip(ny, cells, k=20.0):
    """A Robin/Dirichlet Helmholtz strip of cells x ny cells and its band."""
    grid = make_grid(1, ny=ny, cells_per_strip=cells)
    kfield = build_wavenumber(grid, HomogeneousModel(k))
    stencil = RectStencil(grid, kfield, {"left": "robin", "right": "robin",
                                         "bottom": "dirichlet", "top": "dirichlet"})
    return stencil.matrix, stencil.bandwidth


# the matrix numbers nodes along the shorter side: columns of ny + 1 nodes
# when ny <= w, rows of w + 1 when ny > w
STRIPS = {"ny<=w": (24, 40), "ny>w": (40, 24)}


@pytest.mark.parametrize("ny, cells", STRIPS.values(), ids=STRIPS.keys())
def test_unswapped_strip_solve_is_gbtrs_bitwise(rng, ny, cells):
    a, band = helmholtz_strip(ny, cells)
    n = a.shape[0]
    lu = BandedLU(a, band, band)
    assert lu._lu is None
    assert lu._upper.shape == (band + 1, n) and lu._lower.shape == (band + 1, n)
    assert lu._upper.flags.f_contiguous and lu._lower.flags.f_contiguous

    ab = band_storage(a, band, band)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    full, ipiv, info = gbtrf(ab, band, band)
    assert info == 0 and np.array_equal(ipiv, np.arange(n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    kept = b.copy()
    x = lu.solve(b)
    assert np.array_equal(b, kept)
    # zgbtrs on the band less its band empty fill rows runs the same two
    # triangular passes with the same bandwidths
    ref, info = gbtrs(np.asfortranarray(full[band:]), band, 0, b, ipiv)
    assert info == 0 and np.array_equal(x, ref)
    # on the full layout its U pass also walks band zero superdiagonals,
    # which moves where the BLAS kernels split each column: roundoff apart
    ref, info = gbtrs(full, band, band, b, ipiv)
    assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_unswapped_block_rhs_solved_by_columns(rng):
    a, band = helmholtz_strip(*STRIPS["ny>w"])
    n = a.shape[0]
    lu = BandedLU(a, band, band)
    assert lu._lu is None
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x = lu.solve(b)
    assert x.shape == (n, 3)
    for j in range(3):
        assert np.array_equal(x[:, j], lu.solve(b[:, j]))
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
