import numpy as np
import pytest
import scipy.sparse as sp

from helmsweep.banded import BandedLU, band_storage
from conftest import reconstruct_dense


def random_banded(rng, n, kl, ku):
    diags = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
             for _ in range(kl + ku + 1)]
    m = sp.diags(diags, offsets=range(-kl, ku + 1), shape=(n, n)).tocsc()
    # push mass onto the diagonal so the test matrix is comfortably regular
    return (m + sp.eye(n) * (kl + ku + 2.0)).tocsc()


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
