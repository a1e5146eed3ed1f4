import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from helmsweep.grid import (HomogeneousModel, BoundarySpec, RectStencil, robin, dirichlet,
                            build_wavenumber, assemble_global, problem_load,
                            solve_direct)
from helmsweep.strips import build_strips
from helmsweep.subdomain import LocalSolver, extract_trace
from conftest import make_grid, left_bump, reconstruct_dense


def small_setup(nstrips=3, k=5.0):
    grid = make_grid(nstrips)
    kfield = build_wavenumber(grid, HomogeneousModel(k))
    bc = BoundarySpec(left=robin(left_bump), right=robin(None),
                      bottom=dirichlet(), top=dirichlet())
    decomp = build_strips(grid.nx, nstrips, 2)
    return grid, kfield, bc, decomp


def test_local_solve_consistent_with_global():
    grid, kfield, bc, decomp = small_setup()
    u = solve_direct(assemble_global(grid, kfield, bc)).reshape(grid.shape)
    full_span = (0, grid.nx)
    load = problem_load(grid, bc)
    for i in range(1, 4):
        solver = LocalSolver(grid, kfield, bc, decomp, i)
        left = None
        if i >= 2:
            col = decomp.spans[i - 1][0]
            left = extract_trace(u, full_span, col, "left", kfield, grid.h)
        right = None
        if i <= 2:
            col = decomp.spans[i - 1][1]
            right = extract_trace(u, full_span, col, "right", kfield, grid.h)
        a, b = decomp.spans[i - 1]
        w = solver.solve(left=left, right=right, load=load)
        err = np.linalg.norm(w - u[a:b + 1, :]) / np.linalg.norm(u)
        assert err <= 1e-10


def test_plane_wave_trace_value():
    grid, kfield, _, _ = small_setup()
    k = 5.0
    xs = grid.xs() if callable(grid.xs) else grid.xs
    field = np.exp(1j * k * xs)[:, None] * np.ones((1, grid.ny + 1))
    col = 7
    got = extract_trace(field, (0, grid.nx), col, "right", kfield, grid.h)
    # central difference turns exp(ikx) into i sin(kh)/h instead of ik
    expect = (1j * np.sin(k * grid.h) / grid.h + 1j * k) * np.exp(1j * k * xs[col])
    assert np.allclose(got, expect, rtol=1e-12, atol=0.0)
    got_l = extract_trace(field, (0, grid.nx), col, "left", kfield, grid.h)
    expect_l = (-1j * np.sin(k * grid.h) / grid.h + 1j * k) * np.exp(1j * k * xs[col])
    assert np.allclose(got_l, expect_l, rtol=1e-12, atol=0.0)


def test_trace_requires_interior_column():
    grid, kfield, _, _ = small_setup()
    field = np.zeros(grid.shape, dtype=np.complex128)
    with pytest.raises(ValueError, match="strictly inside"):
        extract_trace(field, (0, grid.nx), 0, "left", kfield, grid.h)
    with pytest.raises(ValueError, match="side"):
        extract_trace(field, (0, grid.nx), 5, "up", kfield, grid.h)


def test_zero_data_zero_field():
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    w = solver.solve()
    assert w.shape == (decomp.spans[1][1] - decomp.spans[1][0] + 1, grid.ny + 1)
    assert np.max(np.abs(w)) == 0.0


def test_solve_linear_in_interface_data(rng):
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    n = grid.ny + 1
    ga = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gb = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    wa = solver.solve(left=ga)
    wb = solver.solve(right=gb)
    wab = solver.solve(left=2.0 * ga, right=-1j * gb)
    err = np.linalg.norm(wab - (2.0 * wa - 1j * wb))
    assert err <= 1e-12 * max(np.linalg.norm(wa), np.linalg.norm(wb))


def test_factor_once_solve_many():
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    assert solver.factor_count == 1
    n0 = solver.solve_count
    g = np.ones(grid.ny + 1, dtype=np.complex128)
    for _ in range(4):
        solver.solve(left=g)
    assert solver.factor_count == 1
    assert solver.solve_count == n0 + 4


def test_local_matrix_symmetric_and_banded():
    grid, kfield, bc, decomp = small_setup()
    for i in (1, 2, 3):
        solver = LocalSolver(grid, kfield, bc, decomp, i)
        a = solver.stencil.matrix().tocsr()
        asym = (a - a.T).tocoo()
        assert asym.nnz == 0 or np.max(np.abs(asym.data)) == 0.0
        assert solver.bandwidth <= grid.ny + 2


def test_strip_keeps_its_factor_and_not_its_matrix(monkeypatch):
    # the matrix a strip is factored from is freed once the strip is set
    # up; neither the strip nor its stencil holds it, as sparse or as an
    # (ndiag, n) array
    grid, kfield, bc, decomp = small_setup()
    made, assemble = [], RectStencil.matrix

    def matrix(stencil):
        m = assemble(stencil)
        made.append(weakref.ref(m))
        return m

    monkeypatch.setattr(RectStencil, "matrix", matrix)
    for i in (1, 2, 3):
        solver = LocalSolver(grid, kfield, bc, decomp, i)
        assert len(made) == i and made[-1]() is None
        n = solver.stencil.nloc
        for owner in (solver, solver.stencil):
            for name, value in vars(owner).items():
                assert not sp.issparse(value), name
                assert not (isinstance(value, np.ndarray) and n in value.shape[1:]), name
        assert solver._lu._ld.shape == (solver.bandwidth + 1, n)


def test_factored_matrix_reproduced():
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    assert solver._lu._ld is not None
    dense = reconstruct_dense(solver._lu)
    err = np.linalg.norm(dense - solver.stencil.matrix().toarray())
    assert err <= 1e-10 * np.linalg.norm(dense)


def test_solves_leave_their_data_alone_and_return_fresh_arrays(rng):
    # every path of an interior mirror strip: the full solve with a load,
    # both data, a right datum on the trailing rows, a left one reversed
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    assert solver.xy and solver.mirror
    nb = grid.ny + 1
    left, right = (rng.standard_normal(nb) + 1j * rng.standard_normal(nb) for _ in range(2))
    load = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    data = (left, right, load)
    kept = [d.copy() for d in data]
    for args, columns in [((left, right, load), None), ((left, right, None), None),
                          ((None, right, None), solver.window),
                          ((left, None, None), solver.window)]:
        first = solver.solve(*args, columns=columns)
        again = first.copy()
        second = solver.solve(*args, columns=columns)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, again, equal_nan=True)
        assert np.array_equal(first, second, equal_nan=True)
    assert all(np.array_equal(d, k) for d, k in zip(data, kept))


def test_malformed_data_rejected_naming_strip_and_side():
    # each of these used to broadcast into a plausible, wrong field
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    nb = grid.ny + 1
    cases = [(dict(left=np.ones(1)), "left datum of shape \\(1,\\)"),
             (dict(right=np.array(1.0 + 0j)), "right datum of shape \\(\\)"),
             (dict(left=np.ones(nb + 1)), "left datum"),
             (dict(right=np.ones((nb, 1))), "right datum"),
             (dict(load=np.ones((grid.nx + 1, 1))), "load of shape"),
             (dict(load=np.ones(grid.shape)[:-1]), "load of shape")]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=f"strip 2: {message}"):
            solver.solve(**kwargs)
    assert solver.solve_count == 0
