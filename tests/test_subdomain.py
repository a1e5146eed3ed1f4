import numpy as np
import pytest

from helmsweep.grid import (HomogeneousModel, BoundarySpec, robin, dirichlet,
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
            col = decomp.left_interface(i)
            left = extract_trace(u, full_span, col, "left", kfield, grid.h)
        right = None
        if i <= 2:
            col = decomp.right_interface(i)
            right = extract_trace(u, full_span, col, "right", kfield, grid.h)
        a, b = decomp.spans[i - 1]
        w = solver.solve(left=left, right=right, load=load[a:b + 1])
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


def test_trace_from_matches_extract():
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    g = np.exp(1j * np.linspace(0.0, 1.0, grid.ny + 1))
    w = solver.solve(left=g)
    # outgoing data for strip 3 is read at strip 3's left interface, which
    # lies interior to strip 2; the strip's own edge columns are off limits
    col = decomp.left_interface(3)
    via_solver = solver.trace_from(w, col, "left")
    via_free = extract_trace(w, decomp.spans[1], col, "left", kfield, grid.h)
    assert np.array_equal(via_solver, via_free)
    with pytest.raises(ValueError, match="strictly inside"):
        solver.trace_from(w, decomp.spans[1][1], "right")


def test_local_matrix_symmetric_and_banded():
    grid, kfield, bc, decomp = small_setup()
    for i in (1, 2, 3):
        solver = LocalSolver(grid, kfield, bc, decomp, i)
        a = solver.matrix.tocsr()
        asym = (a - a.T).tocoo()
        assert asym.nnz == 0 or np.max(np.abs(asym.data)) == 0.0
        assert solver.bandwidth <= grid.ny + 2


def test_factored_matrix_reproduced():
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    assert solver._lu._ld is not None
    dense = reconstruct_dense(solver._lu)
    err = np.linalg.norm(dense - solver.matrix.toarray())
    assert err <= 1e-10 * np.linalg.norm(dense)
