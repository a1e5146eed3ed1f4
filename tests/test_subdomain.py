import sys
import threading
import weakref

import numpy as np
import pytest

from helmsweep.grid import (HomogeneousModel, BoundarySpec, RectStencil, robin, dirichlet,
                            build_wavenumber, assemble_global, problem_load,
                            solve_direct)
from helmsweep.strips import build_strips
from helmsweep.subdomain import LocalSolver, extract_trace
from conftest import make_grid, left_bump, reconstruct_dense, sparse


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
        a = sparse(solver.stencil.diagonals())
        asym = (a - a.T).tocoo()
        assert asym.nnz == 0 or np.max(np.abs(asym.data)) == 0.0
        assert solver.bandwidth <= grid.ny + 2


def test_strip_keeps_its_factor_and_not_its_matrix(monkeypatch):
    # the diagonals a strip is factored from are freed once the strip is
    # set up; neither the strip nor its stencil holds them, as a mapping,
    # one by one or as an (ndiag, n) array
    grid, kfield, bc, decomp = small_setup()
    made, assemble = [], RectStencil.diagonals

    def diagonals(stencil):
        d = assemble(stencil)
        made.append([weakref.ref(a) for a in d.values()])
        return d

    monkeypatch.setattr(RectStencil, "diagonals", diagonals)
    for i in (1, 2, 3):
        solver = LocalSolver(grid, kfield, bc, decomp, i)
        assert len(made) == i and all(ref() is None for ref in made[-1])
        n = solver.stencil.nloc
        for owner in (solver, solver.stencil):
            for name, value in vars(owner).items():
                arrays = value.values() if isinstance(value, dict) else [value]
                assert not any(isinstance(a, np.ndarray) and n in a.shape for a in arrays), name
        assert solver.lu._ld.shape == (solver.bandwidth + 1, n)


def test_factored_matrix_reproduced():
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    assert solver.lu._ld is not None
    dense = reconstruct_dense(solver.lu)
    err = np.linalg.norm(dense - sparse(solver.stencil.diagonals()).toarray())
    assert err <= 1e-10 * np.linalg.norm(dense)


def test_solves_leave_their_data_alone_and_return_fresh_arrays(rng):
    # solves with a load, both data and each datum alone, and responses by
    # solves and by block products
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    assert solver.xy and solver.mirror
    nb = grid.ny + 1
    left, right = (rng.standard_normal(nb) + 1j * rng.standard_normal(nb) for _ in range(2))
    load = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    data = (left, right, load)
    kept = [d.copy() for d in data]
    cases = [(left, right, load), (left, right, None), (None, right, None), (left, None, None)]
    for call in (solver.solve, solver.respond):
        if call == solver.respond:
            solver.blocks = solver.form_blocks(solver.lu.tail_inverse(solver.first))
        for args in cases:
            first = call(*args)
            again = np.array(first)
            second = call(*args)
            assert not any(np.shares_memory(a, b) for a in first for b in second)
            assert np.array_equal(first, again)
            assert np.array_equal(first, second)
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


def test_strip_index_and_missing_interface_rejected():
    grid, kfield, bc, decomp = small_setup()
    for strip in (0, 4):
        with pytest.raises(ValueError, match=f"strip index {strip} out of range 1..3"):
            LocalSolver(grid, kfield, bc, decomp, strip)
    d = np.ones(grid.ny + 1, np.complex128)
    for strip, side in ((1, "left"), (3, "right")):
        solver = LocalSolver(grid, kfield, bc, decomp, strip)
        with pytest.raises(ValueError, match=f"strip {strip} has no {side} interface"):
            solver.solve(**{side: d})
        assert solver.solve_count == 0


def test_solve_rejected_by_the_factor_counts_nothing(monkeypatch):
    # a solve counts once its factor has solved
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)

    def reject(rhs, overwrite_rhs=False):
        raise ValueError("banded back-substitution failed")

    monkeypatch.setattr(solver.lu, "solve", reject)
    d = np.ones(grid.ny + 1, np.complex128)
    for data in (dict(right=d), dict(left=d), dict(load=np.ones(grid.shape))):
        with pytest.raises(ValueError, match="back-substitution"):
            solver.respond(**data)
    assert (solver.solve_count, solver.block_count) == (0, 0)


def test_concurrent_solves_of_one_strip_lose_no_count(rng):
    # the two sweeps of solve_oneway respond on one interior strip at once;
    # four threads switching every microsecond lose no count, of solves
    # (left data, no left blocks) or of block products (right data)
    grid, kfield, bc, decomp = small_setup()
    solver = LocalSolver(grid, kfield, bc, decomp, 2)
    blocks = solver.form_blocks(solver.lu.tail_inverse(solver.first))
    solver.blocks = {"right": blocks["right"]}
    d = rng.standard_normal(grid.ny + 1) + 1j * rng.standard_normal(grid.ny + 1)
    threads, solves = 4, 200

    def work():
        for _ in range(solves):
            solver.respond(left=d)
            solver.respond(right=d)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    calls = threads * solves
    assert (solver.solve_count, solver.block_count) == (calls, calls)
