import math

import numpy as np
import pytest

from helmsweep.grid import assemble_global, solve_direct
from helmsweep.strips import StripDecomposition
from helmsweep.subdomain import extract_trace
from helmsweep.substructure import SubstructuredSystem, TraceVector
from conftest import dense_matrix, dense_parts, make_case


def test_layout_slots_and_order():
    system = make_case(4, ny=8)
    assert system.layout == (2, 3, 9)
    # left-data blocks for strips 2..N first, then right-data for 1..N-1:
    # block [0, i-2] (left of strip i) and [1, i-1] (right of strip i)
    # start at flat offsets 9 * slot
    v = TraceVector(system.layout, np.arange(54, dtype=np.complex128))
    order = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [int(v.blocks[side, j][0].real) for side, j in order] == [0, 9, 18, 27, 36, 45]
    assert np.shares_memory(v.blocks, v.data)
    one_strip = StripDecomposition(nx=8, overlap_cells=2, cuts=(0, 8), spans=((0, 8),))
    with pytest.raises(ValueError, match="2 strips"):
        SubstructuredSystem(system.grid, system.kfield, system.bc, one_strip)


def test_trace_vector_views_and_arithmetic(rng):
    lay = (2, 2, 4)
    v = TraceVector.zeros(lay)
    v.blocks[0, 0] = 1.0 + 2.0j
    assert np.all(v.data[:4] == 1.0 + 2.0j) and np.all(v.data[4:] == 0.0)
    w = 2.0 * v - v
    assert np.allclose(w.data, v.data)
    assert v.norm() == pytest.approx(np.linalg.norm(v.data))


def global_traces(system):
    """Interface data extracted from the single-domain direct solve."""
    grid, kfield, decomp = system.grid, system.kfield, system.decomp
    sysm = assemble_global(grid, kfield, system.bc)
    u = solve_direct(sysm).reshape(grid.shape)
    h = TraceVector.zeros(system.layout)
    span = (0, grid.nx)
    for i in range(2, decomp.nstrips + 1):
        col = decomp.left_interface(i)
        h.blocks[0, i - 2] = extract_trace(u, span, col, "left", kfield, grid.h)
    for i in range(1, decomp.nstrips):
        col = decomp.right_interface(i)
        h.blocks[1, i - 1] = extract_trace(u, span, col, "right", kfield, grid.h)
    return u, h


def test_monodomain_traces_solve_interface_system():
    system = make_case(3)
    u, hstar = global_traces(system)
    g = system.source_traces(None)
    res = (system.apply_interface_system(hstar) - g).norm()
    assert res <= 1e-9 * g.norm()


def test_reconstruct_matches_direct_solve():
    system = make_case(3)
    u, hstar = global_traces(system)
    rebuilt = system.reconstruct(hstar)
    err = np.linalg.norm(rebuilt - u) / np.linalg.norm(u)
    assert err <= 1e-10


def test_exchange_linear_and_zero():
    system = make_case(3)
    z = system.apply_exchange(TraceVector.zeros(system.layout))
    assert z.norm() == 0.0
    rng = np.random.default_rng(7)
    size = math.prod(system.layout)
    a = TraceVector(system.layout, rng.standard_normal(size)
                    + 1j * rng.standard_normal(size))
    b = TraceVector(system.layout, rng.standard_normal(size)
                    + 1j * rng.standard_normal(size))
    lhs = system.apply_exchange(2.0 * a - 1j * b)
    rhs = 2.0 * system.apply_exchange(a) - 1j * system.apply_exchange(b)
    assert (lhs - rhs).norm() <= 1e-12 * max(lhs.norm(), 1.0)


@pytest.mark.parametrize("nstrips", [2, 3, 4, 5, 6])
def test_oneway_part_nilpotent(nstrips):
    system = make_case(nstrips, cells_per_strip=6)
    _, parts = dense_parts(system)
    t = parts["ml"] + parts["mr"]
    p = np.linalg.matrix_power(t, nstrips - 1)
    scale = max(np.linalg.norm(t) ** (nstrips - 1), 1.0)
    assert np.linalg.norm(p) <= 1e-13 * scale


def test_oneway_solver_is_two_sided_inverse():
    system = make_case(4, cells_per_strip=6)
    n = math.prod(system.layout)
    eye = np.eye(n)
    _, p = dense_parts(system)
    a = eye - (p["ml"] + p["mr"])
    s = dense_matrix(system.solve_oneway, system.layout)
    assert np.linalg.norm(s @ a - eye) <= 1e-10
    assert np.linalg.norm(a @ s - eye) <= 1e-10


def test_double_sweep_solves_block_cascade(rng):
    system = make_case(3)
    _, p = dense_parts(system)
    n = math.prod(system.layout)
    eye = np.eye(n)
    sel_l = np.zeros(n)
    sel_l[:n // 2] = 1.0

    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r_l, r_r = sel_l * r, (1.0 - sel_l) * r
    half = np.linalg.solve(eye - p["ml"], r_l)
    h_r = np.linalg.solve(eye - p["mr"], p["ar"] @ half + r_r)
    h_l = p["ml"] @ half + p["al"] @ h_r + r_l
    expect = h_l + h_r

    got = system.solve_double_sweep(TraceVector(system.layout, r.copy()))
    assert np.linalg.norm(got.data - expect) <= 1e-11 * np.linalg.norm(expect)


def test_oneway_residual_operator_identity():
    # solving the one-way part exactly leaves the preconditioned iteration
    # matrix inv(Id - OW) @ (T - OW)
    system = make_case(3)
    n = math.prod(system.layout)
    eye = np.eye(n)
    _, p = dense_parts(system)
    ow = p["ml"] + p["mr"]
    t = ow + p["al"] + p["ar"]
    r_direct = np.linalg.solve(eye - ow, t - ow)
    op = lambda v: v - system.solve_oneway(system.apply_interface_system(v))
    r_swept = dense_matrix(op, system.layout)
    assert np.linalg.norm(r_swept - r_direct) <= 1e-11 * max(np.linalg.norm(r_direct), 1.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_fused_preconditioned_operator(n):
    # (Id - T) inv(Id - OW) from the sweep's own reflections, probed densely
    system = make_case(n, cells_per_strip=6)
    eye = np.eye(math.prod(system.layout))
    _, p = dense_parts(system)
    t = sum(p.values())
    expect = (eye - t) @ np.linalg.inv(eye - (p["ml"] + p["mr"]))
    fused = dense_matrix(lambda x: system.apply_interface_system(system.solve_oneway(x)),
                         system.layout)
    assert np.linalg.norm(fused - expect) <= 1e-12 * np.linalg.norm(expect)


def test_discrete_block_cancellations():
    system = make_case(3)
    _, p = dense_parts(system)
    nm1 = system.nstrips - 1
    scale = max(max(np.linalg.norm(m) for m in p.values()) ** 2, 1.0)
    products = {
        "Ml^(N-1)": np.linalg.matrix_power(p["ml"], nm1),
        "Mr^(N-1)": np.linalg.matrix_power(p["mr"], nm1),
        "Ml.Mr": p["ml"] @ p["mr"],
        "Mr.Ml": p["mr"] @ p["ml"],
        "Al^2": p["al"] @ p["al"],
        "Ar^2": p["ar"] @ p["ar"],
        "Al.Ml": p["al"] @ p["ml"],
        "Ar.Mr": p["ar"] @ p["mr"],
        "Ml.Ar": p["ml"] @ p["ar"],
        "Mr.Al": p["mr"] @ p["al"],
    }
    for name, prod in products.items():
        assert np.linalg.norm(prod) <= 1e-13 * scale, name


def test_source_traces_local_to_strip_with_data():
    # only strip 1 touches the driven edge, so only its outgoing block is set
    system = make_case(4)
    g = system.source_traces(None)
    assert np.max(np.abs(g.blocks[0, 0])) > 0.0
    g.blocks[0, 0] = 0.0
    assert np.max(np.abs(g.data)) == 0.0


def test_fixed_point_zero_source():
    system = make_case(3)
    h, history, converged = system.fixed_point(TraceVector.zeros(system.layout))
    assert converged
    assert history == [0.0]
    assert h.norm() == 0.0


def test_fixed_point_methods():
    # k above the first duct cutoff so a mode actually propagates
    system = make_case(5, k=5.0)
    g = system.source_traces(None)
    h_j, hist_j, ok_j = system.fixed_point(g, method="jacobi", tol=1e-8, maxit=500)
    h_o, hist_o, ok_o = system.fixed_point(g, method="osds", tol=1e-8, maxit=500)
    assert ok_j and ok_o
    # exact one-way solves beat plain exchange iteration
    assert len(hist_o) < len(hist_j)
    # both land on the same interface data
    assert (h_j - h_o).norm() <= 1e-5 * g.norm()
    with pytest.raises(ValueError, match="fixed-point"):
        system.fixed_point(g, method="ds")


def test_fixed_point_history_is_residual_of_iterate():
    system = make_case(3, k=2.5)
    g = system.source_traces(None)
    h, history, converged = system.fixed_point(g, method="osds", tol=1e-10, maxit=200)
    assert converged
    res = (system.apply_interface_system(h) - g).norm() / g.norm()
    assert res == pytest.approx(history[-1], rel=1e-12, abs=1e-15)


def strip_solves(system, call):
    before = sum(sv.solve_count for sv in system.solvers)
    call()
    return sum(sv.solve_count for sv in system.solvers) - before


@pytest.mark.parametrize("n", [2, 3, 5])
def test_strip_solves_per_call(n, rng):
    system = make_case(n, cells_per_strip=6)
    size = math.prod(system.layout)
    h = TraceVector(system.layout, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    expected = {
        "apply_exchange": (lambda: system.apply_exchange(h), n),
        "source_traces": (lambda: system.source_traces(None), n),
        "reconstruct": (lambda: system.reconstruct(h), n),
        "solve_oneway": (lambda: system.solve_oneway(h), 2 * n - 4),
        "solve_double_sweep": (lambda: system.solve_double_sweep(h), 2 * n - 2),
    }
    for name, (call, solves) in expected.items():
        assert strip_solves(system, call) == solves, name

    # the preconditioned product reuses the sweep's reflections, once
    assert strip_solves(system, lambda: system.apply_interface_system(
        system.solve_oneway(h))) == 2 * n - 2
    y = system.solve_oneway(h)
    system.apply_interface_system(y)
    assert strip_solves(system, lambda: system.apply_interface_system(y)) == n
    others = {name: call for name, (call, _) in expected.items() if name != "solve_oneway"}
    others["fixed_point"] = lambda: system.fixed_point(TraceVector.zeros(system.layout))
    for name, call in others.items():
        y = system.solve_oneway(h)
        call()
        assert strip_solves(system, lambda: system.apply_interface_system(y)) == n, name
    # any other vector takes the full exchange, bit for bit
    changed = TraceVector(system.layout, system.solve_oneway(h).data.copy())
    changed.data[0] += 1.0
    assert strip_solves(system, lambda: system.apply_interface_system(changed)) == n
    system.solve_oneway(h)
    got = system.apply_interface_system(changed)
    assert np.array_equal(got.data, (changed - system.apply_exchange(changed)).data)
    # one osds step: maxit=1 does one step more than maxit=0
    g = system.source_traces(None)
    steps = [strip_solves(system, lambda m=m: system.fixed_point(g, "osds", tol=0.0, maxit=m))
             for m in (0, 1)]
    assert steps[1] - steps[0] == 3 * n - 4
