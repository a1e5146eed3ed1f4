import dataclasses
import gc
import itertools
import math
import multiprocessing
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

from helmsweep import banded, subdomain, substructure
from helmsweep.banded import BandedLU
from helmsweep.bench import BenchContext, ProblemSpec, run
from helmsweep.grid import (BoundarySpec, WavenumberField, assemble_global, dirichlet,
                            problem_load, robin, solve_direct)
from helmsweep.krylov import gmres_right, richardson
from helmsweep.strips import StripDecomposition, build_strips
from helmsweep.subdomain import LocalSolver, _column_reversal_invariant, extract_trace
from helmsweep.substructure import SubstructuredSystem, TraceVector
from conftest import (band_diagonals, band_storage, column_reversal_invariant, dense_matrix,
                      dense_parts, make_case, sparse)


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
    one_strip = StripDecomposition(cuts=(0, 8), spans=((0, 8),))
    with pytest.raises(ValueError, match="2 strips"):
        SubstructuredSystem(system.grid, system.kfield, system.bc, one_strip)


def test_trace_vector_views_and_arithmetic(rng):
    lay = (2, 2, 4)
    v = TraceVector.zeros(lay)
    v.blocks[0, 0] = 1.0 + 2.0j
    assert np.all(v.data[:4] == 1.0 + 2.0j) and np.all(v.data[4:] == 0.0)


def global_traces(system):
    """Interface data extracted from the single-domain direct solve."""
    grid, kfield, decomp = system.grid, system.kfield, system.decomp
    sysm = assemble_global(grid, kfield, system.bc)
    u = solve_direct(sysm).reshape(grid.shape)
    h = TraceVector.zeros(system.layout)
    span = (0, grid.nx)
    for i in range(2, decomp.nstrips + 1):
        col = decomp.spans[i - 1][0]
        h.blocks[0, i - 2] = extract_trace(u, span, col, "left", kfield, grid.h)
    for i in range(1, decomp.nstrips):
        col = decomp.spans[i - 1][1]
        h.blocks[1, i - 1] = extract_trace(u, span, col, "right", kfield, grid.h)
    return u, h


def test_monodomain_traces_solve_interface_system():
    system = make_case(3)
    u, hstar = global_traces(system)
    g = system.source_traces(None)
    res = np.linalg.norm(system.apply_interface_system(hstar).data - g.data)
    assert res <= 1e-9 * np.linalg.norm(g.data)


def test_reconstruct_matches_direct_solve():
    system = make_case(3)
    u, hstar = global_traces(system)
    rebuilt = system.reconstruct(hstar)
    err = np.linalg.norm(rebuilt - u) / np.linalg.norm(u)
    assert err <= 1e-10


def test_exchange_linear_and_zero():
    system = make_case(3)
    z = system.apply_exchange(TraceVector.zeros(system.layout))
    assert np.linalg.norm(z.data) == 0.0
    rng = np.random.default_rng(7)
    size = math.prod(system.layout)
    a = TraceVector(system.layout, rng.standard_normal(size)
                    + 1j * rng.standard_normal(size))
    b = TraceVector(system.layout, rng.standard_normal(size)
                    + 1j * rng.standard_normal(size))
    lhs = system.apply_exchange(TraceVector(system.layout, 2.0 * a.data - 1j * b.data)).data
    rhs = 2.0 * system.apply_exchange(a).data - 1j * system.apply_exchange(b).data
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


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
    op = lambda v: TraceVector(
        system.layout, v.data - system.solve_oneway(system.apply_interface_system(v)).data)
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


@pytest.mark.parametrize("method", ["source_traces", "reconstruct"])
def test_misshapen_volume_source_rejected(method):
    # a column would broadcast and extra rows would be cut off unseen
    system = make_case(3)
    nx1, ny1 = system.grid.shape
    call = {"source_traces": system.source_traces,
            "reconstruct": lambda f: system.reconstruct(TraceVector.zeros(system.layout), f)}
    for shape in ((nx1, 1), (nx1 + 1, ny1)):
        with pytest.raises(ValueError, match="shape"):
            call[method](np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_problem_data_rejected_by_source_traces(bad):
    # NaN data once gave NaN traces, and GMRES "converged" on them
    system = make_case(3)
    f = np.zeros(system.grid.shape)
    f[5, 2] = bad
    with pytest.raises(ValueError, match="volume source has a non-finite value"):
        system.source_traces(f)
    bc = BoundarySpec(left=robin(lambda x, y: bad), right=robin(None),
                      bottom=dirichlet(), top=dirichlet())
    with pytest.raises(ValueError, match="left edge data has a non-finite value"):
        make_case(3, bc=bc).source_traces(None)


def test_decomposition_must_cover_the_grid():
    # a short one would leave the last columns of every reconstructed field 0
    system = make_case(3)
    short = build_strips(system.grid.nx - 4, 3, 2)
    with pytest.raises(ValueError, match="covers 20 cells, grid has 24"):
        SubstructuredSystem(system.grid, system.kfield, system.bc, short)


def test_wavenumber_field_must_match_the_grid():
    # strips would silently read the first rows of a larger field
    system = make_case(3)
    nx1, ny1 = system.grid.shape
    kfield = WavenumberField(np.full((nx1 + 51, ny1), 5.0))
    with pytest.raises(ValueError, match="wavenumber field does not match the grid"):
        SubstructuredSystem(system.grid, kfield, system.bc, system.decomp)


def fixed_point(system, g, preconditioner, tol, maxit):
    """Richardson on (Id - T) h = g with the system's own operators:
    jacobi has no M, osds has M = solve_oneway."""
    layout = system.layout
    sweep = {"jacobi": None, "osds": system.solve_oneway}[preconditioner]
    precond = None if sweep is None else (lambda x: sweep(TraceVector(layout, x)).data)
    rep = richardson(lambda x: system.apply_interface_system(TraceVector(layout, x)).data,
                     g.data, precond, tol=tol, maxit=maxit)
    return TraceVector(layout, rep.solution), rep.history, rep.converged


def test_fixed_point_zero_source():
    system = make_case(3)
    h, history, converged = fixed_point(system, TraceVector.zeros(system.layout),
                                        "jacobi", tol=1e-6, maxit=1000)
    assert converged
    assert history == [0.0]
    assert np.linalg.norm(h.data) == 0.0


def test_fixed_point_methods():
    # k above the first duct cutoff so a mode actually propagates
    system = make_case(5, k=5.0)
    g = system.source_traces(None)
    h_j, hist_j, ok_j = fixed_point(system, g, "jacobi", tol=1e-8, maxit=500)
    h_o, hist_o, ok_o = fixed_point(system, g, "osds", tol=1e-8, maxit=500)
    assert ok_j and ok_o
    # exact one-way solves beat plain exchange iteration
    assert len(hist_o) < len(hist_j)
    # both land on the same interface data
    assert np.linalg.norm(h_j.data - h_o.data) <= 1e-5 * np.linalg.norm(g.data)


def test_fixed_point_history_is_residual_of_iterate():
    system = make_case(3, k=2.5)
    g = system.source_traces(None)
    h, history, converged = fixed_point(system, g, "osds", tol=1e-10, maxit=200)
    assert converged
    res = np.linalg.norm(system.apply_interface_system(h).data - g.data) / np.linalg.norm(g.data)
    assert res == pytest.approx(history[-1], rel=1e-12, abs=1e-15)


def strip_solves(system, call):
    before = sum(sv.solve_count for sv in system.solvers)
    call()
    return sum(sv.solve_count for sv in system.solvers) - before


def totals(system):
    """(strip solves, block products) so far, summed over the strips."""
    return (sum(sv.solve_count for sv in system.solvers),
            sum(sv.block_count for sv in system.solvers))


def responses(system, call):
    """(strip solves, block products) of call()."""
    before = totals(system)
    call()
    return tuple(a - b for a, b in zip(totals(system), before))


# every strip of make_case numbered along x (rows of w + 1 nodes), with
# cells_per_strip 6: no blocks, every response a solve
YX = dict(ny=16, cells_per_strip=6)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_strip_solves_per_call(n, rng):
    system = make_case(n, **YX)
    assert not any(sv.xy or sv.blocks for sv in system.solvers)
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
    assert np.array_equal(got.data, changed.data - system.apply_exchange(changed).data)
    # osds Richardson: the first step's product is the fused one, each later
    # step a sweep and a full exchange
    g = system.source_traces(None)
    steps = [strip_solves(system, lambda m=m: fixed_point(system, g, "osds", tol=0.0, maxit=m))
             for m in (0, 1, 2)]
    assert steps[:2] == [0, 2 * n - 2]
    assert steps[2] - steps[1] == 3 * n - 4
    assert sum(sv.block_count for sv in system.solvers) == 0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_strip_solves_per_call_on_xy_strips(n, rng):
    # every strip numbered along y and a mirror: each response without a
    # load is a block product, so only source_traces and reconstruct solve,
    # and reconstruct on the load of source_traces only on the two edge
    # strips: the N - 2 others take their fields from their kept columns
    system = make_case(n, cells_per_strip=10)
    assert all(sv.xy and sv.mirror and sv.blocks for sv in system.solvers)
    assert [sv.keeps for sv in system.solvers] == [0 < s < n - 1 for s in range(n)]
    size = math.prod(system.layout)
    h = TraceVector(system.layout, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    expected = {
        "apply_exchange": (lambda: system.apply_exchange(h), 0, n),
        "source_traces": (lambda: system.source_traces(None), n, 0),
        "reconstruct": (lambda: system.reconstruct(h), 2, 0),
        "solve_oneway": (lambda: system.solve_oneway(h), 0, 2 * n - 4),
        "preconditioned product": (lambda: system.apply_interface_system(
            system.solve_oneway(h)), 0, 2 * n - 2),
        "solve_double_sweep": (lambda: system.solve_double_sweep(h), 0, 2 * n - 2),
        "full product": (lambda: system.apply_interface_system(h), 0, n),
    }
    kept = sum(sv.kept_count for sv in system.solvers)
    for name, (call, solves, products) in expected.items():
        assert responses(system, call) == (solves, products), name
    assert sum(sv.kept_count for sv in system.solvers) - kept == n - 2
    g = system.source_traces(None)
    assert [strip_solves(system, lambda m=m: fixed_point(system, g, "osds", tol=0.0, maxit=m))
            for m in (0, 1, 2)] == [0, 0, 0]


def test_osds_gmres_costs_2n_minus_2_responses_per_iteration():
    # each iteration is one fused preconditioned product of 2N - 2 strip
    # responses, solves on strips numbered along x and block products on
    # strips numbered along y; the solution is the stored preconditioned
    # vectors, so no closing sweep
    for system, solves in ((make_case(5, **YX), True), (make_case(5, cells_per_strip=10), False)):
        layout = system.layout
        g = system.source_traces(None)
        before = totals(system)
        rep = gmres_right(lambda x: system.apply_interface_system(TraceVector(layout, x)).data,
                          g.data, lambda x: system.solve_oneway(TraceVector(layout, x)).data,
                          tol=1e-10, maxit=50)
        assert rep.converged and rep.iterations > 1
        counts = tuple(a - b for a, b in zip(totals(system), before))
        per_iteration = rep.iterations * (2 * system.nstrips - 2)
        assert counts == ((per_iteration, 0) if solves else (0, per_iteration))


# xy numbering (columns of ny + 1 nodes) on waveguide strips, yx (rows of
# w + 1 nodes) on the narrower wedge strips
POOLED_SPECS = {"waveguide": dict(problem="waveguide", k=10.0, nppwl=10),
                "wedge": dict(problem="wedge", omega=12.0 * np.pi, nppwl=8)}


def serial_exchange(system, t=None, load=None):
    """The exchange as one loop over the strips' respond, strip after strip."""
    n = system.nstrips
    o = np.zeros(system.layout, dtype=np.complex128)
    for s in range(n):
        left, right = (None, None) if t is None else system._data(t, s)
        to_right, to_left = system.solvers[s].respond(left, right, load)
        if s < n - 1:
            o[0, s] = to_right
        if s > 0:
            o[1, s - 1] = to_left
    return o


def serial_oneway(system, r):
    """solve_oneway's y and the record path's r - R y, strip after strip."""
    n = system.nstrips
    o, a = r.reshape(system.layout).copy(), np.zeros(system.layout, dtype=np.complex128)
    for s in range(1, n - 1):
        to_right, a[1, s - 1] = system.solvers[s].respond(left=o[0, s - 1])
        o[0, s] += to_right
    for s in range(n - 2, 0, -1):
        a[0, s], to_left = system.solvers[s].respond(right=o[1, s])
        o[1, s - 1] += to_left
    a[1, n - 2] = system.solvers[n - 1].respond(left=o[0, n - 2])[1]
    a[0, 0] = system.solvers[0].respond(right=o[1, 0])[0]
    return o.ravel(), r - a.ravel()


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("problem", sorted(POOLED_SPECS))
def test_pooled_operators_match_serial_loops_bitwise(problem, n, rng):
    spec = ProblemSpec(**POOLED_SPECS[problem], subdomains=n, overlap_cells=2)
    with warnings.catch_warnings():
        # narrow wedge strips break the width bound, which the run waives
        warnings.simplefilter("ignore", UserWarning)
        system = BenchContext(spec).system
    stencil = system.solvers[0].stencil
    assert (stencil.ny > stencil.w) == (problem == "wedge")
    size = math.prod(system.layout)
    h = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    t = h.reshape(system.layout)
    f = rng.standard_normal(system.grid.shape) + 1j * rng.standard_normal(system.grid.shape)
    load = problem_load(system.grid, system.bc, f)

    assert np.array_equal(system.apply_exchange(TraceVector(system.layout, h)).data,
                          serial_exchange(system, t).ravel())
    assert np.array_equal(system.source_traces(f).data,
                          serial_exchange(system, load=load).ravel())
    y, fused = serial_oneway(system, h)
    got = system.solve_oneway(TraceVector(system.layout, h))
    assert np.array_equal(got.data, y)
    assert np.array_equal(system.apply_interface_system(got).data, fused)

    # source traces of another load: reconstruct solves every strip
    system.source_traces(None)
    assert np.array_equal(system.reconstruct(TraceVector(system.layout, h), f),
                          solved_field(system, t, load))


def solved_field(system, t, load):
    """The field of the data t and the load, one strip solve after another."""
    u = np.zeros(system.grid.shape, dtype=np.complex128)
    cuts = system.decomp.cuts[:-1] + (system.grid.nx + 1,)
    for s, sv in enumerate(system.solvers):
        v = sv.solve(*system._data(t, s), load)
        lo, hi = cuts[s], cuts[s + 1]
        u[lo:hi] = v[lo - sv.span[0]:hi - sv.span[0]]
    return u


def assert_same_factor(lu, other):
    for name in ("_ld", "_lu", "_ipiv"):
        x, y = getattr(lu, name), getattr(other, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


# the coarse waveguide's interior strips pivot (test_pivoted_strips_solve_the_coarse_waveguide)
FACTOR_SPECS = {**POOLED_SPECS,
                "coarse waveguide": dict(problem="waveguide", k=20.0, nppwl=4)}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("problem", sorted(FACTOR_SPECS))
def test_pooled_factors_are_the_serial_ones_bitwise(problem, n):
    # strips factored on the pool store what a factorization on this
    # thread stores, what one from the whole band of the same matrix
    # stores, and what scipy's f2py gbtrf returns; so does the global system
    spec = ProblemSpec(**FACTOR_SPECS[problem], subdomains=n, overlap_cells=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        system = BenchContext(spec).system
    stencil = assemble_global(system.grid, system.kfield, system.bc).stencil
    diagonals, bw = stencil.diagonals(), stencil.bandwidth
    assert_same_factor(BandedLU(band_diagonals(sparse(diagonals), bw)), BandedLU(diagonals))
    for sv in system.solvers:
        diagonals, bw = sv.stencil.diagonals(), sv.bandwidth
        a = sparse(diagonals)
        pooled, serial = sv.lu, BandedLU(diagonals)
        assert_same_factor(BandedLU(band_diagonals(a, bw)), pooled)
        ab = band_storage(a, bw, bw)
        full, ipiv, info = get_lapack_funcs("gbtrf", (ab,))(ab, bw, bw)
        assert info == 0
        if serial._ld is not None:
            assert pooled._lu is None and pooled._ipiv is None
            # one chunk, so one zgbtrf call as in the f2py wrapper
            assert a.shape[0] <= banded._chunk_columns(bw)
            assert np.array_equal(pooled._ld, serial._ld)
            assert np.array_equal(pooled._ld[0], 1.0 / full[2 * bw])
            assert np.array_equal(pooled._ld[1:], full[2 * bw + 1:])
        else:
            assert pooled._ld is None
            assert np.array_equal(pooled._lu, serial._lu)
            assert np.array_equal(pooled._ipiv, serial._ipiv)
            assert np.array_equal(pooled._lu, full) and np.array_equal(pooled._ipiv, ipiv + 1)


def test_pivoted_strips_solve_the_coarse_waveguide():
    # at 4 points per wavelength zgbtrf swaps rows of the interior strips and
    # of the global system, which so keep zgbtrf's LU and solve by zgbtrs
    spec = ProblemSpec(problem="waveguide", k=20.0, subdomains=5, overlap_cells=2, nppwl=4,
                       tolerances=(1e-10,))
    ctx = BenchContext(spec)
    assert [sv.lu.ldlt for sv in ctx.system.solvers] == [True, False, False, False, True]
    # a pivoted strip has no blocks: each of its responses is a solve
    assert [sv.blocks is not None for sv in ctx.system.solvers] == [True, False, False, False, True]
    d = np.ones(ctx.grid.ny + 1, np.complex128)
    for sv, data in [(ctx.system.solvers[1], dict(right=d)),
                     (ctx.system.solvers[3], dict(left=d)),
                     (ctx.system.solvers[2], dict(left=d, right=d))]:
        solves = sv.solve_count
        sv.respond(**data)
        assert (sv.solve_count - solves, sv.block_count) == (1, 0)
    direct = assemble_global(ctx.grid, ctx.kfield, ctx.bc)
    assert BandedLU(direct.stencil.diagonals())._ld is None
    u = solve_direct(direct)
    for preconditioner, iterations in {"jacobi": 34, "ds": 15, "osds": 29}.items():
        rec = ctx.solve(dataclasses.replace(spec, preconditioner=preconditioner))
        assert rec.converged and len(rec.history) - 1 == iterations, preconditioner
        assert np.linalg.norm(rec.solution - u) <= 1e-9 * np.linalg.norm(u), preconditioner


def two_threads_take_the_first_strips(monkeypatch):
    """Run _map on this thread and one pool thread, and return a wait that
    strips 0 and 1 make: each blocks until the other has started, so the
    two threads take one each."""
    monkeypatch.setattr(substructure, "WORKERS", 2)
    barrier = threading.Barrier(2, timeout=10)
    return lambda s: s < 2 and barrier.wait()


@pytest.mark.parametrize("n", [1, 2, 5, 2000])
def test_map_runs_every_strip_once_in_strip_order(monkeypatch, n):
    # six threads on the shared counter, more than the cores, switching
    # every microsecond: a strip taken twice or never shows in the counts
    pool = ThreadPoolExecutor(max_workers=5)
    monkeypatch.setattr(substructure, "_pool", pool)
    monkeypatch.setattr(substructure, "WORKERS", 6)
    counts, out = [0] * n, []

    def negate(s):
        counts[s] += 1
        return -s

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: out.append(substructure._map(negate, n)))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert not caller.is_alive()
    assert out == [[-s for s in range(n)]] and counts == [1] * n


@pytest.mark.parametrize("n", [1, 2, 5])
def test_map_runs_queued_calls_once_after_the_strips(monkeypatch, n):
    # each strip queues two calls, as each new factor queues its build;
    # six threads switching every microsecond lose none and run none twice
    pool = ThreadPoolExecutor(max_workers=5)
    monkeypatch.setattr(substructure, "_pool", pool)
    monkeypatch.setattr(substructure, "WORKERS", 6)
    queue, ran = [], []

    def strip(s):
        for k in range(2):
            queue.append(lambda s=s, k=k: ran.append((s, k)))
        return s

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert substructure._map(strip, n, queue) == list(range(n))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == [(s, k) for s in range(n) for k in range(2)]

    # the first failure in strip order, and then in queue order
    def queue_failure(s):
        raise RuntimeError(f"queued {s}")

    def fails(strip):
        def fn(s):
            queue.append(lambda s=s: queue_failure(s))
            if strip and s == n - 1:
                raise RuntimeError(f"strip {s}")
            return s
        return fn

    for strip, message in ((True, f"strip {n - 1}"), (False, "queued 0")):
        queue.clear()
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            substructure._map(fails(strip), n, queue)
    pool.shutdown()


@pytest.mark.parametrize("n", [2, 5])
def test_map_runs_strips_on_the_caller_and_a_pool_thread(monkeypatch, n):
    meet = two_threads_take_the_first_strips(monkeypatch)
    threads = {}

    def record(s):
        threads[s] = threading.current_thread()
        meet(s)
        return s

    assert substructure._map(record, n) == list(range(n))
    assert sorted(threads) == list(range(n))
    first = {threads[0], threads[1]}
    assert threading.current_thread() in first
    assert any(t.name.startswith("helmsweep-strip") for t in first)


def test_pool_leaves_one_worker_to_the_caller():
    assert substructure._pool._max_workers == max(1, substructure.WORKERS - 1)


def test_sweeps_and_record_path_keep_their_pool_thread(rng, monkeypatch):
    # solve_oneway's forward sweep (left data) and backward sweep (right
    # data) run side by side, one on this thread and one on the pool, and
    # so do the record path's two edge solves.  The first solve of each
    # waits for the other's, so the two threads take one each
    system = make_case(5, **YX)
    monkeypatch.setattr(substructure, "WORKERS", 2)
    barrier = threading.Barrier(2, timeout=10)
    first = {(1, "left"), (3, "right"), (4, "left"), (0, "right")}
    ran = []
    for s, sv in enumerate(system.solvers):
        def respond(left=None, right=None, load=None, respond=sv.respond, s=s):
            side = "left" if right is None else "right"
            ran.append((side, threading.current_thread()))
            if (s, side) in first:
                barrier.wait()
            return respond(left, right, load)
        monkeypatch.setattr(sv, "respond", respond)

    def check(solves):
        assert len(ran) == solves
        threads = {side: {t for s, t in ran if s == side} for side in ("left", "right")}
        assert all(len(t) == 1 for t in threads.values())
        pair = threads["left"] | threads["right"]
        assert len(pair) == 2 and threading.current_thread() in pair
        assert any(t.name.startswith("helmsweep-strip") for t in pair)
        ran.clear()

    r = TraceVector(system.layout, rng.standard_normal(math.prod(system.layout)) + 0j)
    y = system.solve_oneway(r)
    check(2 * system.nstrips - 4)
    # the two edge solves: no full exchange
    system.apply_interface_system(y)
    check(2)


def test_block_sweeps_and_record_path_run_on_the_calling_thread(rng, monkeypatch):
    # when each of their responses is a block product, the sweeps, the
    # edge responses and an exchange of data are no pool work; the source
    # traces, which carry a load, still are
    system = make_case(5)
    assert all(sv.blocks for sv in system.solvers)
    threads = set()
    for sv in system.solvers:
        def respond(*args, respond=sv.respond, **kwargs):
            threads.add(threading.current_thread())
            return respond(*args, **kwargs)
        monkeypatch.setattr(sv, "respond", respond)
    mapped = []
    real = substructure._map
    monkeypatch.setattr(substructure, "_map", lambda *a: mapped.append(a[1]) or real(*a))
    r = TraceVector(system.layout, rng.standard_normal(math.prod(system.layout)) + 0j)
    system.apply_interface_system(system.solve_oneway(r))
    system.solve_double_sweep(r)
    assert threads == {threading.current_thread()} and mapped == []
    system.apply_exchange(r)
    assert threads == {threading.current_thread()} and mapped == []
    system.source_traces()
    assert mapped == [system.nstrips]


@pytest.mark.parametrize("operator", ["solve_oneway", "record path"])
def test_failing_sweeps_raise_the_first_in_strip_order(operator, monkeypatch):
    # when both of the two tasks fail, the first one's failure is raised,
    # as apply_exchange raises it, and not with the other's as its context
    system = make_case(4)
    r = TraceVector(system.layout, np.ones(math.prod(system.layout), np.complex128))
    y = system.solve_oneway(r)
    for s, sv in enumerate(system.solvers):
        def fail(left=None, right=None, load=None, s=s):
            raise RuntimeError(f"strip {s + 1} failed")
        monkeypatch.setattr(sv, "respond", fail)
    apply, first = {"solve_oneway": (lambda: system.solve_oneway(r), "strip 2"),
                    "record path": (lambda: system.apply_interface_system(y), "strip 1")}[operator]
    with pytest.raises(RuntimeError) as raised:
        apply()
    assert str(raised.value) == f"{first} failed"
    assert raised.value.__context__ is None


def test_failing_strip_factor_raises_after_the_others(monkeypatch):
    system = make_case(5)
    meet = two_threads_take_the_first_strips(monkeypatch)
    caller = threading.current_thread()
    # strip 2 fails, then every strip the calling thread factors
    for fails in ("strip 2", "caller"):
        ended, failed = [], []

        def factor(diagonals, label):
            try:
                meet(int(label.split()[1]) - 1)
                if label == fails or fails == "caller" and threading.current_thread() is caller:
                    failed.append(label)
                    raise ValueError("banded LU failed")
                time.sleep(0.05)
                return BandedLU(diagonals, label)
            finally:
                ended.append(label)

        monkeypatch.setattr(subdomain, "BandedLU", factor)
        with pytest.raises(ValueError, match="local factorization failed") as raised:
            SubstructuredSystem(system.grid, system.kfield, system.bc, system.decomp)
        # the first failure in strip order, raised once every strip's
        # construction had ended, the pool's included
        assert str(raised.value) == f"{min(failed)}: local factorization failed"
        assert 0 < len(failed) < 5
        assert sorted(ended) == [f"strip {i}" for i in range(1, 6)]


@pytest.mark.parametrize("operator", ["apply_exchange", "source_traces", "reconstruct"])
def test_failing_strip_raises_after_the_other_solves(operator, monkeypatch):
    # strips numbered along x, whose exchange responses are solves
    system = make_case(5, **YX)
    meet = two_threads_take_the_first_strips(monkeypatch)
    caller = threading.current_thread()
    h = TraceVector.zeros(system.layout)
    apply = {"apply_exchange": lambda: system.apply_exchange(h),
             "source_traces": system.source_traces,
             "reconstruct": lambda: system.reconstruct(h)}[operator]
    solve = [sv.solve for sv in system.solvers]

    def solves():
        return sum(sv.solve_count for sv in system.solvers)

    # strip 1 fails, then every strip the calling thread solves
    for fails in (1, "caller"):
        failed = []

        def slow_or_failing(s):
            def run(*args):
                meet(s)
                if s == fails or fails == "caller" and threading.current_thread() is caller:
                    failed.append(s)
                    raise RuntimeError(f"strip {s} failed")
                time.sleep(0.05)
                return solve[s](*args)
            return run

        for s, sv in enumerate(system.solvers):
            monkeypatch.setattr(sv, "solve", slow_or_failing(s))
        before = solves()
        with pytest.raises(RuntimeError) as raised:
            apply()
        at_raise = solves()
        time.sleep(0.3)
        assert str(raised.value) == f"strip {min(failed)} failed"
        # no solve of the failed operator is still running
        assert 0 < at_raise - before == solves() - before == system.nstrips - len(failed)


def _counts(spec):
    return run(spec).counts


def test_forked_child_gets_its_own_strip_pool():
    spec = ProblemSpec(problem="waveguide", k=5.0, subdomains=3, overlap_cells=2,
                       nppwl=8)
    # this starts the pool's threads, which a forked child does not inherit
    counts = run(spec).counts
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.map_async(_counts, [spec]).get(timeout=30) == [counts]


def quickstart_system(problem, **overrides):
    spec = ProblemSpec(**{**dict(problem=problem, k=20.0, subdomains=5, overlap_cells=4,
                                 nppwl=16, tolerances=(1e-6,)), **overrides})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return BenchContext(spec).system


@pytest.mark.parametrize("problem, spec, xy, mirror", [
    ("waveguide", {}, [True] * 5, [True] * 5),
    ("cavity", {}, [True] * 5, [True] * 4 + [False]),
    # numbered along x: no one-sided path
    ("wedge", dict(k=None, omega=30.0, nppwl=8, overlap_cells=2), [False] * 5, [False] * 5),
], ids=["waveguide", "cavity", "wedge"])
def test_one_sided_paths_per_strip(problem, spec, xy, mirror):
    system = quickstart_system(problem, **spec)
    assert [sv.xy for sv in system.solvers] == xy
    assert [sv.mirror for sv in system.solvers] == mirror


@pytest.mark.parametrize("problem", ["waveguide", "cavity"])
def test_mirror_check_on_diagonals_is_the_permuted_matrix_test(problem):
    # every strip is numbered along y; the cavity's last strip is no mirror
    system = quickstart_system(problem)
    for sv in system.solvers:
        assert sv.xy
        assert sv.mirror == column_reversal_invariant(sparse(sv.stencil.diagonals()),
                                                      sv.stencil.w + 1)
    # one wavenumber of strip 3 made 1 % larger, one column in from its
    # left edge: no mirror; the same one column in from its right edge
    # too: a mirror again
    (a, b), values = system.decomp.spans[2], system.kfield.values.copy()
    for column in (a + 1, b - 1):
        values[column, 5] *= 1.01
        sv = LocalSolver(system.grid, WavenumberField(values), system.bc, system.decomp, 3)
        diagonals, columns = sv.stencil.diagonals(), sv.stencil.w + 1
        assert column_reversal_invariant(sparse(diagonals), columns) == (column == b - 1)
        assert _column_reversal_invariant(diagonals, columns) == (column == b - 1)
        assert sv.mirror == (column == b - 1)


def full_response(system, s, left=None, right=None):
    """The traces strip s sends, from a full solve of the strip."""
    sv, spans = system.solvers[s], system.decomp.spans
    v = sv.solve(left, right)

    def trace(column, side):
        return extract_trace(v, sv.span, column, side, system.kfield, system.grid.h)

    return (trace(spans[s + 1][0], "left") if s < system.nstrips - 1 else None,
            trace(spans[s - 1][1], "right") if s > 0 else None)


def test_one_sided_responses_match_full_solves(rng):
    # every strip, each datum side alone and both: a block product agrees
    # with the traces of a full solve to roundoff.  Cavity strip 5 is no
    # mirror strip, so its left datum is a full solve
    for problem in ("waveguide", "cavity"):
        system = quickstart_system(problem)
        nb = system.grid.ny + 1
        for s, sv in enumerate(system.solvers):
            assert set(sv.blocks or ()) == {side for side in ("left", "right")
                                        if getattr(sv, "has_" + side)
                                        and (side == "right" or sv.mirror)}, (problem, s)
            left, right = (rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
                           for _ in range(2))
            for data in (dict(left=left), dict(right=right), dict(left=left, right=right)):
                data = {side: d for side, d in data.items() if getattr(sv, "has_" + side)}
                if not data:
                    continue
                counts = sv.solve_count, sv.block_count
                got = sv.respond(**data)
                blocked = sv.blocked(*data)
                assert (sv.solve_count - counts[0], sv.block_count - counts[1]) == (
                    (0, 1) if blocked else (1, 0))
                want = full_response(system, s, **data)
                for a, b in zip(got, want):
                    if b is None:
                        assert a is None
                    elif blocked:
                        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b), (problem, s)
                    else:
                        assert np.array_equal(a, b)
        assert system.solvers[-1].blocked("left") == (problem == "waveguide")


def test_edge_strips_build_few_panels(rng, monkeypatch):
    # an edge strip sends one trace, overlap_cells columns in from its
    # datum's side: its blocks need the three node columns that trace reads
    # (reversed on strip N), so the build runs overlap_cells + 2 panels up
    # from the last.  The two edge strips share one build, and the three
    # interior strips another
    built = []
    tail_inverse = BandedLU.tail_inverse
    monkeypatch.setattr(BandedLU, "tail_inverse",
                        lambda lu, panels: built.append(panels) or tail_inverse(lu, panels))
    system = quickstart_system("waveguide")
    n, nb, m = system.nstrips, system.grid.ny + 1, 4
    for s in (0, n - 1):
        sv = system.solvers[s]
        w = sv.stencil.w
        assert sv.columns == (w - m - 1, w - m, w - m + 1)
    assert sorted(built, key=len) == [system.solvers[0].columns, system.solvers[1].columns]
    d = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    for s, data, i in [(0, dict(right=d), 0), (n - 1, dict(left=d), 1)]:
        got = system.solvers[s].respond(**data)
        want = full_response(system, s, **data)
        assert got[1 - i] is None
        assert np.linalg.norm(got[i] - want[i]) <= 1e-13 * np.linalg.norm(want[i])


def test_wedge_responses_are_full_solves_bitwise(rng):
    # strips numbered along x have no blocks: a response is the traces of
    # one full solve, bit for bit
    system = quickstart_system("wedge", k=None, omega=30.0, nppwl=8, overlap_cells=2)
    nb = system.grid.ny + 1
    for s, sv in enumerate(system.solvers):
        assert (sv.xy, sv.columns, sv.blocks) == (False, None, None)
        left, right = (rng.standard_normal(nb) + 1j * rng.standard_normal(nb) for _ in range(2))
        data = {side: d for side, d in (("left", left), ("right", right))
                if getattr(sv, "has_" + side)}
        solves = sv.solve_count
        for a, b in zip(sv.respond(**data), full_response(system, s, **data)):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert (sv.solve_count - solves, sv.block_count) == (2, 0)


def test_equal_strips_share_one_stored_factor():
    # the quick-start waveguide's two edge strips have one matrix and its
    # three interior strips another: each is still factored, and each pair
    # of equal factors is stored once
    system = quickstart_system("waveguide")
    f = [sv.lu for sv in system.solvers]
    assert len({id(a) for a in f}) == 2
    assert f[0] is f[4] and f[1] is f[2] is f[3]
    assert f[0].factor.tobytes() != f[1].factor.tobytes()
    assert [sv.factor_count for sv in system.solvers] == [1] * 5


def test_strips_sharing_a_factor_count_their_own_solves(rng):
    # the sweeps respond on each interior strip twice, the record path on
    # each edge strip once, and a full exchange on every strip once, all by
    # block products; the source traces solve every strip once, and the
    # field every edge strip, the interior ones taking it from their kept
    # columns
    system = quickstart_system("waveguide")
    solvers = system.solvers
    size = math.prod(system.layout)
    r = TraceVector(system.layout, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    before = [(sv.solve_count, sv.block_count) for sv in solvers]
    y = system.solve_oneway(r)
    system.apply_interface_system(y)
    system.apply_exchange(y)
    system.source_traces()
    system.reconstruct(y)
    counted = [(sv.solve_count - a, sv.block_count - b) for sv, (a, b) in zip(solvers, before)]
    assert counted == [(2, 2), (1, 3), (1, 3), (1, 3), (2, 2)]
    assert [sv.kept_count for sv in solvers] == [0, 1, 1, 1, 0]
    assert solvers[1].lu is solvers[2].lu is solvers[3].lu and solvers[0].lu is solvers[4].lu
    # the interior strips share one block set; the edge strips send other traces
    assert solvers[1].blocks is solvers[2].blocks is solvers[3].blocks
    assert solvers[0].blocks.keys() == {"right"} and solvers[4].blocks.keys() == {"left"}


def test_strips_sharing_a_factor_respond_as_fresh_ones_bitwise(rng):
    # a strip that reads another's factor and blocks sends the traces a
    # strip factored alone, with blocks of its own build, sends, on
    # one-sided and on two-sided data
    system = quickstart_system("waveguide")
    nb = system.grid.ny + 1
    for s, sv in enumerate(system.solvers):
        fresh = LocalSolver(system.grid, system.kfield, system.bc, system.decomp, s + 1)
        assert fresh.lu is not sv.lu and fresh.lu.factor.tobytes() == sv.lu.factor.tobytes()
        fresh.blocks = fresh.form_blocks(fresh.lu.tail_inverse(fresh.columns))
        assert fresh.blocks is not sv.blocks
        left, right = (rng.standard_normal(nb) + 1j * rng.standard_normal(nb) for _ in range(2))
        cases = [dict(left=left), dict(right=right), dict(left=left, right=right)]
        for data in cases:
            data = {side: d for side, d in data.items() if getattr(sv, "has_" + side)}
            if not data:
                continue
            for a, b in zip(sv.respond(**data), fresh.respond(**data)):
                assert (a is None and b is None) or np.array_equal(a, b)


def test_wedge_strips_share_no_factor():
    # every wedge strip sees other wavenumbers, so no two have one key,
    # though strips 2 and 4 have one shape
    system = quickstart_system("wedge", k=None, omega=30.0, nppwl=8, overlap_cells=2)
    assert len({id(sv.lu) for sv in system.solvers}) == system.nstrips == 5


SMALL = {"waveguide": dict(k=10.0, nppwl=8, overlap_cells=2),
         "cavity": dict(k=10.0, nppwl=8, overlap_cells=2),
         "wedge": dict(k=None, omega=30.0, nppwl=8, overlap_cells=2)}


@pytest.mark.parametrize("nstrips", [2, 3, 5])
@pytest.mark.parametrize("problem", SMALL)
def test_strips_share_exactly_when_their_keys_are_equal(problem, nstrips):
    # the oracle is the bits of each strip's assembled matrix: two strips
    # have equal keys exactly when those are equal, and exactly then hold
    # one factor; strips holding one block set form equal blocks alone
    system = quickstart_system(problem, subdomains=nstrips, **SMALL[problem])
    solvers = system.solvers
    keys = [sv.stencil.key() for sv in solvers]
    bits = [{o: d.tobytes() for o, d in sv.stencil.diagonals().items()} for sv in solvers]
    for a, b in itertools.combinations(range(nstrips), 2):
        assert (keys[a] == keys[b]) == (bits[a] == bits[b]) == (solvers[a].lu is solvers[b].lu)
    for s, sv in enumerate(solvers):
        if sv.blocks is None:
            continue
        fresh = LocalSolver(system.grid, system.kfield, system.bc, system.decomp, s + 1)
        own = fresh.form_blocks(fresh.lu.tail_inverse(fresh.columns))
        assert own.keys() == sv.blocks.keys()
        assert all(own[side].tobytes() == sv.blocks[side].tobytes() for side in own)
    if problem == "cavity":
        # its last strip has no block: its one datum is a left one, and it is no mirror
        assert solvers[-1].blocks is None
    if problem == "wedge":
        assert all(sv.blocks is None for sv in solvers)


def test_systems_share_nothing_and_free_their_factors():
    # the factors kept for sharing live as long as the system that keeps
    # them: a second system of the same problem stores its own, and
    # dropping the first frees its arrays
    first, second = quickstart_system("waveguide"), quickstart_system("waveguide")
    assert not ({id(sv.lu) for sv in first.solvers} & {id(sv.lu) for sv in second.solvers})
    assert not ({id(sv.lu.factor) for sv in first.solvers}
                & {id(sv.lu.factor) for sv in second.solvers})
    refs = [weakref.ref(x) for sv in first.solvers for x in (sv.lu, sv.lu.factor)]
    del first
    # a pool thread may still hold the construction's last work item for a moment
    deadline = time.monotonic() + 10
    while any(r() is not None for r in refs) and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.01)
    assert all(r() is None for r in refs)
    assert len({id(sv.lu) for sv in second.solvers}) == 2


def random_data(system, rng):
    """Random traces t, as a (2, N-1, ny+1) array, and a random volume source."""
    t = (rng.standard_normal(system.layout) + 1j * rng.standard_normal(system.layout))
    f = rng.standard_normal(system.grid.shape) + 1j * rng.standard_normal(system.grid.shape)
    return t, f


def kept_fields(system):
    return sum(sv.kept_count for sv in system.solvers)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("problem", SMALL)
def test_reconstruct_from_kept_columns_matches_strip_solves(problem, n, rng):
    # on the load of the last source_traces, each interior strip of the
    # waveguide and cavity takes its field from its kept columns and kept
    # load field, which agree with a strip solve to roundoff; no wedge
    # strip keeps columns, so its field is the strip solves' bit for bit
    for overrides in (SMALL[problem], {"k": None, "omega": 30.0} if problem == "wedge" else {}):
        system = quickstart_system(problem, subdomains=n, **overrides)
        keeps = [sv.keeps for sv in system.solvers]
        assert keeps == [problem != "wedge" and 0 < s < n - 1 for s in range(n)]
        t, f = random_data(system, rng)
        system.source_traces(f)
        before = (sum(sv.solve_count for sv in system.solvers), kept_fields(system))
        got = system.reconstruct(TraceVector(system.layout, t.ravel()), f)
        assert (sum(sv.solve_count for sv in system.solvers) - before[0],
                kept_fields(system) - before[1]) == (n - sum(keeps), sum(keeps))
        want = solved_field(system, t, problem_load(system.grid, system.bc, f))
        if problem == "wedge":
            assert got.tobytes() == want.tobytes()
        else:
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), overrides


def test_reconstruct_takes_kept_fields_only_on_the_kept_load(rng):
    # bitwise the strip solves with no source traces before, and on a load
    # other than the last source_traces'; on that load, from the kept
    # columns, and again after operator calls, until source traces of
    # another load replace the record
    system = make_case(5, cells_per_strip=10)
    n, layout = system.nstrips, system.layout
    t, f = random_data(system, rng)
    other = 2.0 * f
    h = TraceVector(layout, t.ravel())

    def field(source):
        solves, kept = sum(sv.solve_count for sv in system.solvers), kept_fields(system)
        u = system.reconstruct(h, source)
        return u, (sum(sv.solve_count for sv in system.solvers) - solves,
                   kept_fields(system) - kept)

    def solved(source):
        return solved_field(system, t, problem_load(system.grid, system.bc, source))

    u, counts = field(f)
    assert counts == (n, 0) and u.tobytes() == solved(f).tobytes()
    system.source_traces(f)
    u, counts = field(other)
    assert counts == (n, 0) and u.tobytes() == solved(other).tobytes()
    first, counts = field(f)
    assert counts == (2, n - 2)
    assert np.linalg.norm(first - solved(f)) <= 1e-13 * np.linalg.norm(first)
    system.apply_interface_system(system.solve_oneway(h))
    system.apply_exchange(h)
    again, counts = field(f)
    assert counts == (2, n - 2) and again.tobytes() == first.tobytes()
    system.source_traces(other)
    u, counts = field(f)
    assert counts == (n, 0) and u.tobytes() == solved(f).tobytes()


def test_block_responses_are_products_added_onto_zeros_bitwise(rng):
    # each block response is the sum of the products of its data sides
    # added onto zeros, bit for bit, and counts one block product
    for problem in ("waveguide", "cavity"):
        system = quickstart_system(problem)
        nb = system.grid.ny + 1
        for sv in system.solvers:
            left, right = (rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
                           for _ in range(2))
            for data in (dict(left=left), dict(right=right), dict(left=left, right=right)):
                if not data.keys() <= set(sv.blocks or ()):
                    continue
                out = np.zeros((sum(x is not None for x in sv.sends), nb), np.complex128)
                for side, d in data.items():
                    out += sv.blocks[side] @ d
                rows = iter(out)
                want = tuple(None if x is None else next(rows) for x in sv.sends)
                counts = sv.solve_count, sv.block_count
                got = sv.respond(**data)
                assert (sv.solve_count, sv.block_count) == (counts[0], counts[1] + 1)
                assert all((a is None and b is None) or a.tobytes() == b.tobytes()
                           for a, b in zip(got, want)), (problem, sv.strip, data.keys())


def test_kept_columns_are_the_interior_build_itself():
    # the interior strips of the quick-start waveguide share one (n, nb)
    # array of X = A^-1 [0; I], the memory of their one tail_inverse
    # build of every panel, from which their blocks are formed
    system = quickstart_system("waveguide")
    kept = [sv.kept for sv in system.solvers]
    assert kept[0] is None and kept[-1] is None
    assert kept[1] is kept[2] is kept[3]
    sv = system.solvers[1]
    x, nb = kept[1], system.grid.ny + 1
    assert x.shape == (sv.stencil.nloc, nb) and x.flags.c_contiguous
    units = np.eye(sv.stencil.nloc, dtype=np.complex128)[:, -nb:]
    want = np.stack([sv.lu.solve(e) for e in units.T], axis=1)
    assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
    fresh = LocalSolver(system.grid, system.kfield, system.bc, system.decomp, 2)
    own = fresh.form_blocks(fresh.lu.tail_inverse(fresh.columns))
    assert all(own[side].tobytes() == sv.blocks[side].tobytes() for side in own)
