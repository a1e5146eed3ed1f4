import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from helmsweep.grid import (Grid, HomogeneousModel, WedgeModel, BoundarySpec,
                            EdgeCondition, RectStencil, SIDES, WavenumberField, robin,
                            dirichlet, build_grid, build_wavenumber, assemble_global,
                            problem_load, solve_direct)
from conftest import band_diagonals, blas_threads, sparse
from oracles import wedge_velocity


def test_build_grid_round_case():
    # 24 points per wavelength at k = 20*pi gives exactly 240 cells per unit
    grid = build_grid((0.0, 5.0), (0.0, 1.0), 20.0 * np.pi, 24)
    assert (grid.nx, grid.ny) == (1200, 240)
    assert grid.h == pytest.approx(1.0 / 240.0)


def test_build_grid_adjusts_to_fit():
    grid = build_grid((0.0, 5.0), (0.0, 1.0), 20.0, 24)
    assert abs(grid.nx * grid.h - 5.0) <= 1e-9 * 5.0
    assert abs(grid.ny * grid.h - 1.0) <= 1e-9
    # never coarser than requested
    assert grid.h <= (2.0 * np.pi / 20.0) / 24.0 + 1e-15


def test_build_grid_rejects_incommensurate_spans():
    with pytest.raises(ValueError, match="incommensurate"):
        build_grid((0.0, 1.0), (0.0, 0.997), 20.0, 8)


UNIT = Grid(0.0, 1.0, 0.0, 1.0, 4, 4, 0.25)
UNIT_K = build_wavenumber(UNIT, HomogeneousModel(2.0))
ROBIN = {s: "robin" for s in SIDES}
BAD_INPUT = {
    "no cells": (lambda: Grid(0.0, 1.0, 0.0, 1.0, 0, 4, 0.25), "at least one cell"),
    "cell size": (lambda: Grid(0.0, 1.0, 0.0, 1.0, 4, 4, -0.25), "cell size"),
    "oblong cells": (lambda: Grid(0.0, 1.0, 0.0, 1.0, 4, 5, 0.25), "not square"),
    "reversed span": (lambda: build_grid((1.0, 0.0), (0.0, 1.0), 20.0, 8), "spans must"),
    "k_max": (lambda: build_grid((0.0, 1.0), (0.0, 1.0), 0.0, 8), "k_max"),
    "nppwl": (lambda: build_grid((0.0, 1.0), (0.0, 1.0), 20.0, 1), "nppwl"),
    "zero wavenumber": (lambda: WavenumberField(np.array([1.0, 0.0])), "finite and positive"),
    "nan wavenumber": (lambda: WavenumberField(np.array([1.0, np.nan])), "finite and positive"),
    "wedge without omega": (lambda: build_wavenumber(UNIT, WedgeModel()), "needs omega"),
    "unknown model": (lambda: build_wavenumber(UNIT, "layered"), "unknown velocity model"),
    "edge kind": (lambda: EdgeCondition("neumann"), "unknown edge condition kind"),
    "empty columns": (lambda: RectStencil(UNIT, UNIT_K, ROBIN, cols=(2, 2)), "bad column range"),
    "columns past the grid": (lambda: RectStencil(UNIT, UNIT_K, ROBIN, cols=(0, 5)),
                              "bad column range"),
    "missing side": (lambda: RectStencil(UNIT, UNIT_K, {**ROBIN, "top": None}), "side top needs"),
    "field of another grid": (lambda: assemble_global(UNIT, WavenumberField(np.ones((3, 3))),
                                                      BoundarySpec(*[robin()] * 4)),
                              "does not match the grid"),
}


@pytest.mark.parametrize("case", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_rejected(case):
    make, message = case
    with pytest.raises(ValueError, match=message):
        make()


def test_grid_index_column_major():
    # a flattened nodal array, as field files hold it, runs along y first
    grid = Grid(0.0, 2.0, 0.0, 1.0, 8, 4, 0.25)
    flat = np.arange(grid.npoints).reshape(grid.shape)
    assert flat[0, 0] == 0
    assert flat[0, 4] == 4
    assert flat[3, 2] == 3 * 5 + 2
    assert grid.npoints == 9 * 5


def waveguide_bc():
    return BoundarySpec(left=robin(lambda x, y: np.exp(1j * y)),
                        right=robin(None),
                        bottom=dirichlet(), top=dirichlet())


def test_global_matrix_complex_symmetric():
    grid = Grid(0.0, 2.0, 0.0, 1.0, 16, 8, 0.125)
    kfield = build_wavenumber(grid, HomogeneousModel(5.0))
    system = assemble_global(grid, kfield, waveguide_bc())
    a = sparse(system.stencil.diagonals())
    asym = (a - a.T).tocoo()
    assert asym.nnz == 0 or np.max(np.abs(asym.data)) == 0.0


def test_global_matrix_bandwidth():
    grid = Grid(0.0, 2.0, 0.0, 1.0, 16, 8, 0.125)
    kfield = build_wavenumber(grid, HomogeneousModel(5.0))
    system = assemble_global(grid, kfield, waveguide_bc())
    coo = sparse(system.stencil.diagonals()).tocoo()
    assert np.max(np.abs(coo.row - coo.col)) <= grid.ny + 1


def test_dirichlet_rows_are_identity():
    grid = Grid(0.0, 2.0, 0.0, 1.0, 16, 8, 0.125)
    kfield = build_wavenumber(grid, HomogeneousModel(5.0))
    system = assemble_global(grid, kfield, waveguide_bc())
    a = sparse(system.stencil.diagonals())
    node = system.stencil.to_grid(np.arange(grid.npoints))
    for ix in range(grid.nx + 1):
        for iy in (0, grid.ny):
            n = node[ix, iy]
            row = a.getrow(n)
            assert row.nnz == 1
            assert row[0, n] == 1.0
            assert system.rhs[n] == 0.0


def test_zero_data_gives_zero_solution():
    grid = Grid(0.0, 2.0, 0.0, 1.0, 16, 8, 0.125)
    kfield = build_wavenumber(grid, HomogeneousModel(5.0))
    bc = BoundarySpec(left=robin(None), right=robin(None),
                      bottom=dirichlet(), top=dirichlet())
    system = assemble_global(grid, kfield, bc)
    u = solve_direct(system)
    assert np.max(np.abs(u)) == 0.0


def mode_error(ny, length=1.0):
    """Discretization error against an exact single-mode guide solution."""
    k = 5.0
    beta = np.sqrt(k * k - np.pi * np.pi)
    nx = round(length * ny)
    grid = Grid(0.0, nx / ny, 0.0, 1.0, nx, ny, 1.0 / ny)
    kfield = build_wavenumber(grid, HomogeneousModel(k))

    def exact(x, y):
        return np.exp(1j * beta * x) * np.sin(np.pi * y)

    # impedance data of the exact mode on the two Robin edges
    bc = BoundarySpec(
        left=robin(lambda x, y: 1j * (k - beta) * exact(x, y)),
        right=robin(lambda x, y: 1j * (k + beta) * exact(x, y)),
        bottom=dirichlet(), top=dirichlet())
    u = solve_direct(assemble_global(grid, kfield, bc)).reshape(grid.shape)
    xs = grid.xs() if callable(grid.xs) else grid.xs
    ys = grid.ys() if callable(grid.ys) else grid.ys
    ref = exact(xs[:, None], ys[None, :])
    return np.linalg.norm(u - ref) / np.linalg.norm(ref)


def test_second_order_convergence():
    # a square guide and one taller than wide: both matrix numberings
    for length in (1.0, 0.5):
        e1, e2 = mode_error(16, length), mode_error(32, length)
        assert 3.0 <= e1 / e2 <= 5.0


def reference_stencil(grid, kfield, kinds, cols):
    """The stencil assembled node by node, as the grid module states it.

    Returns (node, matrix, row_scale, side_weight, dirichlet_mask, rhs) with
    node[jx, iy] the matrix index of local node (jx, iy): nodes are numbered
    along the shorter direction.  row_scale is nodal and rhs(f, side_data)
    returns the flat right-hand side.
    """
    a, b = cols
    w, ny, h = b - a, grid.ny, grid.h
    kv = kfield.values[a:b + 1, :]
    node = np.zeros((w + 1, ny + 1), dtype=int)
    for jx in range(w + 1):
        for iy in range(ny + 1):
            node[jx, iy] = jx * (ny + 1) + iy if ny <= w else iy * (w + 1) + jx

    def node_sides(jx, iy):
        return [s for s, on in (("left", jx == 0), ("right", jx == w),
                                ("bottom", iy == 0), ("top", iy == ny)) if on]

    dmask = np.zeros((w + 1, ny + 1), dtype=bool)
    for jx in range(w + 1):
        for iy in range(ny + 1):
            dmask[jx, iy] = any(kinds[s] == "dirichlet" for s in node_sides(jx, iy))
    rows, cols_, vals = [], [], []
    row_scale = np.zeros((w + 1, ny + 1))
    side_weight = {"left": np.zeros(ny + 1), "right": np.zeros(ny + 1),
                   "bottom": np.zeros(w + 1), "top": np.zeros(w + 1)}
    inward = {"left": (1, 0), "right": (-1, 0), "bottom": (0, 1), "top": (0, -1)}
    for jx in range(w + 1):
        for iy in range(ny + 1):
            n = node[jx, iy]
            if dmask[jx, iy]:
                rows.append(n); cols_.append(n); vals.append(1.0 + 0.0j)
                continue
            k = kv[jx, iy]
            ghosts = node_sides(jx, iy)  # all Robin here
            scale = 0.5 ** len(ghosts)
            diag = 4.0 / h**2 - k**2
            coeffs = {}
            targets = [(jx + dx, iy + dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                       if 0 <= jx + dx <= w and 0 <= iy + dy <= ny]
            for s in ghosts:
                dx, dy = inward[s]
                targets.append((jx + dx, iy + dy))
                diag += 2j * k / h
                side_weight[s][iy if s in ("left", "right") else jx] += scale * (2.0 / h)
            for tx, ty in targets:
                if not dmask[tx, ty]:  # value is 0, drop the coupling
                    m = node[tx, ty]
                    coeffs[m] = coeffs.get(m, 0.0) - 1.0 / h**2
            rows.append(n); cols_.append(n); vals.append(scale * diag)
            for m, c in coeffs.items():
                rows.append(n); cols_.append(m); vals.append(scale * c)
            row_scale[jx, iy] = scale
    nloc = (w + 1) * (ny + 1)
    matrix = csr_matrix((np.array(vals, dtype=np.complex128), (rows, cols_)),
                        shape=(nloc, nloc))

    def rhs(f=None, side_data=None):
        out = np.zeros((w + 1, ny + 1), dtype=np.complex128)
        if f is not None:
            out += row_scale * f
        edges = {"left": out[0, :], "right": out[-1, :],
                 "bottom": out[:, 0], "top": out[:, -1]}
        for side, data in (side_data or {}).items():
            edges[side] += side_weight[side] * data
        flat = np.zeros(nloc, dtype=np.complex128)
        flat[node] = out
        return flat

    return node, matrix, row_scale, side_weight, dmask, rhs


def assert_bitwise(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def canonical(matrix):
    m = matrix.tocsr(copy=True)
    m.sum_duplicates()
    m.sort_indices()
    return m


def on_nodes(values, axis, grid):
    """Robin data g(x, y) that is values[i] at an edge's i-th node; the
    edge runs along x (axis 0) or y (axis 1)."""
    start = (grid.x0, grid.y0)[axis]
    return lambda x, y: values[round(((x, y)[axis] - start) / grid.h)]


WEDGE_H = 1000.0 / 35.0
ORACLE_GRIDS = {
    # full range numbered xy, narrow ranges yx
    "homogeneous": (Grid(0.0, 2.0, 0.0, 1.0, 12, 6, 1.0 / 6.0), HomogeneousModel(5.0), None),
    # three velocity layers; full range numbered xy, narrow ranges yx
    "wedge-wide": (Grid(0.0, 600.0, 400.0, 800.0, 21, 14, WEDGE_H), WedgeModel(), 12.0 * np.pi),
    # taller than wide: every range numbered yx
    "wedge-tall": (Grid(0.0, 600.0, 0.0, 1000.0, 21, 35, WEDGE_H), WedgeModel(), 12.0 * np.pi),
}


@pytest.mark.parametrize("case", sorted(ORACLE_GRIDS))
def test_stencil_matches_node_by_node_reference(case, rng):
    grid, model, omega = ORACLE_GRIDS[case]
    kfield = build_wavenumber(grid, model, omega=omega)
    nx = grid.nx
    # full, interior, and one-cell column ranges at both ends and inside
    ranges = [(0, nx), (1, nx - 1), (2, 5), (0, 1), (nx - 1, nx), (nx // 2, nx // 2 + 1)]
    numberings = set()
    edges = {"left": np.s_[0, :], "right": np.s_[-1, :],
             "bottom": np.s_[:, 0], "top": np.s_[:, -1]}
    for kinds_tuple in itertools.product(("dirichlet", "robin"), repeat=4):
        kinds = dict(zip(SIDES, kinds_tuple))
        for cols in ranges:
            stencil = RectStencil(grid, kfield, kinds, cols=cols)
            node, matrix, row_scale, side_weight, dmask, rhs = reference_stencil(
                grid, kfield, kinds, cols)
            numberings.add("xy" if node[0, 1] == 1 else "yx")
            assert np.array_equal(stencil.to_grid(np.arange(stencil.nloc)), node)
            diagonals = stencil.diagonals()
            got, ref = canonical(sparse(diagonals)), canonical(matrix)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert_bitwise(got.data, ref.data)
            # the diagonals BandedLU reads, slot by slot, zeros included
            bw = stencil.bandwidth
            assert sorted(diagonals) == [-bw, -1, 0, 1, bw]
            for o, d in band_diagonals(matrix, bw).items():
                assert_bitwise(diagonals.get(o, np.zeros_like(d)), d)
            assert_bitwise(stencil.row_scale, row_scale)
            assert_bitwise(stencil.dirichlet_mask, dmask)
            shape = (stencil.w + 1, grid.ny + 1)
            f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            data = {s: rng.standard_normal(len(side_weight[s]))
                    + 1j * rng.standard_normal(len(side_weight[s])) for s in SIDES}
            # side data enters the load as (2/h) g on the edge, in SIDES order
            load = f.copy()
            for s in SIDES:
                load[edges[s]] += (2.0 / grid.h) * data[s]
            assert_bitwise(stencil.rhs(load), rhs(f, data))
            assert_bitwise(stencil.rhs(f, data["left"], data["right"]),
                           rhs(f, {"left": data["left"], "right": data["right"]}))
            assert_bitwise(stencil.rhs(None, right=data["right"]),
                           rhs(None, {"right": data["right"]}))
            if cols == (0, nx):
                # the true problem's load, with Robin data from callables
                conds = {s: dirichlet() for s in SIDES}
                for s in SIDES:
                    if kinds[s] == "robin":
                        axis = 1 if s in ("left", "right") else 0
                        conds[s] = robin(on_nodes(data[s], axis, grid))
                bc = BoundarySpec(**conds)
                robin_data = {s: data[s] for s in SIDES if kinds[s] == "robin"}
                assert_bitwise(stencil.rhs(problem_load(grid, bc, f)), rhs(f, robin_data))
    assert numberings == ({"yx"} if case == "wedge-tall" else {"xy", "yx"})


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["volume source", "left edge data", "bottom edge data"])
def test_non_finite_problem_data_is_named(where, bad):
    # a NaN datum once gave a NaN field from solve_direct without a word
    grid = Grid(0.0, 2.0, 0.0, 1.0, 16, 8, 0.125)
    kfield = build_wavenumber(grid, HomogeneousModel(5.0))
    side = where.split()[0]
    conds = {s: robin(lambda x, y: 1.0) for s in SIDES}
    f = np.ones(grid.shape)
    if side == "volume":
        f[3, 4] = bad
    else:
        # bad on one node of the edge: (0, 0.5) on the left, (1, 0) on the bottom
        conds[side] = robin(lambda x, y: bad if y == 0.5 or x == 1.0 else 1.0)
    with pytest.raises(ValueError, match=f"^{where} has a non-finite value$"):
        assemble_global(grid, kfield, BoundarySpec(**conds), f)


def test_robin_data_is_none_or_callable():
    assert robin().data is None
    with pytest.raises(ValueError, match="callable"):
        robin(np.ones(9))
    with pytest.raises(ValueError, match="Dirichlet"):
        EdgeCondition("dirichlet", lambda x, y: 1.0)


def test_wedge_model_layers_and_ties():
    model = WedgeModel()
    assert wedge_velocity(model, 0.0, 900.0) == 2000.0
    assert wedge_velocity(model, 0.0, 650.0) == 1500.0
    assert wedge_velocity(model, 0.0, 200.0) == 3000.0
    # points exactly on a line belong to the region above it
    assert wedge_velocity(model, 0.0, 800.0) == 2000.0
    assert wedge_velocity(model, 0.0, 500.0) == 1500.0
    # lines dip toward the right
    assert wedge_velocity(model, 600.0, 650.0) == 2000.0
    assert wedge_velocity(model, 600.0, 450.0) == 1500.0


def test_wedge_velocity_grid_matches_pointwise():
    model = WedgeModel()
    xs = np.linspace(0.0, 600.0, 7)
    ys = np.linspace(0.0, 1000.0, 11)
    v = model.velocity_grid(xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert v[i, j] == wedge_velocity(model, x, y)


def test_wavenumber_from_omega():
    grid = Grid(0.0, 600.0, 0.0, 1000.0, 6, 10, 100.0)
    omega = 40.0 * np.pi
    kfield = build_wavenumber(grid, WedgeModel(), omega=omega)
    assert kfield.values.max() == pytest.approx(omega / 1500.0)
    assert kfield.values.shape == grid.shape
    # factor-2 velocity jump across the lower interface shows up in k
    assert kfield.values[0, 0] == pytest.approx(omega / 3000.0)
    assert kfield.values[0, -1] == pytest.approx(omega / 2000.0)


def test_solve_direct_is_bitwise_on_one_and_two_blas_threads():
    # the quick-start waveguide's global system, whose band is wide enough
    # for OpenBLAS to split its factorization's kernels across threads
    grid = build_grid((0.0, 5.0), (0.0, 1.0), 20.0, 16)
    kfield = build_wavenumber(grid, HomogeneousModel(20.0))
    bc = BoundarySpec(left=robin(lambda x, y: np.sin(np.pi * y)), right=robin(None),
                      bottom=dirichlet(), top=dirichlet())
    fields = []
    for threads in (1, 2):
        with blas_threads(threads):
            fields.append(solve_direct(assemble_global(grid, kfield, bc)))
    assert fields[0].tobytes() == fields[1].tobytes()
