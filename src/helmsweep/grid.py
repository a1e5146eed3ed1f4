"""Uniform-grid finite differences for the 2D Helmholtz equation.

Conventions, relied on by every module downstream:

- Domain [x0, x1] x [y0, y1] with square cells of side h: nx cells in x, ny
  cells in y, nodes (ix, iy) for 0 <= ix <= nx, 0 <= iy <= ny located at
  (x0 + ix*h, y0 + iy*h).
- Nodal arrays have shape (nx+1, ny+1), indexed [ix, iy].  Flattened (field
  files) they are column-major: n = ix*(ny+1) + iy.  The matrix
  numbering is RectStencil's own: it runs along the shorter direction to keep
  the band narrow, RectStencil.to_grid turns a flat vector in that numbering
  into a nodal array, and RectStencil.diagonals() assembles its band diagonals.
- Equation (-k^2 - Lap) u = f with k = k(x, y).  Absorbing edges carry the
  impedance condition (d/dn + i*k) u = g with outward normal n; Dirichlet
  edges carry u = 0 (homogeneous only).
- Interior row: (4/h^2 - k^2) u_c - (u_E + u_W + u_N + u_S)/h^2 = f.
- A node on an absorbing edge keeps its PDE row; the ghost value outside the
  domain is eliminated using the centered difference of the edge condition,
  (u_ghost - u_inward)/(2h) + i*k*u = g, which turns the row into
  (4/h^2 - k^2 + 2ik/h) u - (2/h^2) u_inward - ... = f + (2/h) g.
  Each row is then scaled by 1/2 per eliminated ghost (1/4 at a corner of two
  absorbing edges); the scaling makes the matrix complex symmetric (A = A^T,
  no conjugation) without changing the solution.
- The problem's data therefore enters as one nodal load, f + (2/h) g on the
  Robin edges (problem_load), times each row's scale.  A strip's impedance
  interface is an absorbing edge too: its data enters its edge column the
  same way (RectStencil.rhs).  This module alone turns data into a
  right-hand side.
- Dirichlet rows are identity rows with zero right-hand side, and couplings
  into Dirichlet nodes are dropped (their value is 0), preserving symmetry.
  A corner shared by a Dirichlet edge and an absorbing edge is Dirichlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .banded import BandedLU

ComplexArray = NDArray[np.complex128]
FloatArray = NDArray[np.float64]

SIDES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class Grid:
    """Uniform square-cell grid on a rectangle."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    h: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one cell per direction")
        if self.h <= 0:
            raise ValueError("cell size must be positive")
        for length, n in ((self.x1 - self.x0, self.nx), (self.y1 - self.y0, self.ny)):
            if abs(length - n * self.h) > 1e-9 * max(1.0, abs(length)):
                raise ValueError("cells are not square: spans incommensurate with h")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx + 1, self.ny + 1)

    @property
    def npoints(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def xs(self) -> FloatArray:
        return self.x0 + self.h * np.arange(self.nx + 1)

    def ys(self) -> FloatArray:
        return self.y0 + self.h * np.arange(self.ny + 1)


def build_grid(xspan: tuple[float, float], yspan: tuple[float, float],
               k_max: float, nppwl: int) -> Grid:
    """Mesh a rectangle with square cells at a requested points-per-wavelength.

    The cell size obeys h <= (2*pi/k_max)/nppwl; nx, ny are the smallest cell
    counts achieving this with square cells.  Rejects rectangles whose aspect
    ratio admits no square subdivision within a 64-step search window.
    """
    x0, x1 = float(xspan[0]), float(xspan[1])
    y0, y1 = float(yspan[0]), float(yspan[1])
    lx, ly = x1 - x0, y1 - y0
    if lx <= 0 or ly <= 0:
        raise ValueError("domain spans must be positive")
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    if nppwl < 2:
        raise ValueError("nppwl must be at least 2")
    h_max = (2.0 * math.pi / k_max) / nppwl
    # subdivide the y side first, then ask that the x side lands on a node
    ny0 = max(math.ceil(ly / h_max - 1e-9 * max(1.0, ly / h_max)), 1)
    for t in range(ny0, ny0 + 65):
        h = ly / t
        nx_real = lx / h
        nx = round(nx_real)
        if nx >= 1 and abs(nx_real - nx) <= 1e-9 * max(1.0, nx_real):
            return Grid(x0, x1, y0, y1, nx=nx, ny=t, h=h)
    raise ValueError(
        f"no square-cell subdivision of [{x0},{x1}]x[{y0},{y1}] found with "
        f"h <= {h_max:.6g}; spans are incommensurate"
    )


@dataclass(frozen=True)
class HomogeneousModel:
    """Constant-wavenumber medium (unit velocity: omega equals k)."""

    k: float


class WedgeModel:
    """The wedge test problem's three-layer velocity model; its geometry is fixed.

    Two straight lines ((xa, ya), (xb, yb)), evaluated by linear
    interpolation in x, split the domain.  A point exactly on a line takes
    the region above it.  Velocities are ordered top, middle, bottom.
    """

    upper = ((0.0, 800.0), (600.0, 600.0))
    lower = ((0.0, 500.0), (600.0, 300.0))
    velocities = (2000.0, 1500.0, 3000.0)

    @staticmethod
    def _line_y(line, x):
        (xa, ya), (xb, yb) = line
        return ya + (yb - ya) * (x - xa) / (xb - xa)

    def velocity_grid(self, xs: FloatArray, ys: FloatArray) -> FloatArray:
        y = ys[None, :]
        yu = self._line_y(self.upper, xs)[:, None]
        yl = self._line_y(self.lower, xs)[:, None]
        v0, v1, v2 = self.velocities
        return np.where(y >= yu, v0, np.where(y >= yl, v1, v2))


@dataclass(frozen=True)
class WavenumberField:
    """Nodal wavenumber values k(x, y) = omega / c(x, y)."""

    values: FloatArray

    def __post_init__(self):
        v = np.asarray(self.values)
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("wavenumber values must be finite and positive")


def build_wavenumber(grid: Grid, model, omega: float | None = None) -> WavenumberField:
    """Sample a velocity model onto the grid nodes as k = omega/c."""
    if isinstance(model, HomogeneousModel):
        return WavenumberField(np.full(grid.shape, float(model.k)))
    if isinstance(model, WedgeModel):
        if omega is None:
            raise ValueError("wedge model needs omega")
        return WavenumberField(omega / model.velocity_grid(grid.xs(), grid.ys()))
    raise ValueError(f"unknown velocity model {model!r}")


@dataclass(frozen=True)
class EdgeCondition:
    """One edge's boundary condition: 'dirichlet' (u = 0) or 'robin'.

    Robin data is None (homogeneous) or a callable g(x, y) evaluated at the
    edge's nodes.
    """

    kind: str
    data: object = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown edge condition kind {self.kind!r}")
        if self.kind == "dirichlet" and self.data is not None:
            raise ValueError("only homogeneous Dirichlet edges are supported")
        if self.data is not None and not callable(self.data):
            raise ValueError("Robin edge data must be None or a callable g(x, y)")


def dirichlet() -> EdgeCondition:
    return EdgeCondition("dirichlet")


def robin(data=None) -> EdgeCondition:
    return EdgeCondition("robin", data)


@dataclass(frozen=True)
class BoundarySpec:
    left: EdgeCondition
    right: EdgeCondition
    bottom: EdgeCondition
    top: EdgeCondition

    def kind(self, side: str) -> str:
        return getattr(self, side).kind


# each side's nodes as an index into a (w+1, ny+1) nodal array
_EDGES = {"left": np.s_[0, :], "right": np.s_[-1, :],
         "bottom": np.s_[:, 0], "top": np.s_[:, -1]}
# (side behind the node, node slice, neighbour slice) for the four couplings;
# a ghost on the side behind the node mirrors onto that neighbour
_NEIGHBOURS = (("left", np.s_[:-1, :], np.s_[1:, :]),
               ("right", np.s_[1:, :], np.s_[:-1, :]),
               ("bottom", np.s_[:, :-1], np.s_[:, 1:]),
               ("top", np.s_[:, 1:], np.s_[:, :-1]))


class RectStencil:
    """Helmholtz operator on the grid columns a..b with per-side conditions.

    side_kinds maps each of 'left', 'right', 'bottom', 'top' to 'dirichlet'
    or 'robin'.  Robin sides contribute the ghost-eliminated impedance rows;
    their data enters only the right-hand side (built per solve), so one
    matrix serves any number of data sets.  Used both for the global system
    (physical conditions on all four sides) and for strip subproblems, where
    an interior vertical side is an interface carrying trace data.

    Callers see (w+1, ny+1) nodal arrays only.  The matrix numbers the nodes
    along whichever direction is shorter, so its bandwidth is min(w, ny)+1;
    to_grid is the one place that knows that numbering.
    """

    def __init__(self, grid: Grid, kfield: WavenumberField,
                 side_kinds: dict[str, str], cols: tuple[int, int] | None = None):
        a, b = cols if cols is not None else (0, grid.nx)
        if not (0 <= a < b <= grid.nx):
            raise ValueError(f"bad column range [{a}, {b}]")
        self.grid = grid
        self.cols = (a, b)
        self.w = b - a
        self.ny = grid.ny
        self.nloc = (self.w + 1) * (self.ny + 1)
        self.bandwidth = min(self.w, self.ny) + 1
        self.side_kinds = dict(side_kinds)
        for s in SIDES:
            if self.side_kinds.get(s) not in ("dirichlet", "robin"):
                raise ValueError(f"side {s} needs a condition")
        self._k = kfield.values[a:b + 1, :]
        self.dirichlet_mask = np.zeros((self.w + 1, self.ny + 1), dtype=bool)
        self._ghosts = np.zeros((self.w + 1, self.ny + 1), dtype=np.int8)
        for s in SIDES:
            if self.side_kinds[s] == "dirichlet":
                self.dirichlet_mask[_EDGES[s]] = True
            else:
                self._ghosts[_EDGES[s]] += 1
        # each eliminated ghost halves the row, which keeps A = A^T
        self.row_scale = np.where(self.dirichlet_mask, 0.0, 0.5 ** self._ghosts)

    def to_grid(self, x: ComplexArray) -> ComplexArray:
        """View a flat vector in matrix numbering as a (w+1, ny+1) nodal array."""
        if self.ny <= self.w:
            return x.reshape(self.w + 1, self.ny + 1)
        return x.reshape(self.ny + 1, self.w + 1).T

    def key(self) -> tuple:
        """Every input diagonals() reads: stencils with equal keys assemble
        bitwise equal matrices.  It must name each such input, so a new one
        that diagonals() reads is added here too."""
        return (self.w, self.ny, self.grid.h, tuple(self.side_kinds[s] for s in SIDES),
                self._k.tobytes())

    def diagonals(self) -> dict[int, ComplexArray]:
        """The matrix, assembled anew, as {offset: (nloc,) diagonal} for the
        offsets 0, +-1 and +-bandwidth: A(i, j) in slot j of offset j - i,
        and 0 in the slots outside the matrix and where no coupling is."""
        h, k, free = self.grid.h, self._k, ~self.dirichlet_mask
        node = self.to_grid(np.arange(self.nloc))
        data = np.zeros((5, self.nloc), np.complex128)
        # a ghost adds i*2k/h; a real factor keeps the rounding of 2ik/h
        diag = (4.0 / h**2 - k**2) + 1j * (self._ghosts * (2.0 * k / h))
        # Dirichlet rows are identity rows
        self.to_grid(data[0])[...] = np.where(free, self.row_scale * diag, 1.0)
        offsets = [0] + [int(node[to].flat[0] - node[at].flat[0]) for _, at, to in _NEIGHBOURS]
        for row, (behind, at, to) in enumerate(_NEIGHBOURS, 1):
            # couplings into Dirichlet nodes are dropped: their value is 0
            coupling = np.full(free.shape, -1.0 / h**2)
            coupling[_EDGES[behind]] *= 2.0
            self.to_grid(data[row])[to] = np.where(free[at] & free[to],
                                                   (self.row_scale * coupling)[at], 0.0)
        return dict(zip(offsets, data))

    def rhs(self, load: ComplexArray | None = None,
            left: ComplexArray | None = None,
            right: ComplexArray | None = None) -> ComplexArray:
        """Flat right-hand side for a nodal load and edge-column impedance data.

        load is a (w+1, ny+1) nodal array (a slice of problem_load) or None.
        left and right are the data g of (d/dn + i*k) v = g on the first and
        last columns; each enters as the load (2/h) g on its column alone.
        """
        flat = np.zeros(self.nloc, dtype=np.complex128)
        out = self.to_grid(flat)
        if load is not None:
            out += self.row_scale * load
        for col, data in ((0, left), (-1, right)):
            if data is not None:
                out[col] += self.row_scale[col] * ((2.0 / self.grid.h) * data)
        return flat


@dataclass
class SparseSystem:
    """Assembled global system: the stencil and its flat right-hand side."""

    stencil: RectStencil
    rhs: ComplexArray


def problem_load(grid: Grid, bc: BoundarySpec, f=None) -> ComplexArray:
    """The true problem's data as one (nx+1, ny+1) nodal load.

    f is the volume source: None or an (nx+1, ny+1) array.  Each Robin
    edge's data g adds (2/h) g on that edge's nodes, in SIDES order, onto a
    copy of f.  A non-finite value in f or in an edge's data is a
    ValueError naming the volume source or the edge.
    """
    # _edge_loads is a generator, so f is checked before the edges
    return _add_edge_loads(grid, f, _edge_loads(grid, bc))


def _edge_loads(grid: Grid, bc: BoundarySpec):
    """(side, (2/h) g on its nodes) for each Robin edge, in SIDES order: g is
    called node by node, so a SubstructuredSystem keeps these pairs."""
    xs, ys = grid.xs(), grid.ys()
    nodes = {"left": [(grid.x0, y) for y in ys], "right": [(grid.x1, y) for y in ys],
             "bottom": [(x, grid.y0) for x in xs], "top": [(x, grid.y1) for x in xs]}
    for s in SIDES:
        cond = getattr(bc, s)
        if cond.kind == "robin":
            g = np.array([0.0 if cond.data is None else cond.data(x, y) for x, y in nodes[s]],
                         dtype=np.complex128)
            if not np.isfinite(g).all():
                raise ValueError(f"{s} edge data has a non-finite value")
            yield s, (2.0 / grid.h) * g


def _add_edge_loads(grid: Grid, f, edges) -> ComplexArray:
    """problem_load of f and _edge_loads' pairs, taken once f is checked."""
    if f is None:
        load = np.zeros(grid.shape, dtype=np.complex128)
    else:
        load = np.array(f, dtype=np.complex128)
        if load.shape != grid.shape:
            raise ValueError(f"volume source shape {load.shape} != grid shape {grid.shape}")
        if not np.isfinite(load).all():
            raise ValueError("volume source has a non-finite value")
    for s, data in edges:
        load[_EDGES[s]] += data
    return load


def assemble_global(grid: Grid, kfield: WavenumberField, bc: BoundarySpec,
                    f=None) -> SparseSystem:
    """Assemble the monodomain Helmholtz system for the volume source f."""
    if kfield.values.shape != grid.shape:
        raise ValueError("wavenumber field does not match the grid")
    stencil = RectStencil(grid, kfield, {s: bc.kind(s) for s in SIDES})
    return SparseSystem(stencil, stencil.rhs(problem_load(grid, bc, f)))


def solve_direct(system: SparseSystem) -> ComplexArray:
    """Banded direct solve of the global system: the (nx+1, ny+1) field."""
    stencil = system.stencil
    lu = BandedLU(stencil.diagonals(), label="global system")
    return stencil.to_grid(lu.solve(system.rhs))
