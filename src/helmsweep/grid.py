"""Uniform-grid finite differences for the 2D Helmholtz equation.

Conventions, relied on by every module downstream:

- Domain [x0, x1] x [y0, y1] with square cells of side h: nx cells in x, ny
  cells in y, nodes (ix, iy) for 0 <= ix <= nx, 0 <= iy <= ny located at
  (x0 + ix*h, y0 + iy*h).
- Flat node index n = ix*(ny+1) + iy (column-major, y fastest), so the
  assembled matrix has bandwidth ny+1.
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
- Dirichlet rows are identity rows with zero right-hand side, and couplings
  into Dirichlet nodes are dropped (their value is 0), preserving symmetry.
  A corner shared by a Dirichlet edge and an absorbing edge is Dirichlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import csr_matrix

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

    def index(self, ix: int, iy: int) -> int:
        return ix * (self.ny + 1) + iy


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

    def velocity(self, x: float, y: float) -> float:
        return 1.0


@dataclass(frozen=True)
class WedgeModel:
    """Three-layer velocity model split by two straight interface lines.

    Lines are given as endpoint pairs ((xa, ya), (xb, yb)) and evaluated by
    linear interpolation in x.  A point exactly on a line takes the region
    above it.  Velocities are ordered top, middle, bottom.
    """

    upper: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 800.0), (600.0, 600.0))
    lower: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 500.0), (600.0, 300.0))
    velocities: tuple[float, float, float] = (2000.0, 1500.0, 3000.0)

    def __post_init__(self):
        for line in (self.upper, self.lower):
            if line[0][0] == line[1][0]:
                raise ValueError("interface lines must span in x")
        if any(v <= 0 for v in self.velocities):
            raise ValueError("velocities must be positive")

    @staticmethod
    def _line_y(line, x):
        (xa, ya), (xb, yb) = line
        return ya + (yb - ya) * (x - xa) / (xb - xa)

    def velocity(self, x: float, y: float) -> float:
        if y >= self._line_y(self.upper, x):
            return self.velocities[0]
        if y >= self._line_y(self.lower, x):
            return self.velocities[1]
        return self.velocities[2]

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
    omega: float

    def __post_init__(self):
        v = np.asarray(self.values)
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("wavenumber values must be finite and positive")

    @property
    def k_max(self) -> float:
        return float(self.values.max())


def build_wavenumber(grid: Grid, model, omega: float | None = None) -> WavenumberField:
    """Sample a velocity model onto the grid nodes as k = omega/c."""
    if isinstance(model, HomogeneousModel):
        if omega is None:
            omega = model.k
        values = np.full(grid.shape, float(model.k))
        return WavenumberField(values, float(omega))
    if isinstance(model, WedgeModel):
        if omega is None:
            raise ValueError("wedge model needs omega")
        values = omega / model.velocity_grid(grid.xs(), grid.ys())
        return WavenumberField(values, float(omega))
    raise ValueError(f"unknown velocity model {model!r}")


@dataclass(frozen=True)
class EdgeCondition:
    """One edge's boundary condition: 'dirichlet' (u = 0) or 'robin'.

    Robin data may be None (homogeneous), a callable g(x, y), or a nodal
    array along the edge.
    """

    kind: str
    data: object = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown edge condition kind {self.kind!r}")
        if self.kind == "dirichlet" and self.data is not None:
            raise ValueError("only homogeneous Dirichlet edges are supported")


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

    def edge_values(self, grid: Grid, side: str) -> ComplexArray:
        """Evaluate a Robin edge's data at that edge's nodes."""
        cond = getattr(self, side)
        if cond.kind != "robin":
            raise ValueError(f"{side} edge is not a Robin edge")
        if side in ("left", "right"):
            coords = grid.ys()
            fixed = grid.x0 if side == "left" else grid.x1
            pts = [(fixed, c) for c in coords]
        else:
            coords = grid.xs()
            fixed = grid.y0 if side == "bottom" else grid.y1
            pts = [(c, fixed) for c in coords]
        if cond.data is None:
            return np.zeros(len(pts), dtype=np.complex128)
        if callable(cond.data):
            return np.array([cond.data(x, y) for (x, y) in pts], dtype=np.complex128)
        arr = np.asarray(cond.data, dtype=np.complex128)
        if arr.shape != (len(pts),):
            raise ValueError(f"{side} edge data has shape {arr.shape}, expected ({len(pts)},)")
        return arr


class RectStencil:
    """Helmholtz operator on the grid columns a..b with per-side conditions.

    side_kinds maps each of 'left', 'right', 'bottom', 'top' to 'dirichlet'
    or 'robin'.  Robin sides contribute the ghost-eliminated impedance rows;
    their data enters only the right-hand side (built per solve), so one
    matrix serves any number of data sets.  Used both for the global system
    (physical conditions on all four sides) and for strip subproblems, where
    an interior vertical side is an interface carrying trace data.

    Node ordering is 'xy' (column-major, bandwidth ny+1) or 'yx' (row-major,
    bandwidth w+1); default picks the smaller bandwidth.
    """

    def __init__(self, grid: Grid, kfield: WavenumberField,
                 side_kinds: dict[str, str], cols: tuple[int, int] | None = None,
                 order: str | None = None):
        a, b = cols if cols is not None else (0, grid.nx)
        if not (0 <= a < b <= grid.nx):
            raise ValueError(f"bad column range [{a}, {b}]")
        self.grid = grid
        self.cols = (a, b)
        self.w = b - a
        self.ny = grid.ny
        self.nloc = (self.w + 1) * (self.ny + 1)
        if order is None:
            order = "xy" if self.ny <= self.w else "yx"
        if order not in ("xy", "yx"):
            raise ValueError(f"unknown ordering {order!r}")
        self.order = order
        self.bandwidth = (self.ny + 1) if order == "xy" else (self.w + 1)
        self.side_kinds = dict(side_kinds)
        for s in SIDES:
            if self.side_kinds.get(s) not in ("dirichlet", "robin"):
                raise ValueError(f"side {s} needs a condition")
        self._assemble(kfield)

    # flat index of local node (jx, iy)
    def _flat(self, jx, iy):
        if self.order == "xy":
            return jx * (self.ny + 1) + iy
        return iy * (self.w + 1) + jx

    def to_grid(self, x: ComplexArray) -> ComplexArray:
        """Reshape a flat vector to a (w+1, ny+1) nodal array."""
        if self.order == "xy":
            return x.reshape(self.w + 1, self.ny + 1)
        return x.reshape(self.ny + 1, self.w + 1).T

    def from_grid(self, f: ComplexArray) -> ComplexArray:
        if self.order == "xy":
            return np.ascontiguousarray(f).ravel()
        return np.ascontiguousarray(f.T).ravel()

    def _node_sides(self, jx, iy):
        sides = []
        if jx == 0:
            sides.append("left")
        if jx == self.w:
            sides.append("right")
        if iy == 0:
            sides.append("bottom")
        if iy == self.ny:
            sides.append("top")
        return sides

    def _assemble(self, kfield: WavenumberField):
        a, _ = self.cols
        w, ny, h = self.w, self.ny, self.grid.h
        kv = kfield.values[a:a + w + 1, :]

        dir_mask = np.zeros((w + 1, ny + 1), dtype=bool)
        for jx in range(w + 1):
            for iy in range(ny + 1):
                if any(self.side_kinds[s] == "dirichlet" for s in self._node_sides(jx, iy)):
                    dir_mask[jx, iy] = True
        self.dirichlet_mask = dir_mask

        rows, cols, vals = [], [], []
        row_scale = np.zeros(self.nloc)
        side_weight = {
            "left": np.zeros(ny + 1), "right": np.zeros(ny + 1),
            "bottom": np.zeros(w + 1), "top": np.zeros(w + 1),
        }
        inward = {"left": (1, 0), "right": (-1, 0), "bottom": (0, 1), "top": (0, -1)}

        for jx in range(w + 1):
            for iy in range(ny + 1):
                n = self._flat(jx, iy)
                if dir_mask[jx, iy]:
                    rows.append(n); cols.append(n); vals.append(1.0 + 0.0j)
                    continue
                k = kv[jx, iy]
                ghosts = self._node_sides(jx, iy)  # all Robin here
                scale = 0.5 ** len(ghosts)
                diag = 4.0 / h**2 - k**2
                coeffs: dict[int, complex] = {}

                def couple(tx, ty, c):
                    if dir_mask[tx, ty]:
                        return  # value is 0, drop the coupling
                    m = self._flat(tx, ty)
                    coeffs[m] = coeffs.get(m, 0.0) + c

                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    tx, ty = jx + dx, iy + dy
                    if 0 <= tx <= w and 0 <= ty <= ny:
                        couple(tx, ty, -1.0 / h**2)
                for s in ghosts:
                    dx, dy = inward[s]
                    couple(jx + dx, iy + dy, -1.0 / h**2)
                    diag += 2j * k / h
                    pos = iy if s in ("left", "right") else jx
                    side_weight[s][pos] += scale * (2.0 / h)

                rows.append(n); cols.append(n); vals.append(scale * diag)
                for m, c in coeffs.items():
                    rows.append(n); cols.append(m); vals.append(scale * c)
                row_scale[n] = scale

        self.matrix = csr_matrix(
            (np.array(vals, dtype=np.complex128), (rows, cols)),
            shape=(self.nloc, self.nloc),
        )
        self.row_scale = row_scale
        self.side_weight = side_weight

    def rhs(self, f: ComplexArray | None = None,
            side_data: dict[str, ComplexArray] | None = None) -> ComplexArray:
        """Assemble the right-hand side for a volume source and side data.

        f is a (w+1, ny+1) nodal array (or None); side_data maps side names
        to nodal data arrays along that side (missing sides are homogeneous).
        """
        out = np.zeros((self.w + 1, self.ny + 1), dtype=np.complex128)
        if f is not None:
            out += self.to_grid(self.row_scale) * np.asarray(f, dtype=np.complex128)
        edges = {"left": out[0, :], "right": out[-1, :],
                 "bottom": out[:, 0], "top": out[:, -1]}
        for side, data in (side_data or {}).items():
            if data is not None:
                edges[side] += self.side_weight[side] * np.asarray(data, dtype=np.complex128)
        return self.from_grid(out)


@dataclass
class SparseSystem:
    """Assembled global system: dimension, sparse matrix, right-hand side."""

    n: int
    matrix: csr_matrix
    rhs: ComplexArray
    grid: Grid = field(repr=False, default=None)
    bandwidth: int = 0


def _volume_source(grid: Grid, f) -> ComplexArray | None:
    if f is None:
        return None
    if callable(f):
        xs, ys = grid.xs(), grid.ys()
        return np.array([[f(x, y) for y in ys] for x in xs], dtype=np.complex128)
    arr = np.asarray(f, dtype=np.complex128)
    if arr.shape != grid.shape:
        raise ValueError(f"volume source shape {arr.shape} != grid shape {grid.shape}")
    return arr


def assemble_global(grid: Grid, kfield: WavenumberField, bc: BoundarySpec,
                    f=None) -> SparseSystem:
    """Assemble the monodomain Helmholtz system in column-major ordering."""
    if kfield.values.shape != grid.shape:
        raise ValueError("wavenumber field does not match the grid")
    kinds = {s: bc.kind(s) for s in SIDES}
    stencil = RectStencil(grid, kfield, kinds, cols=(0, grid.nx), order="xy")
    side_data = {s: bc.edge_values(grid, s) for s in SIDES if kinds[s] == "robin"}
    rhs = stencil.rhs(_volume_source(grid, f), side_data)
    return SparseSystem(n=stencil.nloc, matrix=stencil.matrix, rhs=rhs,
                        grid=grid, bandwidth=stencil.bandwidth)


def solve_direct(system: SparseSystem) -> ComplexArray:
    """Banded direct solve of the assembled global system."""
    kl = ku = system.bandwidth
    lu = BandedLU(system.matrix, kl, ku, label="global system")
    return lu.solve(system.rhs)
