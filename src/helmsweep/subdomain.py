"""Strip subproblems: factored local Helmholtz solves and trace extraction.

Each strip solves the Helmholtz problem restricted to its column range.  On
columns that touch the physical boundary it carries the grid's conditions;
on an interior vertical boundary (an interface) it carries the impedance
condition (d/dn + i*k) v = h with the strip's outward normal, realized with
the same ghost-eliminated centered-difference stencil as physical absorbing
edges.  That choice makes the interface data of the exact monodomain
solution reproduce that solution on the strip exactly (to solver roundoff),
because eliminating the ghost with the trace of the global solution recovers
the global interior row at the interface column.

A solve takes the interface data and, for the true problem, the whole
grid's problem_load, which already holds the volume source and the physical
Robin data; the strip reads its own columns, and the homogeneous exchange
passes no load.  LocalSolver.respond, the step every interface operator
repeats, solves and returns the traces the strip sends to its neighbours.

Traces are sampled on whole interface columns (ny+1 values, Dirichlet end
nodes included; their rows ignore the datum).  extract_trace evaluates the
outgoing impedance data of a field that lives on a strip containing the
interface column strictly inside it:

    left-normal  (-x):  (v[g-1] - v[g+1])/(2h) + i*k[g]*v[g]
    right-normal (+x):  (v[g+1] - v[g-1])/(2h) + i*k[g]*v[g]

A strip numbered along y (ny <= w, every waveguide and cavity strip) keeps
node column i in rows i*nb .. i*nb + nb - 1, nb = ny + 1.  A solve with no
load and a right datum alone then has a right-hand side that is zero above
row n - nb, and a caller that reads only the node columns from c on needs
only the rows from c*nb on: the solve asks BandedLU for just those (see
banded.py), bitwise the full solve on the columns read.  A left datum alone
takes the same path on a strip that its column reversal P maps onto itself
(P A P = A exactly, checked once on the diagonals it is factored from): the
reversed datum is a right datum, and the field is reversed back, which
moves it by roundoff.  Any other solve, the wedge's (numbered along x)
included, is a full one.
"""

from __future__ import annotations

import numpy as np

from .banded import BandedLU
from .grid import BoundarySpec, ComplexArray, Grid, RectStencil, SIDES, WavenumberField
from .strips import StripDecomposition


def extract_trace(field: ComplexArray, span: tuple[int, int], column: int,
                  side: str, kfield: WavenumberField, h: float) -> ComplexArray:
    """Outgoing impedance data at an interface column from a strip's field.

    field is the (w+1, ny+1) nodal solution on the strip spanning the node
    columns span = (a, b); column is the global interface column, which must
    lie strictly inside (a, b).  side names the boundary the data is for:
    'left' uses the -x normal, 'right' the +x normal.
    """
    a, b = span
    j = column - a
    if not (1 <= j <= b - a - 1):
        raise ValueError(f"interface column {column} not strictly inside span {span}")
    if side == "left":
        diff = (field[j - 1, :] - field[j + 1, :]) / (2.0 * h)
    elif side == "right":
        diff = (field[j + 1, :] - field[j - 1, :]) / (2.0 * h)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return diff + 1j * kfield.values[column, :] * field[j, :]


class LocalSolver:
    """Factored Helmholtz solve on one strip, and the traces it sends.

    The matrix is assembled and LU-factored once; solve() only rebuilds the
    right-hand side, so repeated applications reuse the factorization.  The
    strip's geometry is fixed here too: sends holds the (interface column,
    normal) of the trace for strip i+1's left interface and of the one for
    strip i-1's right interface (None past either end), window the local
    node columns those traces read, and owned the global columns [lo, hi)
    the strip contributes to a reconstructed field.
    """

    def __init__(self, grid: Grid, kfield: WavenumberField, bc: BoundarySpec,
                 decomp: StripDecomposition, strip: int):
        n = decomp.nstrips
        if not (1 <= strip <= n):
            raise ValueError(f"strip index {strip} out of range 1..{n}")
        self.strip = strip
        self.grid = grid
        self.kfield = kfield
        self.span = decomp.spans[strip - 1]
        self.has_left = strip >= 2
        self.has_right = strip <= n - 1
        self.sends = ((decomp.spans[strip][0], "left") if self.has_right else None,
                      (decomp.spans[strip - 2][1], "right") if self.has_left else None)
        # extract_trace reads an interface column and its two neighbours
        read = [column - self.span[0] for column, _ in filter(None, self.sends)]
        self.window = (min(read) - 1, max(read) + 1)
        self.owned = (decomp.cuts[strip - 1], decomp.cuts[strip] + (strip == n))

        kinds = {s: bc.kind(s) for s in SIDES}
        if self.has_left:
            kinds["left"] = "robin"  # interface
        if self.has_right:
            kinds["right"] = "robin"
        self.stencil = RectStencil(grid, kfield, kinds, cols=self.span)
        matrix = self.stencil.matrix()
        try:
            self._lu = BandedLU(matrix, self.stencil.bandwidth, self.stencil.bandwidth,
                                label=f"strip {strip}")
        except ValueError as err:
            raise ValueError(f"strip {strip}: local factorization failed") from err
        # a datum enters the first or the last nb rows only
        self.xy = self.stencil.ny <= self.stencil.w
        self.mirror = self.xy and _column_reversal_invariant(matrix, self.stencil.w + 1)

    @property
    def factor_count(self) -> int:
        return self._lu.factor_count

    @property
    def solve_count(self) -> int:
        return self._lu.solve_count

    @property
    def row_count(self) -> int:
        """Factor columns the solves swept, 2 n for a full solve."""
        return self._lu.row_count

    @property
    def lu_bytes(self) -> int:
        """Bytes of the LU factors and pivot indices this strip's solves
        read, whether or not another strip shares them."""
        return self._lu.nbytes

    @property
    def factor(self) -> ComplexArray:
        """The stored factor array, the same object on every strip that
        shares it."""
        return self._lu.factor

    def share(self, other: "LocalSolver") -> bool:
        """Solve with other's factor from now on, and drop this strip's, if
        the two are bitwise equal (BandedLU.share); True if so."""
        return self._lu.share(other._lu)

    @property
    def bandwidth(self) -> int:
        return self.stencil.bandwidth

    def solve(self, left: ComplexArray | None = None,
              right: ComplexArray | None = None,
              load: ComplexArray | None = None,
              columns: tuple[int, int] | None = None) -> ComplexArray:
        """Solve the strip problem for interface data and a nodal load.

        left/right are trace data on the strip's interface columns (rejected
        if the strip has no such interface).  load is the whole grid's
        problem_load for solves of the true problem, of which the strip
        takes its own columns, and None for the homogeneous interface
        exchange.  columns = (first, last) are the local node columns the
        caller will read, None for all; the other columns may hold NaN.
        Returns the (w+1, ny+1) nodal solution.  A datum not of shape
        (ny+1,) or a load not of the grid's shape is a ValueError naming
        the strip and the side.
        """
        nb = self.stencil.ny + 1
        for side, data, has in (("left", left, self.has_left), ("right", right, self.has_right)):
            if data is None:
                continue
            if not has:
                raise ValueError(f"strip {self.strip} has no {side} interface")
            if np.shape(data) != (nb,):
                raise ValueError(f"strip {self.strip}: {side} datum of shape {np.shape(data)}, "
                                 f"not ({nb},)")
        if load is not None:
            if np.shape(load) != self.grid.shape:
                raise ValueError(f"strip {self.strip}: load of shape {np.shape(load)}, "
                                 f"not the grid's {self.grid.shape}")
            a, b = self.span
            load = load[a:b + 1]
        # a fresh array, or its reversed copy, which the solve overwrites
        rhs = self.stencil.rhs(load, left, right)
        to_grid = self.stencil.to_grid
        one_sided = (left is None) != (right is None)
        head = keep = 0
        if columns is not None and load is None and self.xy and one_sided:
            if right is not None:
                head, keep = self.stencil.nloc - nb, columns[0] * nb
            elif self.mirror:
                flipped = to_grid(rhs)[::-1].ravel()
                x = self._lu.solve(flipped, self.stencil.nloc - nb,
                                   (self.stencil.w - columns[1]) * nb, overwrite_rhs=True)
                return to_grid(x)[::-1]
        return to_grid(self._lu.solve(rhs, head, keep, overwrite_rhs=True))

    def respond(self, left: ComplexArray | None = None,
                right: ComplexArray | None = None,
                load: ComplexArray | None = None):
        """Solve on this data; return the traces (to_right, to_left) it sends.

        The solve is told the window the traces read, so with one-sided
        data and no load it can skip the rest; an edge strip sends one
        trace and None in place of the other.
        """
        v = self.solve(left, right, load, self.window)
        return tuple(None if x is None else
                     extract_trace(v, self.span, *x, self.kfield, self.grid.h)
                     for x in self.sends)


def _column_reversal_invariant(matrix, columns: int) -> bool:
    """P A P == A exactly, for P reversing the columns of an xy strip's RectStencil.matrix:
    slot j of a diagonal goes to slot P j of itself (0, +-1) or its mirror (+-nb)."""
    d = dict(zip(matrix.offsets.tolist(), matrix.data))
    nb = matrix.shape[0] // columns
    return all(np.array_equal(d[o], d[m].reshape(columns, nb)[::-1].ravel())
               for o, m in ((0, 0), (1, 1), (-1, -1), (nb, -nb)))
