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
node column i in rows i*nb .. i*nb + nb - 1, nb = ny + 1, which is also its
half-bandwidth.  A right datum d enters the last nb rows as S d, S the
diagonal of RectStencil.datum_scale, so the field it makes is X S d, X =
A^-1 [0; I], and a trace it sends is a linear map of three node columns of
that field: one nb x nb block.  BandedLU.tail_inverse(first) gives the
rows of X from node column first on, first the lowest node column a send
reads, and form_blocks turns the columns each send reads into the strip's
blocks.  On a strip that its column reversal P maps onto itself (P A P =
A exactly, checked once on the diagonals it is factored from) the field of
a left datum is P X S d: the left blocks come from X's columns at the
mirrored place, reversed.  respond answers data with no load by block
products, 0 solves, when each datum side it gets has a block: on a strip
numbered along y with an L D L^T factor, any data but a left datum on a
strip that is no mirror.  Any other response is one full solve: a load,
every strip numbered along x (the wedge's: its blocks would cost 2 nb
solves), and every strip whose factor swapped a row.

A strip with blocks on both data sides (keeps: a mirror strip numbered
along y, with an L D L^T factor and a neighbour on each side, as the
waveguide's and cavity's interior strips are) has first 0 and keeps all of
X: kept, the C-ordered (n, nb) array that BandedLU.tail_inverse(0) returns
and its blocks are formed from.  The field of data d_l, d_r and a load is
then v + X S_r d_r + P X S_l d_l, v the field of the load alone, so a
field costs a product with X instead of a strip solve once v is known.
Such a strip keeps a record of its last response to a load alone, as
source_traces makes: the columns of the load it reads, load[a:b+1], all
that v depends on, and v.  Responses to data leave the record alone, and
the next response to a load alone replaces it.  kept_field(load) returns v
when load's columns are bitwise the kept ones, and None otherwise;
reconstruct takes the field of each strip that returns one as v plus the
products with X, one zgemm per key over all its strips, beside the solves
of the other strips (substructure.py).  So a waveguide shot costs N strip
solves for its source traces and 2, on the edge strips, for its field,
where it cost 2N; the wedge keeps no X, and its shots cost 2N solves.
Keeping X costs about one factor's bytes more per key whose strips send
both ways (7,982,208 bytes on a waveguide-osds interior strip, whose
factor stores 8,084,736), and a build of all its panels instead of those
its sends read (82 instead of 79 there, 16.5 ms against 14.8 ms on one
BLAS thread).  An edge strip sends one trace a few columns in from its
datum, so its build stops there, at first: all of its X would cost 7.8 MB
and about 15 ms more set-up (16.3 ms against 1.1 ms) for one solve a shot,
so it stays out.
"""

from __future__ import annotations

import threading

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
    strip i-1's right interface (None past either end), and owned the
    global columns [lo, hi) the strip contributes to a reconstructed field.
    first is the lowest node column of X = A^-1 [0; I] its blocks are
    formed from, 0 if it keeps X (keeps; module docstring), and None if it
    has no blocks.

    lu is the strip's BandedLU, one object on all strips whose factors are
    built from equal inputs, and blocks, once formed, {side: (sends, nb, nb)
    array}, one object on strips whose blocks are built from equal inputs
    (substructure.py).  kept, on a strip that keeps, is X, the (n, nb)
    array its blocks are formed from, one object on strips of one key.
    Each strip counts its own work: factor_count (1), solve_count,
    block_count, the responses answered by block products, and kept_count,
    the fields kept_field returned.
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
        self.owned = (decomp.cuts[strip - 1], decomp.cuts[strip] + (strip == n))

        kinds = {s: bc.kind(s) for s in SIDES}
        if self.has_left:
            kinds["left"] = "robin"  # interface
        if self.has_right:
            kinds["right"] = "robin"
        self.stencil = RectStencil(grid, kfield, kinds, cols=self.span)
        diagonals = self.stencil.diagonals()
        try:
            self.lu = BandedLU(diagonals, label=f"strip {strip}")
        except ValueError as err:
            raise ValueError(f"strip {strip}: local factorization failed") from err
        self.xy = self.stencil.ny <= self.stencil.w
        self.mirror = self.xy and _column_reversal_invariant(diagonals, self.stencil.w + 1)
        # the data sides blocks answer: the right one, and the left one on a
        # mirror strip, whose field is the reversed field of right data
        self._sides = [side for side, has in (("left", self.has_left and self.mirror),
                                              ("right", self.has_right))
                       if has and self.xy and self.lu.ldlt]
        # a strip with blocks on both data sides keeps every node column of
        # X, from which reconstruct takes its field (module docstring)
        self.keeps = self._sides == ["left", "right"]
        # the lowest node column of X a send reads (_window)
        self.first = (None if not self._sides else 0 if self.keeps else
                      min(self._window(side, column) for side in self._sides
                          for column, _ in filter(None, self.sends)))
        self.blocks = self.kept = None
        # (load[a:b+1], its field) of the last response to a load alone, on
        # a strip that keeps X (module docstring)
        self._load_field = None
        self.factor_count = 1
        self.solve_count = self.block_count = self.kept_count = 0
        # the two sweeps of solve_oneway respond on the interior strips at once
        self._count_lock = threading.Lock()

    @property
    def bandwidth(self) -> int:
        return self.stencil.bandwidth

    def _window(self, side: str, column: int) -> int:
        """The first of the three node columns of X that the trace at the
        interface column reads for a datum on side: extract_trace reads c -
        1 .. c + 1 of the field, c = column - span[0], which is X on a
        right datum and X reversed, P X, on a left one."""
        c = column - self.span[0]
        return (c if side == "right" else self.stencil.w - c) - 1

    def form_blocks(self, x: ComplexArray) -> dict:
        """{side: (sends, nb, nb)} blocks, sends in order with None skipped:
        the traces this strip sends are blocks[side] @ datum.

        x is X = A^-1 [0; I] from node column first on, as
        BandedLU.tail_inverse(first) returns it.
        """
        h, nb = self.grid.h, self.stencil.ny + 1
        # node column first + i of X as a field indexed (unit datum, node)
        field_of = x.reshape(-1, nb, nb).transpose(0, 2, 1)
        blocks = {}
        for side in self._sides:
            # each unit datum's row of the right-hand side: S in X S d
            scale = self.stencil.datum_scale[0 if side == "left" else -1]
            out = []
            for column, normal in filter(None, self.sends):
                lo = self._window(side, column) - self.first
                # the field three columns wide, reversed for a left datum
                field = field_of[lo:lo + 3] if side == "right" else field_of[lo:lo + 3][::-1]
                trace = extract_trace(field, (column - 1, column + 1), column, normal,
                                      self.kfield, h)
                out.append((trace * scale[:, None]).T)
            blocks[side] = np.ascontiguousarray(np.stack(out))
        return blocks

    def _check(self, left, right) -> None:
        """ValueError unless each datum given fits an interface of the strip."""
        nb = self.stencil.ny + 1
        for side, data, has in (("left", left, self.has_left), ("right", right, self.has_right)):
            if data is None:
                continue
            if not has:
                raise ValueError(f"strip {self.strip} has no {side} interface")
            if np.shape(data) != (nb,):
                raise ValueError(f"strip {self.strip}: {side} datum of shape {np.shape(data)}, "
                                 f"not ({nb},)")

    def solve(self, left: ComplexArray | None = None,
              right: ComplexArray | None = None,
              load: ComplexArray | None = None) -> ComplexArray:
        """Solve the strip problem for interface data and a nodal load.

        left/right are trace data on the strip's interface columns (rejected
        if the strip has no such interface).  load is the whole grid's
        problem_load for solves of the true problem, of which the strip
        takes its own columns, and None for the homogeneous interface
        exchange.  Returns the (w+1, ny+1) nodal solution.  A datum not of
        shape (ny+1,) or a load not of the grid's shape is a ValueError
        naming the strip and the side.
        """
        self._check(left, right)
        if load is not None:
            if np.shape(load) != self.grid.shape:
                raise ValueError(f"strip {self.strip}: load of shape {np.shape(load)}, "
                                 f"not the grid's {self.grid.shape}")
            a, b = self.span
            load = load[a:b + 1]
        # a fresh array, which the solve overwrites
        x = self.lu.solve(self.stencil.rhs(load, left, right), overwrite_rhs=True)
        with self._count_lock:
            self.solve_count += 1
        return self.stencil.to_grid(x)

    def blocked(self, *sides: str) -> bool:
        """True if a response to data on these sides is a block product."""
        return self.blocks is not None and all(side in self.blocks for side in sides)

    def respond(self, left: ComplexArray | None = None,
                right: ComplexArray | None = None,
                load: ComplexArray | None = None):
        """The traces (to_right, to_left) this data sends; an edge strip
        sends one trace and None in place of the other.

        With no load, some data and a block for each datum side given, they
        are block products, which check no datum: one not of shape (ny+1,)
        fails in the product, or broadcasts.  Otherwise they are read off a
        full solve, whose field a strip that keeps X keeps for kept_field
        when the load comes alone.
        """
        blocks = self.blocks
        if (load is not None or blocks is None or (left is None and right is None)
                or (left is not None and "left" not in blocks)
                or (right is not None and "right" not in blocks)):
            v = self.solve(left, right, load)
            if self.kept is not None and load is not None and left is None and right is None:
                a, b = self.span
                self._load_field = (load[a:b + 1].copy(), v)
            return tuple(None if x is None else
                         extract_trace(v, self.span, *x, self.kfield, self.grid.h)
                         for x in self.sends)
        # bitwise the products' sum added onto zeros: a product holds no
        # -0.0 for a zero to turn into +0.0
        out = blocks["left"] @ left if left is not None else blocks["right"] @ right
        if left is not None and right is not None:
            out += blocks["right"] @ right
        with self._count_lock:
            self.block_count += 1
        if self.sends[1] is None:
            return out[0], None
        return (None, out[0]) if self.sends[0] is None else (out[0], out[1])

    def kept_field(self, load: ComplexArray) -> ComplexArray | None:
        """The field kept from the last response to a load alone, if load's
        columns are bitwise the ones it was kept for (counted in
        kept_count), else None."""
        record = self._load_field
        a, b = self.span
        if record is None or not np.array_equal(load[a:b + 1], record[0]):
            return None
        with self._count_lock:
            self.kept_count += 1
        return record[1]


def _column_reversal_invariant(d: dict, columns: int) -> bool:
    """P A P == A exactly, for P reversing the columns of an xy strip's
    diagonals d (RectStencil.diagonals): slot j of a diagonal goes to slot
    P j of itself (0, +-1) or its mirror (+-nb)."""
    nb = len(d[0]) // columns
    return all(np.array_equal(d[o], d[m].reshape(columns, nb)[::-1].ravel())
               for o, m in ((0, 0), (1, 1), (-1, -1), (nb, -nb)))
