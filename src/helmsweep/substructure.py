"""Substructured interface system and its sweeping preconditioners.

The volume problem is reduced to the impedance traces h_{i,l}, h_{i,r} that
each strip receives on its interface columns.  With S_i the factored strip
solve and B the trace extraction, the exchange operator

    T(h)_{i+1,l} = B_{i+1,l}(S_i(h_{i,l}, h_{i,r}, 0))
    T(h)_{i-1,r} = B_{i-1,r}(S_i(h_{i,l}, h_{i,r}, 0))

moves outgoing data to the neighbors, and the volume solution solves the
fixed point (Id - T) h = G with G the traces of the true sources.  Trace
vectors stack the 2(N-1) interface blocks in the order

    (h_{2,l}, ..., h_{N,l}, h_{1,r}, ..., h_{N-1,r}),

each of length ny+1, which reshapes to a (2, N-1, ny+1) array of left
and right data.  In that basis T splits into four parts: M_l (left
data moving right), M_r (right data moving left), and the reflection parts
A_r, A_l (left data bouncing back rightward as right data and vice versa).
The one-way part M_l + M_r is nilpotent (left data only ever moves to
higher strips, right data to lower), so Id - (M_l + M_r) is inverted
exactly by two independent substitution sweeps; that inverse is one of the
preconditioners here, the other is the forward/backward double sweep that
also carries reflections backward.

With M = M_l + M_r and R = A_l + A_r, T = M + R gives

    (Id - T)(Id - M)^{-1} = Id - R (Id - M)^{-1},

so the one-way-preconditioned operator needs R y for y = (Id - M)^{-1} r.
Every sweep solve of an interior strip has one-sided data and sends its
other outgoing trace across as a reflection, so the sweep leaves R y short
of two entries; the two edge solves (the last strip on its left datum, the
first on its right) finish it.  solve_oneway keeps (r, y, partial R y), and
the next apply_interface_system, if handed y, returns r - R y: 2N-2 strip
solves per preconditioned product instead of 3N-4.  The record is used at
most once; any other operator call drops it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BoundarySpec, ComplexArray, Grid, WavenumberField
from .strips import StripDecomposition
from .subdomain import LocalSolver


@dataclass
class TraceVector:
    """Stacked interface data with Euclidean vector-space operations.

    layout is the (2, N-1, ny+1) block shape of SubstructuredSystem.layout.
    """

    layout: tuple[int, int, int]
    data: ComplexArray

    @classmethod
    def zeros(cls, layout: tuple[int, int, int]) -> "TraceVector":
        return cls(layout, np.zeros(layout, dtype=np.complex128).ravel())

    @property
    def blocks(self) -> ComplexArray:
        """data as a (2, N-1, ny+1) view: [0, i-2] is strip i's left datum,
        [1, i-1] its right datum."""
        return self.data.reshape(self.layout)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __add__(self, other: "TraceVector") -> "TraceVector":
        return TraceVector(self.layout, self.data + other.data)

    def __sub__(self, other: "TraceVector") -> "TraceVector":
        return TraceVector(self.layout, self.data - other.data)

    def __rmul__(self, a) -> "TraceVector":
        return TraceVector(self.layout, a * self.data)


class SubstructuredSystem:
    """Factored strips plus the interface operators built on them.

    Every operator is a pattern of strip solves: _respond returns the traces
    a solve sends to the neighbors, _solve (for reconstruct) the field.
    Strips are indexed from 0 here: strip s reads its data from
    blocks[0, s-1] and blocks[1, s], and sends to blocks[0, s] and
    blocks[1, s-1].
    """

    def __init__(self, grid: Grid, kfield: WavenumberField, bc: BoundarySpec,
                 decomp: StripDecomposition):
        if decomp.nstrips < 2:
            raise ValueError("need at least 2 strips")
        self.grid = grid
        self.kfield = kfield
        self.bc = bc
        self.decomp = decomp
        self.nstrips = decomp.nstrips
        self.solvers = [LocalSolver(grid, kfield, bc, decomp, i)
                        for i in range(1, decomp.nstrips + 1)]
        self.layout = (2, decomp.nstrips - 1, grid.ny + 1)
        # (r, y, partial R y) of the last solve_oneway, for one
        # apply_interface_system on y
        self._sweep = None

    def _solve(self, s: int, left=None, right=None, f=None,
               with_bc_data: bool = False) -> ComplexArray:
        """Field of strip s on its data; f is a whole-grid source, restricted here."""
        sv = self.solvers[s]
        if f is not None:
            a, b = sv.span
            f = np.asarray(f, dtype=np.complex128)[a:b + 1, :]
        return sv.solve(left=left, right=right, f=f, with_bc_data=with_bc_data)

    def _respond(self, s: int, left=None, right=None, f=None,
                 with_bc_data: bool = False):
        """Solve strip s on its data; return (to_right, to_left).

        to_right is the trace strip s sends to strip s+1's left interface,
        to_left the one it sends to strip s-1's right interface; None past
        either end.
        """
        sv = self.solvers[s]
        v = self._solve(s, left, right, f, with_bc_data)
        to_right = to_left = None
        if s < self.nstrips - 1:
            to_right = sv.trace_from(v, self.decomp.left_interface(s + 2), "left")
        if s > 0:
            to_left = sv.trace_from(v, self.decomp.right_interface(s), "right")
        return to_right, to_left

    def _data(self, t, s: int):
        """Strip s's (left, right) data in the block view t."""
        return (t[0, s - 1] if s > 0 else None,
                t[1, s] if s < self.nstrips - 1 else None)

    def _exchange(self, t=None, f=None, with_bc_data: bool = False) -> TraceVector:
        """Every strip responds once to its data in t (none if t is None)."""
        self._sweep = None
        out = TraceVector.zeros(self.layout)
        o = out.blocks
        for s in range(self.nstrips):
            left, right = (None, None) if t is None else self._data(t, s)
            to_right, to_left = self._respond(s, left, right, f, with_bc_data)
            if to_right is not None:
                o[0, s] = to_right
            if to_left is not None:
                o[1, s - 1] = to_left
        return out

    def apply_exchange(self, h: TraceVector) -> TraceVector:
        """Full exchange T: one strip solve each, both outgoing traces."""
        return self._exchange(h.blocks)

    def apply_interface_system(self, h: TraceVector) -> TraceVector:
        """(Id - T) h, the substructured system operator.

        If h equals the output y of the last solve_oneway(r), and no other
        operator ran since, this is r - R y from the sweep's record plus the
        two edge solves; otherwise h - T h with a full exchange.
        """
        sweep, self._sweep = self._sweep, None
        if sweep is None or not np.array_equal(h.data, sweep[1]):
            return h - self.apply_exchange(h)
        r, y, ry = sweep
        n = self.nstrips
        t, o = y.reshape(self.layout), ry.blocks
        o[1, n - 2] = self._respond(n - 1, left=t[0, n - 2])[1]
        o[0, 0] = self._respond(0, right=t[1, 0])[0]
        return TraceVector(self.layout, r - ry.data)

    def source_traces(self, f=None) -> TraceVector:
        """Right-hand side G: outgoing traces of the true local sources."""
        return self._exchange(f=f, with_bc_data=True)

    def _forward(self, r: TraceVector) -> tuple[TraceVector, TraceVector]:
        """r with its left blocks replaced by the solution x of
        (Id - M_l) x = r_l, and the reflections A_r x the sweep produced on
        the way (all but the last strip's)."""
        self._sweep = None
        out = TraceVector(self.layout, np.array(r.data, dtype=np.complex128))
        reflected = TraceVector.zeros(self.layout)
        o, a = out.blocks, reflected.blocks
        for s in range(1, self.nstrips - 1):
            to_right, a[1, s - 1] = self._respond(s, left=o[0, s - 1])
            o[0, s] += to_right
        return out, reflected

    def solve_oneway(self, r: TraceVector) -> TraceVector:
        """Invert Id - (M_l + M_r) by two independent substitution sweeps.

        The reflections R y the sweeps produce on the way are kept for the
        next apply_interface_system (see the module docstring).
        """
        out, reflected = self._forward(r)
        o, a = out.blocks, reflected.blocks
        for s in range(self.nstrips - 2, 0, -1):
            a[0, s], to_left = self._respond(s, right=o[1, s])
            o[1, s - 1] += to_left
        self._sweep = (np.array(r.data, dtype=np.complex128), out.data.copy(),
                       reflected)
        return out

    def solve_double_sweep(self, r: TraceVector) -> TraceVector:
        """Forward sweep on left data, then a backward sweep carrying both.

        Solves the block-triangular cascade
            (Id - M_l) h_half = r_l
            (Id - M_r) h_r = A_r h_half + r_r
            h_l = M_l h_half + A_l h_r + r_l
        with one strip solve per sweep step; the backward loop runs down to
        strip 1, whose solve feeds the reflection term of h_{2,l}.  The
        backward step at strip s still reads h_half from the left block it
        has not yet overwritten.
        """
        n = self.nstrips
        rl = r.blocks[0]
        out, _ = self._forward(r)
        o = out.blocks
        for s in range(n - 1, -1, -1):
            to_right, to_left = self._respond(s, *self._data(o, s))
            if s > 0:
                o[1, s - 1] += to_left
            if s < n - 1:
                o[0, s] = rl[s] + to_right
        return out

    def fixed_point(self, g: TraceVector, method: str = "jacobi",
                    tol: float = 1e-6, maxit: int = 1000):
        """Stationary iteration diagnostic; returns (h, history, converged).

        jacobi: h <- T h + g.  osds: h <- h - solve_oneway((Id - T) h - g),
        which equals solve_oneway((T - oneway) h + g): the one-way part is
        inverted exactly every step.  history[j] is the relative residual
        ||(Id - T) h_j - g|| / ||g|| of iterate j.
        """
        if method not in ("jacobi", "osds"):
            raise ValueError(f"unknown fixed-point method {method!r}")
        self._sweep = None
        gnorm = g.norm()
        h = TraceVector.zeros(self.layout)
        if gnorm == 0.0:
            return h, [0.0], True
        history = []
        converged = False
        for it in range(maxit + 1):
            t = self.apply_exchange(h)
            residual = h - t - g
            history.append(residual.norm() / gnorm)
            if history[-1] <= tol:
                converged = True
                break
            if it < maxit:
                h = t + g if method == "jacobi" else h - self.solve_oneway(residual)
        return h, history, converged

    def reconstruct(self, h: TraceVector, f=None) -> ComplexArray:
        """Assemble the volume solution from converged traces.

        Each strip solves with its trace data and the true sources; the
        global field takes each strip's values on its owned cut columns.
        """
        self._sweep = None
        u = np.zeros(self.grid.shape, dtype=np.complex128)
        t = h.blocks
        for s, sv in enumerate(self.solvers):
            v = self._solve(s, *self._data(t, s), f, with_bc_data=True)
            lo, hi = self.decomp.owned_columns(s + 1)
            a = sv.span[0]
            u[lo:hi, :] = v[lo - a:hi - a, :]
        return u
