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

Strip work that does not depend on other strips runs concurrently, on
WORKERS threads, one per CPU the process may run on: the calling thread
and a pool of WORKERS - 1 (at least one).  The N strip constructions
(assembly and factorization) of SubstructuredSystem, the N solves of an
exchange (apply_exchange, source_traces, a full apply_interface_system) and
the N solves of reconstruct go through _map, where the calling thread and
the pool threads take the strips in turn from one counter, so the caller
works instead of waiting.  A pool of WORKERS threads beside the working
caller runs more threads than CPUs and made wedge-jacobi shots slower
(BENCH_23.json).  The two sweeps of
solve_oneway and the two edge solves of the record path run one on the
pool and one on the caller.  A strip releases the GIL in its band kernels,
zgbtrf included (see banded.py).  solve_double_sweep stays serial: its
backward sweep reads what the forward one wrote.  Each solve does the same
arithmetic and writes the same block as in a serial run, and each
factorization is the serial one, so every result is bitwise the same.  A
failure is raised once every strip of the call is done, the first in strip
order.

Every strip is still assembled and factored, but strips whose factors are
bitwise equal store one copy.  As each construction ends it compares its
factor, under a lock, with those the earlier ones kept, and on a match
reads that one and drops its own (BandedLU.share): on a homogeneous
waveguide the two edge strips share one factor and the interior strips
another, so a sweep reads one interior factor, not one per interior strip
(BENCH_25.json).  A heterogeneous
problem such as the wedge shares nothing.  Each strip keeps its own solve
counts.  The kept factors are a local of the constructor, so a system
dropped frees its factors, and two systems never share.  Factoring each
distinct matrix only once would save the duplicate factorizations too,
but the benchmark checks one factorization span per strip
(perfbench/tests/test_perfbench.py), so that waits for ROADMAP items 1
and 2.

Every operator is a pattern of LocalSolver.respond, which tells its strip
solve which node columns the outgoing traces read.  A solve with one-sided
data and no load, every sweep solve and the two edge solves of an exchange
or of the record path, then sweeps only part of the strip's factor (see
subdomain.py); source_traces and reconstruct carry a load and solve in full.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .grid import (BoundarySpec, ComplexArray, Grid, WavenumberField, _add_edge_loads,
                   _edge_loads)
from .strips import StripDecomposition
from .subdomain import LocalSolver

# the threads that run strips: the calling thread and the pool's
WORKERS = len(os.sched_getaffinity(0))


def _new_pool() -> None:
    global _pool
    # threads start on first use, not at import
    _pool = ThreadPoolExecutor(max_workers=max(1, WORKERS - 1),
                               thread_name_prefix="helmsweep-strip")


_new_pool()
# a forked child inherits the pool but none of its threads
os.register_at_fork(after_in_child=_new_pool)


def _map(fn, n: int) -> list:
    """[fn(0), ..., fn(n-1)], the strips taken in turn by this thread and
    up to WORKERS - 1 pool threads; the first failure in strip order is
    raised once every strip has ended."""
    results, errors = [None] * n, [None] * n
    # next() on a count is atomic under the GIL
    order = itertools.count()

    def take() -> None:
        while (s := next(order)) < n:
            try:
                results[s] = fn(s)
            except BaseException as err:  # raised below, as a future would
                errors[s] = err

    helpers = [_pool.submit(take) for _ in range(min(n, WORKERS) - 1)]
    take()
    # a helper that has not started would find no strip left
    for f in helpers:
        f.cancel()
    wait(helpers)
    for err in errors:
        if err is not None:
            raise err
    return results


@dataclass
class TraceVector:
    """Stacked interface data: the flat array data, on which the solvers do
    their vector arithmetic, and its block view.

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


class SubstructuredSystem:
    """Factored strips plus the interface operators built on them.

    Every operator is a pattern of solvers[s].respond, the traces strip s
    sends to its neighbors; reconstruct keeps the fields.  Strips are
    indexed from 0 here: strip s reads its data from blocks[0, s-1] and
    blocks[1, s], and sends to blocks[0, s] and blocks[1, s-1].
    """

    def __init__(self, grid: Grid, kfield: WavenumberField, bc: BoundarySpec,
                 decomp: StripDecomposition):
        if decomp.nstrips < 2:
            raise ValueError("need at least 2 strips")
        if decomp.cuts[-1] != grid.nx:
            raise ValueError(f"decomposition covers {decomp.cuts[-1]} cells, grid has {grid.nx}")
        if kfield.values.shape != grid.shape:
            raise ValueError("wavenumber field does not match the grid")
        self.grid = grid
        self.kfield = kfield
        self.bc = bc
        # the Robin edges' share of problem_load, evaluated once
        self._edges = list(_edge_loads(grid, bc))
        self.decomp = decomp
        self.nstrips = decomp.nstrips
        # the strips that keep their own factor; a later strip with a bitwise
        # equal one reads theirs and drops its own copy
        kept, lock = [], threading.Lock()

        def build(s):
            sv = LocalSolver(grid, kfield, bc, decomp, s + 1)
            with lock:
                if not any(sv.share(other) for other in kept):
                    kept.append(sv)
            return sv

        self.solvers = _map(build, decomp.nstrips)
        self.layout = (2, decomp.nstrips - 1, grid.ny + 1)
        # (r, y, partial R y) of the last solve_oneway, for one
        # apply_interface_system on y
        self._sweep = None

    def _data(self, t, s: int):
        """Strip s's (left, right) data in the block view t."""
        return (t[0, s - 1] if s > 0 else None,
                t[1, s] if s < self.nstrips - 1 else None)

    def _exchange(self, t=None, load=None) -> TraceVector:
        """Every strip responds once to its data in t (none if t is None)."""
        self._sweep = None
        out = TraceVector.zeros(self.layout)
        o = out.blocks

        def respond(s):
            left, right = (None, None) if t is None else self._data(t, s)
            return self.solvers[s].respond(left, right, load)

        for s, (to_right, to_left) in enumerate(_map(respond, self.nstrips)):
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
            return TraceVector(self.layout, h.data - self.apply_exchange(h).data)
        r, y, ry = sweep
        n = self.nstrips
        t, o = y.reshape(self.layout), ry.blocks
        last = _pool.submit(self.solvers[n - 1].respond, left=t[0, n - 2])
        try:
            o[0, 0] = self.solvers[0].respond(right=t[1, 0])[0]
        finally:
            o[1, n - 2] = last.result()[1]
        return TraceVector(self.layout, r - ry.data)

    def source_traces(self, f=None) -> TraceVector:
        """Right-hand side G: outgoing traces of the true local sources."""
        return self._exchange(load=_add_edge_loads(self.grid, f, self._edges))

    def _forward(self, o, a) -> None:
        """Forward substitution sweep, in place on block views o and a.

        Replaces o's left blocks by the solution x of (Id - M_l) x = o_l and
        puts into a's right blocks the reflections A_r x the sweep produced
        on the way (all but the last strip's).  Touches no other block.
        """
        for s in range(1, self.nstrips - 1):
            to_right, a[1, s - 1] = self.solvers[s].respond(left=o[0, s - 1])
            o[0, s] += to_right

    def _start(self, r: TraceVector) -> tuple[TraceVector, TraceVector]:
        """A copy of r and zero reflections, for the sweeps to fill in."""
        self._sweep = None
        return (TraceVector(self.layout, np.array(r.data, dtype=np.complex128)),
                TraceVector.zeros(self.layout))

    def solve_oneway(self, r: TraceVector) -> TraceVector:
        """Invert Id - (M_l + M_r) by two independent substitution sweeps.

        The forward sweep (left blocks) runs on the strip pool while this
        thread runs the backward sweep (right blocks).  The reflections R y
        the sweeps produce on the way are kept for the next
        apply_interface_system (see the module docstring).
        """
        out, reflected = self._start(r)
        o, a = out.blocks, reflected.blocks
        forward = _pool.submit(self._forward, o, a)
        try:
            for s in range(self.nstrips - 2, 0, -1):
                a[0, s], to_left = self.solvers[s].respond(right=o[1, s])
                o[1, s - 1] += to_left
        finally:
            forward.result()
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
        out, reflected = self._start(r)
        o = out.blocks
        self._forward(o, reflected.blocks)
        for s in range(n - 1, -1, -1):
            to_right, to_left = self.solvers[s].respond(*self._data(o, s))
            if s > 0:
                o[1, s - 1] += to_left
            if s < n - 1:
                o[0, s] = rl[s] + to_right
        return out

    def reconstruct(self, h: TraceVector, f=None) -> ComplexArray:
        """Assemble the volume solution from converged traces.

        Each strip solves with its trace data and the true sources; the
        global field takes each strip's values on its owned cut columns.
        """
        self._sweep = None
        load = _add_edge_loads(self.grid, f, self._edges)
        u = np.zeros(self.grid.shape, dtype=np.complex128)
        t = h.blocks

        def fill(s):
            sv = self.solvers[s]
            lo, hi = sv.owned
            a = sv.span[0]
            u[lo:hi, :] = sv.solve(*self._data(t, s), load)[lo - a:hi - a, :]

        _map(fill, self.nstrips)
        return u
