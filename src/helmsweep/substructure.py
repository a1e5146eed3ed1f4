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
Every sweep response of an interior strip has one-sided data and sends its
other outgoing trace across as a reflection, so the sweep leaves R y short
of two entries; the two edge responses (the last strip on its left datum,
the first on its right) finish it.  solve_oneway keeps (r, y, partial R
y), and the next apply_interface_system, if handed y, returns r - R y:
2N-2 strip responses per preconditioned product instead of 3N-4.  The
record is used at most once; any other operator call drops it.

A response with no load is a block product on a strip numbered along y
whose factor is L D L^T, for every datum side but the left one of a strip
that is no mirror (subdomain.py), and one strip solve otherwise.  So on
the waveguide a GMRES iteration costs 0 strip solves, with jacobi, ds or
osds.  On the wedge, whose strips are numbered along x, it costs N with
jacobi, 2N-2 with osds and 3N-2 with ds.

source_traces keeps a second record, (load, fields): its load and the
field of that load on each strip that keeps its columns of A^-1 [0; I]
(LocalSolver.keeps).  Operator calls leave it alone, and the next
source_traces replaces it.  reconstruct on a load bitwise equal to the
kept one takes each such strip's field as the kept field plus products
with the kept columns, one zgemm per key over all its strips, beside the
solves of the other strips; on any other load every strip solves.  So a
waveguide shot costs N strip solves for its source traces and 2, on the
edge strips, for its field, where it cost 2N.  The wedge keeps no
columns, and its shots cost 2N solves as before.

Strip work that does not depend on other strips runs concurrently, on
WORKERS threads, one per CPU the process may run on: the calling thread
and a pool of WORKERS - 1 (at least one).  The N strip constructions
(assembly and factorization) of SubstructuredSystem, the N responses of an
exchange (apply_exchange, source_traces, a full apply_interface_system) and
the solves and products of reconstruct go through _map, where the calling
thread and the pool threads take the strips in turn from one counter, so
the caller works instead of waiting.  A pool of WORKERS threads beside
the working caller runs more threads than CPUs and made wedge-jacobi shots
slower (BENCH_23.json).  The two sweeps of solve_oneway and the two edge responses
of the record path go through _map too, as two tasks, the forward sweep
and strip 1's response first.  These, and an exchange with no load, run on
the calling thread instead when each of their responses is a block
product, since a hand-off to the pool costs more than they do
(BENCH_30.json).  A strip releases the GIL in its band kernels, zgbtrf
included (see banded.py).  solve_double_sweep stays serial: its backward
sweep reads what the forward one wrote.  Each solve does the same
arithmetic and writes the same block as in a serial run, and each
factorization is the serial one, so every result is bitwise the same.  A
failure is raised once every strip of the call is done, the first in strip
order.

Strips built from equal inputs share what is built from them, decided by
the stencil's key (RectStencil.key: every input its matrix is assembled
from) as each construction ends.  Every strip is still assembled and
factored, but one whose key was seen solves with that strip's BandedLU and
drops its own: on a homogeneous waveguide the two edge strips share one
factor and the interior strips another, so their solves read one interior
factor, not one per interior strip (BENCH_25.json).  A heterogeneous
problem such as the wedge shares nothing.  Each strip counts its own
solves (LocalSolver).  The shared factors are a local of the constructor,
so a system dropped frees its factors, and two systems never share.
Factoring each distinct matrix only once would save the duplicate
factorizations too, but the benchmark checks one factorization span per
strip (perfbench/tests/test_perfbench.py): that is ROADMAP item 1.

A strip's blocks are formed from a few node columns of its factor's
A^-1, or all of them on a strip that keeps them, built by
BandedLU.tail_inverse once per (key, columns): the waveguide's edge strips
share one build and its interior strips another, whose columns they keep
as one array.
Each build is queued, as its factor is kept, behind the N constructions of
the same _map, so a thread that has no strip left to factor builds while
the other factors the last one.  Blocks are formed once per (key,
columns, sends relative to the strip), and strips with equal ones share
that block set.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .banded import _ints, _zgemm
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


def _map(fn, n: int, queue: list | None = None) -> list:
    """[fn(0), ..., fn(n-1)], the strips taken in turn by this thread and
    up to WORKERS - 1 pool threads.  fn may append callables of no
    argument to queue; they are taken after the last strip, from the same
    hand-out, and their results dropped.  The first failure, in strip
    order and then in queue order, is raised once every call has ended."""
    queue = [] if queue is None else queue
    results, errors = [None] * n, {}
    taken, lock = [0], threading.Lock()

    def take() -> None:
        while True:
            # a call appended after this check is taken by the thread that
            # appended it, which checks again when its call ends
            with lock:
                s = taken[0]
                if s >= n + len(queue):
                    return
                taken[0] += 1
            try:
                if s < n:
                    results[s] = fn(s)
                else:
                    queue[s - n]()
            except BaseException as err:  # raised below, as a future would
                errors[s] = err

    helpers = [_pool.submit(take) for _ in range(min(n, WORKERS) - 1)]
    take()
    # a helper not yet started would find no strip left; result() returns sooner than wait()
    for f in helpers:
        if not f.cancel():
            f.result()
    if errors:
        raise errors[min(errors)]
    return results


def _each(fn, n: int) -> list:
    """[fn(0), ..., fn(n-1)] on the calling thread, for calls too short to
    hand to the pool."""
    return [fn(s) for s in range(n)]


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
        # shared by stencil key: the factor, the columns of its A^-1 that
        # blocks are formed from (built once per (key, columns), queued
        # behind the factorizations) and the block sets
        keys = [None] * decomp.nstrips
        factors, responses, sets, kept, builds, lock = {}, {}, {}, {}, [], threading.Lock()

        def respond_to_unit_data(at, lu):
            responses[at] = lu.tail_inverse(at[1])

        def build(s):
            sv = LocalSolver(grid, kfield, bc, decomp, s + 1)
            keys[s] = key = sv.stencil.key()
            with lock:
                sv.lu = factors.setdefault(key, sv.lu)
                at = (key, sv.columns)
                if sv.columns is not None and at not in responses:
                    responses[at] = None
                    builds.append(functools.partial(respond_to_unit_data, at, sv.lu))
            return sv

        self.solvers = _map(build, decomp.nstrips, builds)
        for key, sv in zip(keys, self.solvers):
            if sv.columns is not None:
                response = responses[key, sv.columns]
                # with the matrix, the sends fix the datum sides with blocks
                at = (key, sv.columns, tuple(None if x is None else (x[0] - sv.span[0], x[1])
                                             for x in sv.sends))
                if at not in sets:
                    sets[at] = sv.form_blocks(response)
                sv.blocks = sets[at]
                if sv.keeps:
                    # every panel: X itself, the same memory
                    sv.kept = kept.setdefault(key, response.transpose(0, 2, 1).reshape(
                        sv.stencil.nloc, -1))
        n = decomp.nstrips
        # sweeps, edge responses and exchanges of data that are block
        # products all along run on the calling thread: a pool hand-off
        # costs more than they do
        self._serial_sweeps = all(sv.blocked("left") and sv.blocked("right")
                                  for sv in self.solvers[1:n - 1])
        self._serial_edges = (self.solvers[0].blocked("right")
                              and self.solvers[n - 1].blocked("left"))
        self.layout = (2, n - 1, grid.ny + 1)
        # (r, y, partial R y) of the last solve_oneway, for one
        # apply_interface_system on y
        self._sweep = None
        # (load, {strip: field}) of the last source_traces, the fields of
        # the strips that keep columns, for reconstruct on that load
        self._source = None

    def _data(self, t, s: int):
        """Strip s's (left, right) data in the block view t."""
        return (t[0, s - 1] if s > 0 else None,
                t[1, s] if s < self.nstrips - 1 else None)

    def _exchange(self, t=None, load=None, fields=None) -> TraceVector:
        """Every strip responds once to its data in t (none if t is None)
        and load; fields, if given, takes the field of each strip that
        keeps columns."""
        self._sweep = None
        out = TraceVector.zeros(self.layout)
        o = out.blocks

        def respond(s):
            sv = self.solvers[s]
            left, right = (None, None) if t is None else self._data(t, s)
            if fields is None or sv.kept is None:
                return sv.respond(left, right, load)
            fields[s] = v = sv.solve(left, right, load)
            return sv.sent(v)

        run = _each if load is None and self._serial_sweeps and self._serial_edges else _map
        for s, (to_right, to_left) in enumerate(run(respond, self.nstrips)):
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
        first, last = (_each if self._serial_edges else _map)(
            lambda i: self.solvers[0].respond(right=t[1, 0]) if i == 0
            else self.solvers[n - 1].respond(left=t[0, n - 2]), 2)
        o[0, 0], o[1, n - 2] = first[0], last[1]
        return TraceVector(self.layout, r - ry.data)

    def source_traces(self, f=None) -> TraceVector:
        """Right-hand side G: outgoing traces of the true local sources.

        Keeps the load and, on each strip that keeps columns, its field,
        for reconstruct (module docstring).
        """
        load, fields = _add_edge_loads(self.grid, f, self._edges), {}
        g = self._exchange(load=load, fields=fields)
        self._source = (load, fields) if fields else None
        return g

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

        The forward sweep (left blocks) and the backward sweep (right
        blocks) run side by side through _map.  The reflections R y the
        sweeps produce on the way are kept for the next
        apply_interface_system (see the module docstring).
        """
        out, reflected = self._start(r)
        o, a = out.blocks, reflected.blocks

        def sweep(i):
            if i == 0:
                return self._forward(o, a)
            for s in range(self.nstrips - 2, 0, -1):
                a[0, s], to_left = self.solvers[s].respond(right=o[1, s])
                o[1, s - 1] += to_left

        (_each if self._serial_sweeps else _map)(sweep, 2)
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
        If the load equals the last source_traces', a strip that keeps
        columns takes its field from them and the field kept then instead
        (module docstring), all such strips of one key in one product.
        """
        self._sweep = None
        load = _add_edge_loads(self.grid, f, self._edges)
        u = np.zeros(self.grid.shape, dtype=np.complex128)
        t = h.blocks
        source = self._source
        fields = source[1] if source is not None and np.array_equal(load, source[0]) else {}
        by_columns = {}
        for s in fields:
            by_columns.setdefault(id(self.solvers[s].kept), []).append(s)

        def owned(s):
            """Strip s's owned columns, in u and in the strip's field."""
            sv = self.solvers[s]
            lo, hi = sv.owned
            a = sv.span[0]
            return slice(lo, hi), slice(lo - a, hi - a)

        def fill(s):
            into, cols = owned(s)
            u[into] = self.solvers[s].solve(*self._data(t, s), load)[cols]

        def superpose(strips):
            # kept field + X S_r d_r + P X S_l d_l, every datum one column
            # of a zgemm with X
            x = self.solvers[strips[0]].kept
            (n, nb), m = x.shape, 2 * len(strips)
            d = np.empty((nb, m), np.complex128, order="F")
            for j, s in enumerate(strips):
                # S of the last column and of the first
                last, first = self.solvers[s].stencil.row_scale[[-1, 0]] * (2.0 / self.grid.h)
                left, right = self._data(t, s)
                d[:, 2 * j] = last * right
                d[:, 2 * j + 1] = first * left
            y = np.empty((n, m), np.complex128, order="F")
            one, zero = np.ones(1, np.complex128), np.zeros(1, np.complex128)
            # C-ordered X is X^T to BLAS
            _zgemm(b"T", b"N", *_ints(n, m, nb), one.ctypes.data, x.ctypes.data, *_ints(nb),
                   d.ctypes.data, *_ints(nb), zero.ctypes.data, y.ctypes.data, *_ints(n))
            for j, s in enumerate(strips):
                sv = self.solvers[s]
                right, left = (sv.stencil.to_grid(y[:, i]) for i in (2 * j, 2 * j + 1))
                into, cols = owned(s)
                u[into] = fields[s][cols] + right[cols] + left[::-1][cols]
                with sv._count_lock:
                    sv.kept_count += 1

        # the products first: each takes longer than a solve
        tasks = ([functools.partial(superpose, strips) for strips in by_columns.values()]
                 + [functools.partial(fill, s) for s in range(self.nstrips) if s not in fields])
        _map(lambda i: tasks[i](), len(tasks))
        return u
