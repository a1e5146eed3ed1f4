"""Spans around helmsweep's public callables, installed from outside.

A ``Tracer`` replaces every public function and every public method (plus
``__init__``) defined in the layer modules with a wrapper that records a
span: name, start, end, parent span and the shot it belongs to.  Spans
stay in memory until the run writes them out.  ``installed()`` puts the
wrappers in and always takes them out again, so untraced code runs the
program's own functions.  A callable that does not exist is simply not
wrapped; the metrics built on it come out absent.

Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``, the
layer being the module's name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "helmsweep"
LAYERS = ("grid", "strips", "banded", "subdomain", "substructure", "krylov",
          "bench", "symbols", "cli")

SETUP = "setup"  # shot id of the spans recorded while setting up

# span names the per-layer metrics are built on
ASSEMBLE = "grid.RectStencil.__init__"
RHS = "grid.RectStencil.rhs"
FACTOR = "banded.BandedLU.__init__"
SOLVE = "banded.BandedLU.solve"
STRIP_SOLVE = "subdomain.LocalSolver.solve"
EXTRACT = "subdomain.extract_trace"
EXCHANGE = "substructure.SubstructuredSystem.apply_exchange"
SWEEPS = ("substructure.SubstructuredSystem.solve_oneway",
          "substructure.SubstructuredSystem.solve_double_sweep")
SOURCE = "substructure.SubstructuredSystem.source_traces"
RECONSTRUCT = "substructure.SubstructuredSystem.reconstruct"
GMRES = "krylov.gmres_right"
# figures derived from sizes rather than timed or counted
COMPUTED = ("banded.factor_mb", "banded.solve_gbps")
MEASURED = (ASSEMBLE, RHS, FACTOR, SOLVE, STRIP_SOLVE, EXTRACT, EXCHANGE,
            *SWEEPS, SOURCE, RECONSTRUCT, GMRES)


def public_callables():
    """(span name, owner, attribute, function) for each callable to wrap.

    For a module-level function the owner is None: it is replaced wherever
    a helmsweep module holds it, since modules import each other's names.
    """
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", None, attr, obj
            elif inspect.isclass(obj):
                for name, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (name == "__init__" or not name.startswith("_")):
                        yield f"{layer}.{attr}.{name}", obj, name, fn


class Tracer:
    """Records spans of the program's calls while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, shot]
        self.shot = SETUP
        self.names: set[str] = set()  # every span name that was wrapped
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.shot]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    @contextmanager
    def installed(self):
        targets = list(public_callables())  # imports every layer first
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        undo = []
        try:
            for name, owner, attr, fn in targets:
                self.names.add(name)
                wrapped = self._wrap(name, fn)
                for holder in [owner] if owner is not None else modules:
                    if vars(holder).get(attr) is fn:
                        undo.append((holder, attr, fn))
                        setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, fn in reversed(undo):
                setattr(holder, attr, fn)

    def count(self, name: str, shot) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] == shot)

    def dump(self) -> dict:
        """Spans as a compact table: names once, rows index into them."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"columns": ["name", "start", "end", "parent", "shot"],
                "names": names,
                "rows": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}


def _totals(spans):
    """Per (shot, name): [calls, total seconds, self seconds]."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, shot) in enumerate(spans):
        acc = out.setdefault((shot, name), [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child[i]
    return out


def layer_metrics(tracer: Tracer, shots: dict, factor_bytes: list[int],
                  nodes: int) -> dict:
    """Per-layer figures from the spans: set-up totals, per-shot medians.

    shots maps each traced shot id to the program's report of it (a dict
    with 'iterations', 'ortho_defect', 'converged').  factor_bytes and nodes
    are read off the set-up problem.  A figure built on a span name that was
    not wrapped is left out.
    """
    totals = _totals(tracer.spans)
    have = tracer.names

    def stat(name, shot, k):
        return totals.get((shot, name), (0, 0.0, 0.0))[k]

    def calls(name, shot):
        return stat(name, shot, 0)

    def busy(name, shot):
        return stat(name, shot, 1)

    def own(name, shot):
        return stat(name, shot, 2)

    out = {}
    if ASSEMBLE in have:
        out["grid.assemble_s"] = (busy(ASSEMBLE, SETUP), "s")
        out["grid.nodes"] = (nodes, "count")
    if FACTOR in have:
        out["banded.factor_s"] = (busy(FACTOR, SETUP), "s")
        out["banded.factors"] = (calls(FACTOR, SETUP), "count")
        out["banded.factor_mb"] = (sum(factor_bytes) / 1e6, "MB")

    substructure = sorted(n for n in have if n.startswith("substructure."))
    mean_factor = sum(factor_bytes) / len(factor_bytes)
    per_shot: dict[str, list] = {}
    units: dict[str, str] = {}

    def put(key, value, unit):
        per_shot.setdefault(key, []).append(value)
        units[key] = unit

    for shot, report in shots.items():
        its = report["iterations"]
        put("krylov.iterations", its, "count")
        put("krylov.ortho_defect", report["ortho_defect"], "1")
        if RHS in have:
            put("grid.rhs_s", busy(RHS, shot), "s")
        if SOLVE in have:
            n, t = calls(SOLVE, shot), busy(SOLVE, shot)
            put("banded.solve_s", t, "s")
            put("banded.solves", n, "count")
            put("banded.solve_ms", 1e3 * t / n, "ms")
            put("banded.solve_gbps", n * mean_factor / t / 1e9, "GB/s")
            put("substructure.solves_per_iteration", n / max(its, 1), "count")
        if STRIP_SOLVE in have:
            put("subdomain.solve_self_s", own(STRIP_SOLVE, shot), "s")
        if EXTRACT in have:
            put("subdomain.trace_s", busy(EXTRACT, shot), "s")
            put("subdomain.traces", calls(EXTRACT, shot), "count")
        if EXCHANGE in have:
            put("substructure.exchange_s", busy(EXCHANGE, shot), "s")
            put("substructure.exchanges", calls(EXCHANGE, shot), "count")
        sweeps = [n for n in SWEEPS if n in have]
        if sweeps:
            put("substructure.sweep_s", sum(busy(n, shot) for n in sweeps), "s")
            put("substructure.sweeps", sum(calls(n, shot) for n in sweeps), "count")
        if SOURCE in have:
            put("substructure.source_s", busy(SOURCE, shot), "s")
        if RECONSTRUCT in have:
            put("substructure.reconstruct_s", busy(RECONSTRUCT, shot), "s")
        if substructure:
            put("substructure.self_s", sum(own(n, shot) for n in substructure), "s")
        if GMRES in have:
            put("krylov.self_s", own(GMRES, shot), "s")
    for key, values in per_shot.items():
        out[key] = (statistics.median(values), units[key])
    out["krylov.unconverged"] = (sum(not r["converged"] for r in shots.values()), "count")
    return out
