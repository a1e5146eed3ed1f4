"""Flexible GMRES and a preconditioned Richardson iteration for op(x) = b.

gmres_right is full flexible GMRES (Saad 1993, no restart): the basis V and
the preconditioned vectors Z = [M v_j] are arrays, each new vector gets two
classical Gram-Schmidt passes, the Givens rotations have a real cosine, and
x = Z y, so M runs once per iteration and never on the solution.  Its
history holds the unpreconditioned residuals, starts at 1 and is monotone
(each rotation scales the trailing entry of the reduced right-hand side by
|s| <= 1).  richardson iterates x <- x + M(b - op(x)); its history is the
true residual of each iterate.  Both report why they stopped ("tol",
"maxit", for GMRES "breakdown", for Richardson "diverged") and the
perf_counter seconds since the start at which each history entry was
reached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .banded import ComplexArray, _one_blas_thread

BREAKDOWN_RATIO = 1e-14
# a Richardson run stops as diverged once its true residual passes this many
# times ||b||: no converging run of the tests, the README or tools/compare.py
# passes 1.03, and the coarse quick-start's diverging runs pass it at
# iterations 30 and 34 instead of running to maxit
DIVERGENCE_RATIO = 1e6
Operator = Callable[[ComplexArray], ComplexArray]


@dataclass
class KrylovReport:
    """Outcome of a solver run."""

    solution: ComplexArray
    iterations: int
    history: list = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    ortho_defect: float = 0.0
    stop: str = "tol"
    seconds: list = field(default_factory=list)


def _givens(h1: complex, h2: complex):
    """Rotation with real cosine zeroing h2 against h1."""
    d = np.hypot(abs(h1), abs(h2))
    if d == 0.0:
        return 1.0, 0.0 + 0.0j
    if h1 == 0.0:
        return 0.0, 1.0 + 0.0j
    alpha = h1 / abs(h1)
    return abs(h1) / d, alpha * np.conj(h2) / d


def _finite(v: ComplexArray, what: str) -> ComplexArray:
    v = np.asarray(v, dtype=np.complex128)
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"{what}: non-finite vector")
    return v


def _grow(a: ComplexArray, rows: int) -> ComplexArray:
    """a with at least rows rows, its row count doubled when it is full."""
    return a if rows <= len(a) else np.concatenate([a, np.empty_like(a)])


def gmres_right(apply_op: Operator, b: ComplexArray,
                apply_precond: Optional[Operator] = None,
                tol: float = 1e-6, maxit: int = 400) -> KrylovReport:
    """Solve op(x) = b from a zero initial guess.

    apply_precond, when given, acts as the right preconditioner M: the
    Arnoldi process runs on op(M(.)), and the solution is the combination
    of the stored M v_j.  Convergence is declared only when the relative
    residual |g_{j+1}| / ||b|| reaches tol.  A breakdown of the Arnoldi
    recurrence (the Krylov space invariant to working precision) stops the
    iteration with h_{j+1,j} taken as zero: the least-squares residual then
    vanishes, unless the new column adds no direction either (op(M(.))
    singular on the Krylov space).  That column is left out, the residual
    stays where it was and the run is not converged.  A non-finite
    right-hand side raises FloatingPointError before any iteration, and a
    non-finite vector from the operator or the preconditioner raises it
    naming the iteration.
    """
    with _one_blas_thread():
        start = time.perf_counter()
        b = _finite(b, "GMRES: right-hand side")
        bnorm = float(np.linalg.norm(b))
        history = [1.0 if bnorm > 0.0 else 0.0]
        seconds = [time.perf_counter() - start]
        if bnorm == 0.0 or history[0] <= tol:
            return KrylovReport(np.zeros(b.size, dtype=np.complex128), 0, history, True,
                                time.perf_counter() - start, seconds=seconds)

        # rows 0..nv-1 of V are the basis, rows 0..j of Z its preconditioned images
        V = (b / bnorm)[None, :]
        Z = np.empty_like(V)
        nv = 1
        hcols, cs, sn = [], [], []   # R's columns, cosines (real), sines
        g = [bnorm + 0.0j]
        stop = "maxit"

        for j in range(maxit):
            z = V[j]
            if apply_precond is not None:
                z = _finite(apply_precond(z), f"GMRES: preconditioner at iteration {j + 1}")
                Z = _grow(Z, j + 1)
                Z[j] = z
            w = _finite(apply_op(z), f"GMRES: operator at iteration {j + 1}")
            wnorm0 = float(np.linalg.norm(w))
            basis = V[:nv]
            hcol = np.zeros(j + 2, dtype=np.complex128)
            for _ in range(2):
                proj = basis.conj() @ w
                w = w - proj @ basis
                hcol[:j + 1] += proj
            hnext = float(np.linalg.norm(w))
            breakdown = hnext == 0.0 or (wnorm0 > 0.0 and hnext < BREAKDOWN_RATIO * wnorm0)
            hcol[j + 1] = 0.0 if breakdown else hnext

            for i in range(j):
                t = cs[i] * hcol[i] + sn[i] * hcol[i + 1]
                hcol[i + 1] = -np.conj(sn[i]) * hcol[i] + cs[i] * hcol[i + 1]
                hcol[i] = t
            c, s = _givens(hcol[j], hcol[j + 1])
            diag = c * hcol[j] + s * hcol[j + 1]
            if abs(diag) <= BREAKDOWN_RATIO * wnorm0:
                # singular breakdown: the residual cannot drop below |g_j|
                history.append(history[-1])
                seconds.append(time.perf_counter() - start)
                stop = "breakdown"
                break
            cs.append(c)
            sn.append(s)
            hcol[j] = diag
            hcols.append(hcol[:j + 1])
            g.append(-np.conj(s) * g[j])
            g[j] = c * g[j]
            history.append(abs(g[j + 1]) / bnorm)
            seconds.append(time.perf_counter() - start)

            # a breakdown zeroes g[j + 1], so it stops here only as convergence
            if history[-1] <= tol or breakdown:
                stop = "tol"
                break
            V = _grow(V, nv + 1)
            V[nv] = w / hnext
            nv += 1

        m = len(hcols)
        r = np.zeros((m, m), dtype=np.complex128)
        for k, col in enumerate(hcols):
            r[:k + 1, k] = col
        y = solve_triangular(r, np.array(g[:m]))
        x = y @ (V if apply_precond is None else Z)[:m]

        gram = V[:nv].conj() @ V[:nv].T
        defect = float(np.max(np.abs(gram - np.eye(nv))))
        return KrylovReport(x, len(history) - 1, history, stop == "tol",
                            time.perf_counter() - start, defect, stop, seconds)


def richardson(apply_op: Operator, b: ComplexArray,
               apply_precond: Optional[Operator] = None,
               tol: float = 1e-6, maxit: int = 400) -> KrylovReport:
    """Solve op(x) = b by x <- x + M(b - op(x)) from x = 0.

    M is apply_precond, or the identity when it is None (for op = Id - T
    the step is then x <- T x + b).  history[j] is ||b - op(x_j)|| / ||b||,
    the true residual of iterate j, so each step costs one M and one op.
    The run stops, diverged and not converged, at the first iterate whose
    residual exceeds DIVERGENCE_RATIO.  A non-finite right-hand side raises
    FloatingPointError before any iteration, and a non-finite vector from
    the operator or the preconditioner raises it naming the iteration.
    """
    with _one_blas_thread():
        start = time.perf_counter()
        b = _finite(b, "Richardson: right-hand side")
        bnorm = float(np.linalg.norm(b))
        x = np.zeros(b.size, dtype=np.complex128)
        seconds = [time.perf_counter() - start]
        if bnorm == 0.0:
            return KrylovReport(x, 0, [0.0], True, time.perf_counter() - start,
                                seconds=seconds)
        r, history = b, [1.0]
        for j in range(1, maxit + 1):
            if history[-1] <= tol or history[-1] > DIVERGENCE_RATIO:
                break
            z = r if apply_precond is None else _finite(
                apply_precond(r), f"Richardson: preconditioner at iteration {j}")
            x = x + z
            r = b - _finite(apply_op(x), f"Richardson: operator at iteration {j}")
            history.append(float(np.linalg.norm(r)) / bnorm)
            seconds.append(time.perf_counter() - start)
        converged = bool(history[-1] <= tol)
        stop = "tol" if converged else "diverged" if history[-1] > DIVERGENCE_RATIO else "maxit"
        return KrylovReport(x, len(history) - 1, history, converged,
                            time.perf_counter() - start, stop=stop, seconds=seconds)
