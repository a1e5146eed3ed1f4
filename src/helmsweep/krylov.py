"""Right-preconditioned GMRES on flat complex vectors.

Full GMRES (no restart) with modified Gram-Schmidt and one conditional
reorthogonalization pass, Givens rotations kept in the complex form with a
real cosine, and the preconditioner applied on the right so the recorded
residuals are those of the unpreconditioned system.  The iteration history
starts at 1 (the relative residual of the zero initial guess) and is
monotone by construction since each rotation scales the trailing entry of
the reduced right-hand side by |s| <= 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import ComplexArray

REORTH_THRESHOLD = 1e-8
BREAKDOWN_RATIO = 1e-14


@dataclass
class KrylovReport:
    """Outcome of a GMRES run."""

    solution: ComplexArray
    iterations: int
    history: list = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    ortho_defect: float = 0.0


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
        raise FloatingPointError(f"GMRES: {what} returned a non-finite vector")
    return v


def gmres_right(apply_op: Callable[[ComplexArray], ComplexArray],
                b: ComplexArray,
                apply_precond: Optional[Callable[[ComplexArray], ComplexArray]] = None,
                tol: float = 1e-6,
                maxit: int = 400) -> KrylovReport:
    """Solve op(x) = b from a zero initial guess.

    apply_precond, when given, acts as the right preconditioner M: the
    Arnoldi process runs on op(M(.)) and the returned solution is M applied
    to the Krylov combination.  Convergence is declared only when the
    relative residual |g_{j+1}| / ||b|| reaches tol.  A breakdown of the
    Arnoldi recurrence (the Krylov space invariant to working precision)
    stops the iteration with h_{j+1,j} taken as zero: the least-squares
    residual then vanishes, unless the new column adds no direction either
    (op(M(.)) singular on the Krylov space).  That column is left out, the
    residual stays where it was and the run is not converged.  A non-finite
    vector from the operator or the preconditioner raises FloatingPointError
    naming the iteration.
    """
    start = time.perf_counter()
    b = np.asarray(b, dtype=np.complex128)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return KrylovReport(np.zeros(n, dtype=np.complex128), 0, [0.0], True,
                            time.perf_counter() - start, 0.0)
    history = [1.0]
    if history[0] <= tol:
        return KrylovReport(np.zeros(n, dtype=np.complex128), 0, history, True,
                            time.perf_counter() - start, 0.0)

    vecs = [b / bnorm]
    hcols = []
    cs: list[float] = []
    sn: list[complex] = []
    g = [bnorm + 0.0j]

    for j in range(maxit):
        z = vecs[j] if apply_precond is None else _finite(
            apply_precond(vecs[j]), f"preconditioner at iteration {j + 1}")
        w = _finite(apply_op(z), f"operator at iteration {j + 1}")
        wnorm0 = float(np.linalg.norm(w))
        hcol = np.zeros(j + 2, dtype=np.complex128)
        for i in range(j + 1):
            hij = np.vdot(vecs[i], w)
            hcol[i] = hij
            w = w - hij * vecs[i]
        # one extra pass when the first sweep left visible components
        corr = np.array([np.vdot(v, w) for v in vecs], dtype=np.complex128)
        wcur = float(np.linalg.norm(w))
        if wcur > 0.0 and np.max(np.abs(corr)) / wcur > REORTH_THRESHOLD:
            for i in range(j + 1):
                w = w - corr[i] * vecs[i]
            hcol[:j + 1] += corr
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
            break
        cs.append(c)
        sn.append(s)
        hcol[j] = diag
        hcol[j + 1] = 0.0
        hcols.append(hcol)
        g.append(-np.conj(s) * g[j])
        g[j] = c * g[j]
        history.append(abs(g[j + 1]) / bnorm)

        if history[-1] <= tol or breakdown:
            break
        vecs.append(w / hnext)

    m = len(hcols)
    y = np.zeros(m, dtype=np.complex128)
    for i in range(m - 1, -1, -1):
        acc = g[i]
        for k in range(i + 1, m):
            acc -= hcols[k][i] * y[k]
        y[i] = acc / hcols[i][i]
    u = np.zeros(n, dtype=np.complex128)
    for i in range(m):
        u += y[i] * vecs[i]
    x = u if apply_precond is None else _finite(
        apply_precond(u), f"preconditioner on the solution after iteration {m}")

    basis = np.array(vecs)
    gram = basis.conj() @ basis.T
    defect = float(np.max(np.abs(gram - np.eye(len(vecs)))))
    return KrylovReport(x, len(history) - 1, history, bool(history[-1] <= tol),
                        time.perf_counter() - start, defect)
