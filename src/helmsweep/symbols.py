"""Fourier-symbol analysis of the interface exchange operator.

For straight vertical strips the exchange operator diagonalizes in the
transverse Fourier variable xi, and each mode sees four small (2N-2) x
(2N-2) matrices A_l, A_r, M_l, M_r whose entries are explicit in the
half-space DtN symbol

    lambda(xi) = Ik sqrt(1 - xi^2/k^2)   (propagative, |xi| < k)
    lambda(xi) = sqrt(xi^2 - k^2)        (vanishing,   |xi| > k)

and the two-half-space factor rho_j = (lambda - lambda_j)/(lambda +
lambda_j) for the interface impedance symbol lambda_j (here the constant
Ik).  The mode-wise convergence factor of the one-way-preconditioned
iteration and the constant entering the Jacobi/double-sweep estimates are
products of max-entry norms of these matrices; this module evaluates them,
checks the cancellation algebra the sweeping analysis rests on, and
searches for the overlap needed by the vanishing-mode decay estimate.

In a waveguide of height L with Dirichlet walls the transverse transform
is a sine series and xi is a positive integer mode number; the same
formulas apply with xi pi / L in place of xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

CUTOFF_TOL = 1e-9
RELATION_TOL = 1e-13
POWER_TOL = 1e-12


def lambda_symbol(xi: float, k: float) -> tuple[complex, bool]:
    """Half-space DtN symbol and a cutoff flag.

    lambda = sqrt(xi^2 - k^2), evaluated as sqrt((|xi| - k)(|xi| + k)):
    the difference is exact near the cutoff |xi| = k, so lambda keeps full
    relative accuracy there.  Below the cutoff it is the outgoing branch
    I sqrt(k^2 - xi^2), above it the real one.  At the cutoff the symbol
    vanishes and downstream denominators degenerate, so the flag is set
    instead of raising.
    """
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    a = abs(xi)
    if abs(1.0 - a / k) < CUTOFF_TOL:
        return 0.0 + 0.0j, True
    t = (a - k) * (a + k)
    if t < 0:
        return 1j * np.sqrt(-t), False
    return complex(np.sqrt(t)), False


def lambda_waveguide(xi: int, k: float, length: float) -> tuple[complex, bool]:
    """DtN symbol of the half waveguide for transverse mode number xi.

    The plane symbol at xi pi / L.  A mode at the cutoff sits exactly at
    resonance (kL/pi integer equal to xi); that is flagged, not raised.
    """
    if length <= 0:
        raise ValueError("waveguide height must be positive")
    if not (xi >= 1 and float(xi).is_integer()):
        raise ValueError(f"waveguide mode number must be a positive integer, got {xi!r}")
    return lambda_symbol(xi * np.pi / length, k)


@dataclass(frozen=True)
class SymbolParams:
    """Mode-wise evaluation point: wavenumber, Fourier number, geometry.

    strips are the (l_i, L_i) extents of the N vertical strips; delta is
    the common overlap width.  The sweeping analysis assumes every strip
    width exceeds twice the overlap, which is enforced here.  mode is
    "plane" (xi any real) or "waveguide" (xi a positive integer mode
    number, length required).
    """

    k: float
    xi: float
    strips: tuple
    delta: float
    mode: str = "plane"
    length: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("plane", "waveguide"):
            raise ValueError(f"mode must be 'plane' or 'waveguide', got {self.mode!r}")
        if self.mode == "waveguide" and (self.length is None or self.length <= 0):
            raise ValueError("waveguide mode needs a positive height")
        self.lam()  # rejects k <= 0 and a waveguide xi that is not a positive integer
        strips = tuple((float(a), float(b)) for a, b in self.strips)
        object.__setattr__(self, "strips", strips)
        if len(strips) < 2:
            raise ValueError("need at least 2 strips")
        widths = [b - a for a, b in strips]
        if min(widths) <= 0:
            raise ValueError("strip widths must be positive")
        if self.delta < 0:
            raise ValueError("overlap must be nonnegative")
        if 2 * self.delta >= min(widths):
            raise ValueError("every strip must be wider than twice the overlap")

    @property
    def nstrips(self) -> int:
        return len(self.strips)

    @property
    def widths(self) -> list[float]:
        return [b - a for a, b in self.strips]

    def lam(self) -> tuple[complex, bool]:
        if self.mode == "waveguide":
            return lambda_waveguide(self.xi, self.k, self.length)
        return lambda_symbol(self.xi, self.k)

    def rho_j(self) -> complex:
        """Two-half-space factor (lambda - Ik)/(lambda + Ik): 0 at xi = 0,
        of modulus < 1 for propagative modes, 1 for vanishing modes and -1
        at the cutoff."""
        lam, _ = self.lam()
        return (lam - 1j * self.k) / (lam + 1j * self.k)


@dataclass
class SymbolMatrices:
    """The four (2N-2) x (2N-2) mode matrices; their sum is the exchange symbol."""

    a_l: np.ndarray
    a_r: np.ndarray
    m_l: np.ndarray
    m_r: np.ndarray

    @property
    def exchange(self) -> np.ndarray:
        return self.a_l + self.a_r + self.m_l + self.m_r


def symbol_matrices(params: SymbolParams) -> SymbolMatrices:
    """Evaluate the four mode matrices at params.xi.

    Entry layout (1-based rows/cols in a basis of N-1 left traces then
    N-1 right traces; w_i is the width of strip i):

        (A_r)_{n+N-1,n} = rho_j (e^{-lam d} + e^{-lam w_{n+1}})
                          / (1 - rho_j^2 e^{-2 lam w_{n+1}}),  n = 1..N-1
        (A_l)_{n,n+N-1} = same with w_n,                       n = 1..N-1
        (M_l)_{n+1,n}   = e^{-lam (w_{n+1}-d)} (1 - rho_j^2)
                          / (1 - rho_j^2 e^{-2 lam w_{n+1}}),  n = 1..N-2
        (M_r)_{n,n+1}   = same with w_{n-N+2},                 n = N..2N-3
    """
    lam, degenerate = params.lam()
    if degenerate:
        raise ValueError("cutoff Fourier number, mode matrices are singular there")
    rho = params.rho_j()
    w = params.widths
    d = params.delta
    n = params.nstrips
    size = 2 * n - 2
    a_l = np.zeros((size, size), dtype=np.complex128)
    a_r = np.zeros((size, size), dtype=np.complex128)
    m_l = np.zeros((size, size), dtype=np.complex128)
    m_r = np.zeros((size, size), dtype=np.complex128)

    def a_entry(width: float) -> complex:
        return rho * (np.exp(-lam * d) + np.exp(-lam * width)) / (
            1.0 - rho * rho * np.exp(-2.0 * lam * width))

    def m_entry(width: float) -> complex:
        return np.exp(-lam * (width - d)) * (1.0 - rho * rho) / (
            1.0 - rho * rho * np.exp(-2.0 * lam * width))

    for pn in range(1, n):
        a_r[pn + n - 2, pn - 1] = a_entry(w[pn])
        a_l[pn - 1, pn + n - 2] = a_entry(w[pn - 1])
    for pn in range(1, n - 1):
        m_l[pn, pn - 1] = m_entry(w[pn])
    for pn in range(n, 2 * n - 2):
        m_r[pn - 1, pn] = m_entry(w[pn - n + 1])
    return SymbolMatrices(a_l, a_r, m_l, m_r)


def _max_entry(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _geom_sum(x: float, nterms: int) -> float:
    # sum_{i=0}^{nterms-1} x^i; Python's 0.0 ** 0 is 1.0
    return float(sum(x ** i for i in range(nterms)))


def _contraction(params: SymbolParams) -> tuple[float, float, float]:
    """(||A_r||, ||A_l||, rho_factor) from one evaluation of the matrices."""
    mats = symbol_matrices(params)
    n = params.nstrips
    nar, nal = _max_entry(mats.a_r), _max_entry(mats.a_l)
    return nar, nal, (nar * nal * _geom_sum(_max_entry(mats.m_l), n - 1)
                      * _geom_sum(_max_entry(mats.m_r), n - 1))


def rho_factor(params: SymbolParams) -> float:
    """Mode-wise convergence factor of the one-way-preconditioned iteration.

    ||A_r|| ||A_l|| (sum_i ||M_l||^i)(sum_i ||M_r||^i) over i = 0..N-2,
    with the maximum-absolute-entry norm; each matrix holds a single
    nonzero diagonal so max-entry, spectral, and row-sum norms coincide.
    """
    return _contraction(params)[2]


def C_factor(params: SymbolParams) -> float:
    """Constant of the Jacobi/double-sweep convergence estimates.

    (1 + rho/||A_l||)(1 + rho/||A_r|| + rho/(||A_r|| ||A_l||)).  At xi = 0
    the A-norms vanish and the value is returned as inf (the limit from
    xi > 0 is finite and is what the growth statements refer to).
    """
    nar, nal, rho = _contraction(params)
    if nal == 0.0 or nar == 0.0:
        return float("inf")
    return (1.0 + rho / nal) * (1.0 + rho / nar + rho / (nar * nal))


@dataclass
class AlgebraReport:
    """Residuals of the cancellation relations and sweep power identity."""

    relations: dict = field(default_factory=dict)
    power_errors: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_symbol_algebra(params: SymbolParams) -> AlgebraReport:
    """Check the structural algebra of the mode matrices numerically.

    The ten cancellation relations (nilpotency of M_l and M_r at order
    N-1, and the eight vanishing pairwise products) hold by sparsity
    alone; the even-power identity for R = sum M_r^i A_r + sum M_l^i A_l,

        R^n = (X_r X_l)^{n/2} + (X_l X_r)^{n/2},  X_s = sum M_s^i A_s,

    is what makes the one-way-preconditioned GMRES analysis work and is
    verified for n = 2, 4.  The tolerances are RELATION_TOL and POWER_TOL.
    """
    mats = symbol_matrices(params)
    n = params.nstrips
    rep = AlgebraReport()
    mp = np.linalg.matrix_power
    relations = {
        "Mr^(N-1)": mp(mats.m_r, n - 1),
        "Ml^(N-1)": mp(mats.m_l, n - 1),
        "Ml.Mr": mats.m_l @ mats.m_r,
        "Mr.Ml": mats.m_r @ mats.m_l,
        "Al^2": mats.a_l @ mats.a_l,
        "Ar^2": mats.a_r @ mats.a_r,
        "Al.Ml": mats.a_l @ mats.m_l,
        "Ar.Mr": mats.a_r @ mats.m_r,
        "Ml.Ar": mats.m_l @ mats.a_r,
        "Mr.Al": mats.m_r @ mats.a_l,
    }
    for name, prod in relations.items():
        err = _max_entry(prod)
        rep.relations[name] = err
        if err > RELATION_TOL:
            rep.failures.append(name)

    x_r = sum(mp(mats.m_r, i) @ mats.a_r for i in range(n - 1))
    x_l = sum(mp(mats.m_l, i) @ mats.a_l for i in range(n - 1))
    r = x_r + x_l
    for npow in (2, 4):
        lhs = mp(r, npow)
        rhs = mp(x_r @ x_l, npow // 2) + mp(x_l @ x_r, npow // 2)
        scale = max(_max_entry(lhs), 1e-300)
        err = _max_entry(lhs - rhs) / scale
        rep.power_errors[f"R^{npow}"] = err
        if err > POWER_TOL:
            rep.failures.append(f"R^{npow}")
    return rep


@dataclass
class OverlapSearch:
    """Result of the vanishing-mode overlap search."""

    delta: float
    holds: bool
    worst_excess: float


def find_vanishing_overlap(k: float, width: float, nstrips: int) -> OverlapSearch:
    """Search for an overlap making |rho(xi)| < e^{-2 delta lambda(xi)}.

    The decay estimate for vanishing modes is stated for "sufficiently
    large" overlap; this doubles delta geometrically from width/32 up to
    the width/2 ceiling allowed by the strip-width assumption and reports
    the first delta for which the bound holds at 50 Fourier numbers in
    [1.5 k, 4 k], all vanishing, or the ceiling with holds=False.
    worst_excess is max(|rho| - e^{-2 delta lambda}) at the returned delta.
    """
    xis = np.linspace(1.5 * k, 4.0 * k, 50)
    strips = tuple((i * width, (i + 1) * width) for i in range(nstrips))
    delta = width / 32.0
    ceiling = width / 2.0
    best = None
    while True:
        d = min(delta, np.nextafter(ceiling, 0.0))
        worst = -np.inf
        for xi in xis:
            p = SymbolParams(k=k, xi=float(xi), strips=strips, delta=d)
            lam, cut = p.lam()
            if cut:
                continue
            bound = float(np.exp(-2.0 * d * lam.real))
            worst = max(worst, rho_factor(p) - bound)
        best = OverlapSearch(d, worst < 0.0, worst)
        if best.holds or delta >= ceiling:
            return best
        delta *= 2.0
