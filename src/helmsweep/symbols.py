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
products of max-entry norms of these matrices; this module evaluates them.

In a waveguide of height L with Dirichlet walls the transverse transform
is a sine series and xi is a positive integer mode number; the same
formulas apply with xi pi / L in place of xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

CUTOFF_TOL = 1e-9


def _check_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def lambda_symbol(xi: float, k: float) -> tuple[complex, bool]:
    """Half-space DtN symbol and a cutoff flag.

    lambda = sqrt(xi^2 - k^2), evaluated as sqrt((|xi| - k)(|xi| + k)):
    the difference is exact near the cutoff |xi| = k, so lambda keeps full
    relative accuracy there.  Below the cutoff it is the outgoing branch
    I sqrt(k^2 - xi^2), above it the real one.  At the cutoff the symbol
    vanishes and downstream denominators degenerate, so the flag is set
    instead of raising.  A non-finite k or xi is a ValueError naming it.
    """
    _check_finite(k=k, xi=xi)
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
    _check_finite(length=length)
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
    number, length required).  A non-finite k, xi, delta, length or strip
    bound is a ValueError naming the field.
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
        _check_finite(delta=self.delta)
        if self.length is not None:
            _check_finite(length=self.length)
        if self.mode == "waveguide" and (self.length is None or self.length <= 0):
            raise ValueError("waveguide mode needs a positive height")
        # rejects a k that is not finite and positive, an xi that is not
        # finite, and a waveguide xi that is not a positive integer
        self.lam()
        strips = tuple((float(a), float(b)) for a, b in self.strips)
        object.__setattr__(self, "strips", strips)
        if not all(math.isfinite(v) for s in strips for v in s):
            raise ValueError(f"strips must have finite bounds, got {strips!r}")
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
