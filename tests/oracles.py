"""Reference oracles that tests compare the program against.

verify_symbol_algebra checks the cancellation algebra the sweeping analysis
rests on, find_vanishing_overlap searches for the overlap needed by the
vanishing-mode decay estimate, and wedge_velocity is the scalar, point by
point reading of the wedge's velocity model.  None of them is part of the
helmsweep package: the program runs none of them.
"""

from dataclasses import dataclass, field

import numpy as np

from helmsweep.grid import WedgeModel
from helmsweep.symbols import SymbolParams, _max_entry, rho_factor, symbol_matrices

RELATION_TOL = 1e-13
POWER_TOL = 1e-12


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


def wedge_velocity(model: WedgeModel, x: float, y: float) -> float:
    """The velocity of model at the point (x, y), one point at a time."""
    if y >= model._line_y(model.upper, x):
        return model.velocities[0]
    if y >= model._line_y(model.lower, x):
        return model.velocities[1]
    return model.velocities[2]
