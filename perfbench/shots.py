"""Seeded shot sources.

Shot 0 is the medium's stock source: no volume term, only the boundary
forcing that ``build_problem`` puts into the boundary conditions.  Shot
i >= 1 adds a volume source of BUMPS Gaussian bumps, each WIDTH_CELLS grid
cells wide, with centres uniform over the domain and standard complex
normal amplitudes.  Ten bumps rather than three make the iteration count
of a shot depend little on where the bumps fall: with three, wedge-jacobi
shots took 22 to 26 iterations, with ten 23 or 24.  The bumps of shot i
come from the generator seeded with (seed, i), so one seed fixes every
shot and a shot does not depend on how many shots ran before it.
"""

from __future__ import annotations

import numpy as np

BUMPS = 10
WIDTH_CELLS = 3.0


def source(xs: np.ndarray, ys: np.ndarray, h: float, seed: int, shot: int):
    """Volume source of one shot on the nodes xs x ys, or None for shot 0."""
    if shot == 0:
        return None
    rng = np.random.default_rng([seed, shot])
    sigma = WIDTH_CELLS * h
    f = np.zeros((xs.size, ys.size), dtype=np.complex128)
    for _ in range(BUMPS):
        cx = rng.uniform(xs[0], xs[-1])
        cy = rng.uniform(ys[0], ys[-1])
        amp = complex(rng.normal(), rng.normal())
        bump_x = np.exp(-0.5 * ((xs - cx) / sigma) ** 2)
        bump_y = np.exp(-0.5 * ((ys - cy) / sigma) ** 2)
        f += amp * np.outer(bump_x, bump_y)
    return f
