"""Overlapping vertical strip decomposition of a grid's column range.

Cut positions c_i = round(i*nx/N) partition the nx cells; strip i spans the
node columns [a_i, b_i] with a_i = c_{i-1} - m/2 and b_i = c_i + m/2 for an
even overlap of m cells (edge strips clamp to the domain).  Neighboring
strips then share exactly m cell columns, and every interior interface
column lies strictly inside the neighboring strip with both of its neighbor
columns available there, which the trace extraction requires.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class StripDecomposition:
    """Cut positions and the node-column range of each strip."""

    cuts: tuple[int, ...]                 # c_0 = 0 < ... < c_N = nx
    spans: tuple[tuple[int, int], ...]    # (a_i, b_i) node-column ranges
    width_bound_ok: bool = True

    @property
    def nstrips(self) -> int:
        return len(self.spans)


def build_strips(nx: int, nstrips: int, overlap_cells: int,
                 enforce_width_bound: bool = True) -> StripDecomposition:
    """Split nx cell columns into overlapping strips.

    Rejects geometries where interfaces would leave the domain or touch its
    vertical edges.  The width rule (every strip at least twice the overlap,
    i.e. the overlap below half the strip width) is enforced by default;
    with enforce_width_bound=False a violation only emits a warning and is
    recorded on the result, which published runs with very thin strips need.
    """
    if nstrips < 2:
        raise ValueError("need at least 2 strips")
    if overlap_cells < 2 or overlap_cells % 2 != 0:
        raise ValueError("overlap_cells must be an even integer >= 2")
    cuts = [int(math.floor(i * nx / nstrips + 0.5)) for i in range(nstrips + 1)]
    cuts[0], cuts[-1] = 0, nx
    for i in range(nstrips):
        if cuts[i + 1] - cuts[i] < 2:
            raise ValueError(
                f"too many subdomains for the grid: cut spacing "
                f"{cuts[i + 1] - cuts[i]} < 2 between cuts {i} and {i + 1}"
            )
    half = overlap_cells // 2
    spans = []
    for i in range(1, nstrips + 1):
        a = 0 if i == 1 else cuts[i - 1] - half
        b = nx if i == nstrips else cuts[i] + half
        spans.append((a, b))
    for i, (a, b) in enumerate(spans, start=1):
        if i >= 2 and a < 1:
            raise ValueError(
                f"strip {i}: left interface column {a} leaves the domain "
                f"(overlap too large for the cut spacing)"
            )
        if i <= nstrips - 1 and b > nx - 1:
            raise ValueError(f"strip {i}: right interface column {b} leaves the domain")
    # each interface column is then strictly inside its neighbour strip: cut
    # spacing >= 2 and m >= 2 give a_{i+1} + 1 <= c_i + m/2 = b_i and
    # a_{i+1} - 1 >= c_{i-1} - m/2 + 1 > a_i (a_2 >= 1 above), and alike for b_i
    width_ok = all(b - a >= 2 * overlap_cells for (a, b) in spans)
    if not width_ok:
        worst = min(b - a for (a, b) in spans)
        msg = (f"minimum strip width {worst} cells is below twice the overlap "
               f"({2 * overlap_cells} cells)")
        if enforce_width_bound:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=2)
    return StripDecomposition(cuts=tuple(cuts), spans=tuple(spans),
                              width_bound_ok=width_ok)
