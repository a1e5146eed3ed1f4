import itertools
import warnings

import numpy as np
import pytest

from helmsweep.bench import BenchContext, ProblemSpec
from helmsweep.strips import build_strips


def test_reference_partition():
    d = build_strips(100, 4, 4)
    assert d.cuts == (0, 25, 50, 75, 100)
    assert d.spans == ((0, 27), (23, 52), (48, 77), (73, 100))
    assert d.width_bound_ok


def test_two_strip_partition():
    d = build_strips(20, 2, 2)
    assert d.spans == ((0, 11), (9, 20))
    # interfaces live on the strip edges inside the neighbor
    assert d.spans[1][0] == 9
    assert d.spans[0][1] == 11


def test_interfaces_and_ownership():
    # every decomposition build_strips accepts, width bound waived
    accepted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for nx, n, m in itertools.product(range(1, 81), range(2, 21), range(2, 21, 2)):
            try:
                d = build_strips(nx, n, m, enforce_width_bound=False)
            except ValueError:
                continue
            accepted += 1
            spans = d.spans
            assert d.cuts[-1] == nx and d.nstrips == n
            for i in range(n - 1):
                # strip i+1's left interface inside strip i, strip i's right
                # interface inside strip i+1, each with both neighbour columns
                for column, (a, b) in ((spans[i + 1][0], spans[i]), (spans[i][1], spans[i + 1])):
                    assert a <= column - 1 and column + 1 <= b
            # owned column ranges [c_{i-1}, c_i), the last one closed, tile [0, nx]
            owned = [(d.cuts[i], d.cuts[i + 1]) for i in range(n)]
            owned[-1] = (owned[-1][0], nx + 1)
            assert owned[0][0] == 0 and owned[-1][1] == nx + 1
            assert all(lo < hi for lo, hi in owned)
            assert all(owned[i][1] == owned[i + 1][0] for i in range(n - 1))
    assert accepted > 1000


GEOMETRY_SPECS = {"waveguide": dict(problem="waveguide", k=10.0, nppwl=10),
                  "cavity": dict(problem="cavity", k=10.0, nppwl=10),
                  "wedge": dict(problem="wedge", omega=12.0 * np.pi, nppwl=8)}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("problem", sorted(GEOMETRY_SPECS))
def test_strip_geometry(problem, n):
    spec = ProblemSpec(**GEOMETRY_SPECS[problem], subdomains=n, overlap_cells=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        system = BenchContext(spec).system
    d, nx = system.decomp, system.grid.nx
    for i, sv in enumerate(system.solvers):
        a, b = d.spans[i]
        assert sv.span == (a, b)
        # the trace for strip i+1 is read at its left edge, the one for
        # strip i-1 at its right edge, each with the normal of that side
        to_right = (d.spans[i + 1][0], "left") if i + 1 < n else None
        to_left = (d.spans[i - 1][1], "right") if i > 0 else None
        assert sv.sends == (to_right, to_left)
        read = [x[0] for x in (to_right, to_left) if x is not None]
        assert sv.window == (min(read) - a - 1, max(read) - a + 1)
        assert 0 <= sv.window[0] and sv.window[1] <= b - a
        assert sv.owned == (d.cuts[i], d.cuts[i + 1] if i + 1 < n else nx + 1)
        assert a <= sv.owned[0] and sv.owned[1] <= b + 1
def test_overlap_depth():
    d = build_strips(100, 4, 4)
    for i in range(3):
        a_next = d.spans[i + 1][0]
        b_prev = d.spans[i][1]
        assert b_prev - a_next == 4


def test_width_bound_violation_raises():
    with pytest.raises(ValueError, match="twice the overlap"):
        build_strips(40, 4, 8)


def test_width_bound_waivable():
    with pytest.warns(UserWarning, match="twice the overlap"):
        d = build_strips(40, 4, 8, enforce_width_bound=False)
    assert not d.width_bound_ok
    assert d.nstrips == 4


def test_thin_strips_with_large_overlap_rejected():
    # cut spacing 2.5 cells against 4 overlap cells: interfaces would leave
    # the domain no matter what the width flag says
    with pytest.raises(ValueError, match="leaves the domain"):
        build_strips(20, 8, 4, enforce_width_bound=False)


def test_rejects_odd_or_tiny_overlap():
    with pytest.raises(ValueError):
        build_strips(100, 4, 3)
    with pytest.raises(ValueError):
        build_strips(100, 4, 0)


def test_rejects_interface_leaving_domain():
    # one cell per strip: even the smallest overlap pushes interfaces out
    with pytest.raises(ValueError):
        build_strips(8, 8, 2, enforce_width_bound=False)


def test_rejects_single_strip():
    with pytest.raises(ValueError, match="at least 2"):
        build_strips(100, 1, 4)
