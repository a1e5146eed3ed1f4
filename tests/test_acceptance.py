"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints one PASS/FAIL line per sub-clause and fails if any clause
fails, so a red criterion still reports every measured value.
"""

import math
import warnings

import numpy as np
import pytest

from helmsweep.bench import ProblemSpec, run, run_methods, build_problem
from helmsweep.grid import assemble_global, solve_direct
from helmsweep.krylov import gmres_right
from helmsweep.substructure import TraceVector
from helmsweep.symbols import SymbolParams, rho_factor, C_factor
from conftest import dense_matrix, dense_parts, make_case
from oracles import find_vanishing_overlap, verify_symbol_algebra


def check(results, name, ok, detail):
    results.append((name, bool(ok)))
    print(f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}")


def finish(criterion, results):
    failed = [name for name, ok in results if not ok]
    print(f"ACCEPTANCE {criterion}: {'PASS' if not failed else 'FAIL'} "
          f"({len(results) - len(failed)}/{len(results)} clauses)")
    assert not failed, f"criterion {criterion} failed clauses: {failed}"


def within(value, reference, rel):
    return isinstance(value, int) and abs(value - reference) <= rel * reference


# ---------------------------------------------------------------- criterion 1

def test_acceptance_1_structural_identities():
    results = []
    for n in range(2, 7):
        system = make_case(n, cells_per_strip=6)
        _, p = dense_parts(system)
        ow = p["ml"] + p["mr"]
        p = np.linalg.matrix_power(ow, n - 1)
        rel = np.linalg.norm(p) / max(np.linalg.norm(ow) ** (n - 1), 1.0)
        check(results, f"one-way nilpotency N={n}", rel <= 1e-13, f"rel {rel:.2e}")

        eye = np.eye(math.prod(system.layout))
        s = dense_matrix(system.solve_oneway, system.layout)
        a = eye - ow
        err = max(np.linalg.norm(s @ a - eye), np.linalg.norm(a @ s - eye))
        check(results, f"one-way two-sided inverse N={n}", err <= 1e-10,
              f"err {err:.2e}")

    system = make_case(3, cells_per_strip=6)
    t, p = dense_parts(system)
    split = np.linalg.norm(t - p["ml"] - p["al"] - p["ar"] - p["mr"])
    check(results, "exchange equals sum of parts N=3",
          split <= 1e-11 * np.linalg.norm(t), f"err {split:.2e}")

    size = math.prod(system.layout)
    eye = np.eye(size)
    sel = np.zeros(size)
    sel[:size // 2] = 1.0
    rng = np.random.default_rng(1)
    r = rng.standard_normal(size) * (1.0 + 0.5j)
    half = np.linalg.solve(eye - p["ml"], sel * r)
    h_r = np.linalg.solve(eye - p["mr"], p["ar"] @ half + (1.0 - sel) * r)
    h_l = p["ml"] @ half + p["al"] @ h_r + sel * r
    got = system.solve_double_sweep(TraceVector(system.layout, r.astype(complex)))
    err = np.linalg.norm(got.data - (h_l + h_r)) / np.linalg.norm(h_l + h_r)
    check(results, "double-sweep dense cascade oracle N=3", err <= 1e-11,
          f"rel {err:.2e}")

    nm1 = system.nstrips - 1
    scale = max(max(np.linalg.norm(m) for m in p.values()) ** 2, 1.0)
    rels = {
        "Ml^(N-1)": np.linalg.matrix_power(p["ml"], nm1),
        "Mr^(N-1)": np.linalg.matrix_power(p["mr"], nm1),
        "Ml.Mr": p["ml"] @ p["mr"], "Mr.Ml": p["mr"] @ p["ml"],
        "Al^2": p["al"] @ p["al"], "Ar^2": p["ar"] @ p["ar"],
        "Al.Ml": p["al"] @ p["ml"], "Ar.Mr": p["ar"] @ p["mr"],
        "Ml.Ar": p["ml"] @ p["ar"], "Mr.Al": p["mr"] @ p["al"],
    }
    worst = max(np.linalg.norm(m) / scale for m in rels.values())
    check(results, "ten discrete cancellation relations N=3", worst <= 1e-13,
          f"worst rel {worst:.2e}")

    params = SymbolParams(k=20.0, xi=7.0,
                          strips=tuple((0.0, 1.0) for _ in range(3)), delta=0.05)
    rep = verify_symbol_algebra(params)
    worst_sym = max(rep.relations.values())
    check(results, "ten symbol cancellation relations N=3",
          rep.passed and worst_sym <= 1e-13, f"worst {worst_sym:.2e}")
    finish(1, results)


# ---------------------------------------------------------------- criterion 2

def test_acceptance_2_monodomain_consistency():
    results = []
    spec = ProblemSpec(problem="waveguide", k=20.0, subdomains=5,
                       overlap_cells=4, tolerances=(1e-10,),
                       preconditioner="osds")
    record = run(spec)
    grid, kfield, bc, f = build_problem(spec)
    direct = solve_direct(assemble_global(grid, kfield, bc, f)).reshape(grid.shape)
    err = np.linalg.norm(record.solution - direct) / np.linalg.norm(direct)
    check(results, "reconstructed field vs direct solve", err <= 1e-8,
          f"rel err {err:.2e}, {record.counts['1e-10']} iterations")
    finish(2, results)


# ---------------------------------------------------------------- criterion 3

def test_acceptance_3_symbol_estimates():
    results = []
    k, width = 20.0, 1.0
    for n in (2, 4, 8):
        strips = tuple((0.0, width) for _ in range(n))
        worst = 0.0
        for xi in np.linspace(1e-3, 0.9 * k, 200):
            p = SymbolParams(k=k, xi=float(xi), strips=strips, delta=width / 4)
            rj2 = abs(p.rho_j()) ** 2
            bound = rj2 * 4.0 / (1.0 - rj2) ** 2 * (n - 1) ** 2
            worst = max(worst, rho_factor(p) / bound)
        check(results, f"propagative contraction bound N={n}",
              worst <= 1.0 + 1e-12, f"worst ratio {worst:.6f}")

    for n in (2, 4, 8):
        res = find_vanishing_overlap(k, width, n)
        check(results, f"vanishing-mode overlap bound N={n}", res.holds,
              f"delta {res.delta:.3g}, worst excess {res.worst_excess:.2e}")

    for n in (2, 4, 8):
        strips = tuple((0.0, width) for _ in range(n))
        c = C_factor(SymbolParams(k=k, xi=1e-4, strips=strips, delta=width / 4))
        check(results, f"quality factor limit N={n}", c >= (n - 1) ** 2,
              f"C(0+) {c:.3f} vs {(n - 1) ** 2}")

    for n in (2, 4, 8):
        strips = tuple((0.0, width) for _ in range(n))
        rep = verify_symbol_algebra(SymbolParams(k=k, xi=7.0, strips=strips,
                                                 delta=width / 4))
        worst = max(rep.power_errors.values())
        check(results, f"swept-residual even-power identity N={n}",
              worst <= 1e-12, f"worst {worst:.2e}")
    finish(3, results)


# ------------------------------------------------------- criteria 4 through 7

WAVEGUIDE_REFS = {
    "jacobi": {5: 28, 10: 65, 20: 165},
    "ds": {5: 18, 10: 37, 20: 74},
    "osds": {5: 9, 10: 12, 20: 23},
}


@pytest.fixture(scope="module")
def waveguide_runs():
    out = {}
    for n in (5, 10, 20):
        spec = ProblemSpec(problem="waveguide", k=20.0, subdomains=n,
                           overlap_cells=4)
        out[n] = run_methods(spec)
    return out


@pytest.fixture(scope="module")
def overlap_runs():
    out = {}
    for m in (2, 4, 8, 16):
        spec = ProblemSpec(problem="waveguide", k=20.0, subdomains=20,
                           overlap_cells=m)
        out[m] = run_methods(spec, preconditioners=("osds",))["osds"]
    return out


@pytest.fixture(scope="module")
def wedge_runs():
    out = {}
    for n in (5, 10, 20):
        spec = ProblemSpec(problem="wedge", omega=40.0 * np.pi, subdomains=n,
                           overlap_cells=16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out[n] = run_methods(spec)
    return out


def test_acceptance_4_waveguide_iteration_trends(waveguide_runs):
    results = []
    for method in ("jacobi", "ds", "osds"):
        for n in (5, 10, 20):
            got = waveguide_runs[n][method].counts["1e-06"]
            ref = WAVEGUIDE_REFS[method][n]
            check(results, f"{method} N={n} within 30% of {ref}",
                  within(got, ref, 0.30), f"measured {got}")
    for n in (5, 10, 20):
        j = waveguide_runs[n]["jacobi"].counts["1e-06"]
        d = waveguide_runs[n]["ds"].counts["1e-06"]
        o = waveguide_runs[n]["osds"].counts["1e-06"]
        check(results, f"ordering osds <= ds <= jacobi N={n}",
              o <= d <= j, f"osds {o}, ds {d}, jacobi {j}")
    o5 = waveguide_runs[5]["osds"].counts["1e-06"]
    o20 = waveguide_runs[20]["osds"].counts["1e-06"]
    check(results, "osds growth sublinear in subdomain count",
          o20 / o5 < 4.0, f"iters(20)/iters(5) = {o20 / o5:.2f}")
    finish(4, results)


def test_acceptance_5_overlap_monotonicity(overlap_runs):
    results = []
    refs = dict(zip((2, 4, 8, 16), (27, 23, 20, 18)))
    counts = {m: overlap_runs[m].counts["1e-06"] for m in (2, 4, 8, 16)}
    seq = [counts[m] for m in (2, 4, 8, 16)]
    check(results, "osds counts non-increasing in overlap",
          all(a >= b for a, b in zip(seq, seq[1:])), f"counts {seq}")
    for m in (2, 4, 8, 16):
        check(results, f"osds delta={m}h within 30% of {refs[m]}",
              within(counts[m], refs[m], 0.30), f"measured {counts[m]}")
    finish(5, results)


def test_acceptance_6_wedge_trends(wedge_runs):
    results = []
    for n in (5, 10, 20):
        j = wedge_runs[n]["jacobi"].counts["1e-06"]
        d = wedge_runs[n]["ds"].counts["1e-06"]
        o = wedge_runs[n]["osds"].counts["1e-06"]
        check(results, f"ordering osds <= ds <= jacobi N={n}",
              o <= d <= j, f"osds {o}, ds {d}, jacobi {j}")
    refs = {5: 6, 10: 7, 20: 8}
    for n in (5, 10, 20):
        got = wedge_runs[n]["osds"].counts["0.001"]
        check(results, f"osds 1e-3 count N={n} within 3 of {refs[n]}",
              isinstance(got, int) and abs(got - refs[n]) <= 3,
              f"measured {got}")
    finish(6, results)


# ----------------------------------------------------------- every count

# The GMRES iterations of every run above, to (1e-6, 1e-3).  A count marked *
# has a residual within NEAR of its tolerance, at the count or one iteration
# before it, so roundoff could move it by one.  A change that moves a count
# edits this table and names the count and the reason.
TOLERANCES = (1e-6, 1e-3)
NEAR = 0.01
PINNED_COUNTS = {
    "waveguide N=5 jacobi": (24, 16),
    "waveguide N=5 ds": (4, 3),
    "waveguide N=5 osds": (9, 5),
    "waveguide N=10 jacobi": ("53*", 34),
    "waveguide N=10 ds": (5, 3),
    "waveguide N=10 osds": (10, 6),
    "waveguide N=20 jacobi": ("109*", 72),
    "waveguide N=20 ds": (6, 4),
    "waveguide N=20 osds": (12, 7),
    "waveguide N=20 overlap 2h osds": (13, 7),
    "waveguide N=20 overlap 4h osds": (12, 7),
    "waveguide N=20 overlap 8h osds": (12, 7),
    "waveguide N=20 overlap 16h osds": (12, 7),
    "wedge N=5 jacobi": (24, 12),
    "wedge N=5 ds": (7, 4),
    "wedge N=5 osds": (13, 7),
    "wedge N=10 jacobi": (52, 27),
    "wedge N=10 ds": (9, 5),
    "wedge N=10 osds": (17, 10),
    "wedge N=20 jacobi": (96, 50),
    "wedge N=20 ds": (12, 7),
    "wedge N=20 osds": (23, 13),
}


def test_every_count_is_pinned(waveguide_runs, overlap_runs, wedge_runs):
    runs = {f"{problem} N={n} {method}": rec
            for problem, by_n in (("waveguide", waveguide_runs), ("wedge", wedge_runs))
            for n, by_method in by_n.items() for method, rec in by_method.items()}
    runs.update({f"waveguide N=20 overlap {m}h osds": rec for m, rec in overlap_runs.items()})
    measured = {}
    for name, rec in runs.items():
        counts = []
        for tol in TOLERANCES:
            count = rec.counts[f"{tol:g}"]
            if not isinstance(count, int):
                counts.append(count)
                continue
            at, before = rec.history[count] / tol, rec.history[count - 1] / tol
            near = at >= 1.0 - NEAR or before <= 1.0 + NEAR
            counts.append(f"{count}*" if near else count)
            print(f"  {name} to {tol:g}: {count} iterations, residual/tolerance "
                  f"{at:.4f}, one iteration before {before:.4f}{' (near)' if near else ''}")
        measured[name] = tuple(counts)
    moved = [f"{name}: pinned {PINNED_COUNTS.get(name)}, measured {measured.get(name)}"
             for name in {**PINNED_COUNTS, **measured}
             if PINNED_COUNTS.get(name) != measured.get(name)]
    assert not moved, "counts moved:\n" + "\n".join(moved)


def test_acceptance_7_krylov_quality(waveguide_runs, overlap_runs, wedge_runs):
    results = []
    rng = np.random.default_rng(3)
    n = 20
    a = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rep = gmres_right(lambda v: a @ v, b, tol=1e-12, maxit=50)
    err = np.linalg.norm(a @ rep.solution - b) / np.linalg.norm(b)
    check(results, "dense 20x20 oracle", err <= 1e-10, f"rel err {err:.2e}")

    records = [rec for runs in (waveguide_runs, wedge_runs)
               for by_method in runs.values() for rec in by_method.values()]
    records += list(overlap_runs.values())
    worst_jump = max(max(np.diff(rec.history), default=0.0) for rec in records)
    check(results, "residual histories monotone", worst_jump <= 1e-14,
          f"worst increase {worst_jump:.2e} over {len(records)} runs")
    worst_defect = max(rec.ortho_defect for rec in records)
    check(results, "Arnoldi orthonormality across runs", worst_defect <= 1e-8,
          f"worst defect {worst_defect:.2e}")
    finish(7, results)
