"""tools/compare.py on this checkout: its one-checkout recorder and its report."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import adapter  # noqa: E402
from perfbench.tests.test_perfbench import TINY  # noqa: E402


def load_tool():
    spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reads_bitwise_against_itself_and_the_difference_otherwise(monkeypatch):
    compare = load_tool()
    monkeypatch.setitem(adapter.WORKLOADS, "tiny", TINY)
    rec = {"tiny": {**compare.record_workload("tiny"), **compare.record_direct("tiny")}}

    # the quick-start whose interior strips pivot; it runs in about a second
    rec["coarse quick-start"] = compare.record_quickstart("coarse quick-start")
    paths = [f"{solver} {p}" for solver, ps in compare.PATHS.items() for p in ps]

    lines = compare.report(rec, rec)
    print("\n".join(lines))
    shots = [line for line in lines if line.startswith("tiny shot")]
    assert len(shots) == len(compare.SHOTS) and len(lines) == len(shots) + 5 + len(paths)
    assert all("g bitwise, h bitwise, field bitwise" in line for line in shots)
    assert all(line.endswith(" MB") for line in shots)
    assert f"strips {TINY['subdomains']} -> {TINY['subdomains']}" in lines[2]
    # the two edge strips of the tiny waveguide store one factor, so the
    # stored bytes are an edge strip's and the interior strip's
    assert "distinct factors 2 -> 2" in lines[2]
    solvers = adapter.setup("tiny").system.solvers
    assert rec["tiny"]["factor_bytes"] == solvers[0].lu.nbytes + solvers[1].lu.nbytes
    # every strip of the tiny waveguide has blocks; the edge strips send
    # one trace each, the interior strip two, on each of its two data
    nb = solvers[0].stencil.ny + 1
    assert rec["tiny"]["block_strips"] == 3 and rec["tiny"]["build_s"] > 0
    assert rec["tiny"]["block_bytes"] == (1 + 1 + 4) * nb * nb * 16
    assert f"block bytes {rec['tiny']['block_bytes']} -> {rec['tiny']['block_bytes']}" in lines[2]
    assert "strips with blocks 3 -> 3" in lines[2]
    # the interior strip keeps every node column of X: (n, nb) complex
    kept = solvers[1].stencil.nloc * nb * 16
    assert rec["tiny"]["kept_bytes"] == kept
    assert f"kept column bytes {kept} -> {kept}" in lines[2]
    assert all(f"VmRSS {rec['tiny'][f'shot {i}/vmrss_mb']:.1f} -> " in shots[i]
               for i in compare.SHOTS)
    low, high = rec["tiny"]["setup_min_s"], rec["tiny"]["setup_max_s"]
    assert low <= rec["tiny"]["setup_s"] <= high
    assert f"range {low:.3f}-{high:.3f} -> {low:.3f}-{high:.3f} s" in lines[0]
    # the direct solve, timed as often as the set-ups
    low, high = rec["tiny"]["direct_min_s"], rec["tiny"]["direct_max_s"]
    assert low <= rec["tiny"]["direct_s"] <= high
    direct = [line for line in lines if line.startswith("tiny direct solve")]
    assert f"range {low:.3f}-{high:.3f} -> {low:.3f}-{high:.3f} s, of 3 -> 3 samples" in direct[0]
    coarse = [line for line in lines if line.startswith("coarse quick-start")]
    assert [line.split(":")[0] for line in coarse] == [f"coarse quick-start {p}" for p in paths]
    assert all(line.endswith(", field bitwise") for line in coarse)
    assert "gmres osds: iterations 29 -> 29" in coarse[2]
    assert lines[-1] == ("largest relative difference: g bitwise, h bitwise, field bitwise, "
                         "quick-start field bitwise")

    scaled = {k: v * (1 + 1e-10) if k.endswith("/h") else v for k, v in rec["tiny"].items()}
    moved = {k: v * (1 + 1e-9) if k == "gmres ds/field" else v
             for k, v in rec["coarse quick-start"].items()}
    lines = compare.report(rec, {"tiny": scaled, "coarse quick-start": moved})
    print("\n".join(lines))
    assert all("g bitwise, h 1.00e-10, field bitwise" in line
               for line in lines if line.startswith("tiny shot"))
    assert [line.rsplit(", ", 1)[1] for line in lines if line.startswith("coarse")] == [
        "field " + ("1.00e-09" if p == "gmres ds" else "bitwise") for p in paths]
    assert lines[-1] == ("largest relative difference: g bitwise, h 1.00e-10, field bitwise, "
                         "quick-start field 1.00e-09")
