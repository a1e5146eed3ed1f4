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

    lines = compare.report(rec, rec)
    print("\n".join(lines))
    shots = [line for line in lines if line.startswith("tiny shot")]
    assert len(shots) == len(compare.SHOTS) and len(lines) == len(shots) + 5
    assert all("g bitwise, h bitwise, field bitwise" in line for line in shots)
    assert f"strips {TINY['subdomains']} -> {TINY['subdomains']}" in lines[2]
    assert lines[-1] == "largest relative difference: g bitwise, h bitwise, field bitwise"

    scaled = {k: v * (1 + 1e-10) if k.endswith("/h") else v for k, v in rec["tiny"].items()}
    lines = compare.report(rec, {"tiny": scaled})
    print("\n".join(lines))
    assert all("g bitwise, h 1.00e-10, field bitwise" in line
               for line in lines if line.startswith("tiny shot"))
    assert lines[-1] == "largest relative difference: g bitwise, h 1.00e-10, field bitwise"
