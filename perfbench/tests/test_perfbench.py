"""The benchmark's own checks, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from faultcast.engine import NetworkState, Trace
from faultcast.topology import build_complete
from perfbench import metrics, run
from perfbench.bench import measure
from perfbench.checks import audit_budget, exact_budget
from perfbench.workloads import FULL, SMOKE

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("alpha, m, budget", [(0.7, 90, 63), (0.29, 100, 29), (0.5, 7, 3)])
def test_exact_budget(alpha, m, budget):
    assert exact_budget(alpha, m) == budget


def test_audit_flags_over_budget_and_short_rows():
    topo = build_complete(4)  # c = 3, so the budget is max(2, floor(alpha*m))
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, 10, 5, 0)  # exactly the budget
    assert audit_budget(trace, 0.5, exhaustive=True) == (0, 0)
    trace.record(state, 10, 6, 0)  # injected: one kill over budget
    trace.record(state, 10, 4, 0)  # one kill short of the budget
    assert audit_budget(trace, 0.5, exhaustive=True) == (1, 1)
    assert audit_budget(trace, 0.5, exhaustive=False) == (1, 0)


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_untraced_reports_end_to_end_metrics(name):
    outcome = measure(ROOT, SMOKE[name], seed=0, seconds=0, trace=False, setup_repeats=1)
    result = outcome.result()
    assert result["correct"], outcome.lines
    assert set(result["metrics"]) == {m[0] for m in metrics.END_TO_END}
    assert all(v["unit"] == metrics.UNITS[k] for k, v in result["metrics"].items())
    assert any(line.startswith("metric fail_rate ") for line in outcome.lines)


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_traced_reproduces_untraced(name):
    outcome = measure(ROOT, SMOKE[name], seed=0, seconds=0, trace=True)
    result = outcome.result()
    assert result["correct"], outcome.lines
    assert set(result["metrics"]) == {m[0] for m in metrics.PER_LAYER}
    assert all(v["unit"] == metrics.UNITS[k] for k, v in result["metrics"].items())
    untraced, traced = outcome.results["untraced"], outcome.results["traced"]
    assert [(r.label, r.row, r.fingerprint) for r in untraced] == \
        [(r.label, r.row, r.fingerprint) for r in traced]


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(FULL)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [m[:3] for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in metrics.PER_LAYER]


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kn-dense",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
