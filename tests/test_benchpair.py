"""The paired A/B timing script's schedule and summary (`tools/benchpair.py`)."""

import importlib.util
from pathlib import Path

import pytest


def _benchpair():
    path = Path(__file__).resolve().parents[1] / "tools" / "benchpair.py"
    spec = importlib.util.spec_from_file_location("benchpair", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_schedule_alternates_which_tree_runs_first():
    order = _benchpair().schedule(5)
    assert order == list("ABBAABBAAB")
    pairs = [order[i:i + 2] for i in range(0, len(order), 2)]
    assert all(sorted(p) == ["A", "B"] for p in pairs)


def test_summary_pairs_adjacent_calls():
    bp = _benchpair()
    seconds = {"A": [1.0, 2.0, 1.0, 4.0], "B": [0.5, 1.0, 2.0, 1.0]}
    calls, taken = [], {"A": 0, "B": 0}
    for tree in bp.schedule(4):
        calls.append({"tree": tree, "seconds": seconds[tree][taken[tree]]})
        taken[tree] += 1
    summary = bp.summarize(calls)
    assert summary["ratios"] == [0.5, 0.5, 2.0, 0.25]
    assert summary["median_ratio"] == pytest.approx(0.5)
    assert summary["pairs_won_by_B"] == 3
    # A ran first in pairs 1 and 3, B in pairs 2 and 4
    assert summary["median_ratio_A_first"] == pytest.approx(1.25)
    assert summary["median_ratio_B_first"] == pytest.approx(0.375)
    assert summary["seconds_A"]["median"] == pytest.approx(1.5)
    assert summary["seconds_B"] == pytest.approx({"median": 1.0, "q1": 0.875, "q3": 1.25})


def test_faults_name_extra_failures_and_every_check_problem():
    bp = _benchpair()
    calls = [{"tree": "A", "failed": 1, "problems": []},
             {"tree": "B", "failed": 1, "problems": []}]
    assert bp.faults(calls) == []
    calls[1] = {"tree": "B", "failed": 2, "problems": ["exit code 3, expected 0"]}
    assert bp.faults(calls) == ["B failed 2 operations, A 1",
                                "B: check failed: exit code 3, expected 0"]
