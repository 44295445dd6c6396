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


def _calls(bp, seconds, faults=None, rss=None):
    """Calls in `schedule` order, each tree's seconds, faults and RSS taken in turn.

    Without ``faults`` or ``rss``, every call reads 0 faults and 50 MB.
    """
    calls, taken = [], {"A": 0, "B": 0}
    for tree in bp.schedule(len(seconds["A"])):
        i = taken[tree]
        calls.append({"tree": tree, "seconds": seconds[tree][i],
                      "minor_faults": faults[tree][i] if faults else 0,
                      "max_rss_mb": rss[tree][i] if rss else 50.0})
        taken[tree] += 1
    return calls


def test_schedule_alternates_which_tree_runs_first():
    order = _benchpair().schedule(5)
    assert order == list("ABBAABBAAB")
    pairs = [order[i:i + 2] for i in range(0, len(order), 2)]
    assert all(sorted(p) == ["A", "B"] for p in pairs)


def test_summary_pairs_adjacent_calls():
    bp = _benchpair()
    summary = bp.summarize(_calls(bp, {"A": [1.0, 2.0, 1.0, 4.0], "B": [0.5, 1.0, 2.0, 1.0]}))
    assert summary["ratios"] == [0.5, 0.5, 2.0, 0.25]
    assert summary["median_ratio"] == pytest.approx(0.5)
    assert summary["pairs_won_by_B"] == 3
    # A ran first in pairs 1 and 3, B in pairs 2 and 4
    assert summary["median_ratio_A_first"] == pytest.approx(1.25)
    assert summary["median_ratio_B_first"] == pytest.approx(0.375)
    assert summary["seconds_A"]["median"] == pytest.approx(1.5)
    assert summary["seconds_B"] == pytest.approx({"median": 1.0, "q1": 0.875, "q3": 1.25})


def test_summary_resolves_only_a_gain_wider_than_the_base_spread():
    bp = _benchpair()
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [0.85, 0.86, 0.84, 0.86, 0.85, 0.87, 0.83, 0.85, 0.86, 0.84]
    summary = bp.summarize(_calls(bp, {"A": base, "B": faster}))
    assert summary["pairs_won_by_B"] == 10 and summary["resolved"] is True
    # the same gain, but A's runs spread wider than the gap between the medians
    wide = [1.00, 1.40, 0.90, 1.30, 0.88, 1.35, 0.87, 1.00, 1.30, 0.89]
    summary = bp.summarize(_calls(bp, {"A": wide, "B": faster}))
    assert summary["pairs_won_by_B"] == 10
    a = summary["seconds_A"]
    assert a["median"] - summary["seconds_B"]["median"] < a["q3"] - a["q1"]
    assert summary["resolved"] is False
    # a clear gap, but B won only 8 of 10 pairs
    slow_twice = faster[:8] + [1.50, 1.50]
    summary = bp.summarize(_calls(bp, {"A": base, "B": slow_twice}))
    assert summary["pairs_won_by_B"] == 8 and summary["resolved"] is False


def test_summary_bootstraps_the_median_ratio_deterministically():
    bp = _benchpair()
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    steady = bp.summarize(_calls(bp, {"A": base, "B": [0.9 * a for a in base]}))
    assert steady["median_ratio_ci95"] == pytest.approx([0.9, 0.9])
    spread = [0.85, 0.95, 0.80, 1.10, 0.90, 0.86, 1.05, 0.88, 0.92, 0.83]
    calls = _calls(bp, {"A": base, "B": spread})
    summary = bp.summarize(calls)
    low, high = summary["median_ratio_ci95"]
    assert min(summary["ratios"]) <= low < summary["median_ratio"] < high <= max(summary["ratios"])
    assert bp.summarize(calls)["median_ratio_ci95"] == [low, high]


def test_summary_reports_median_faults_and_peak_rss_per_tree():
    # a worker's peak RSS only rises, so the tree's is its largest; the
    # faults are per call, so the tree's is their median
    bp = _benchpair()
    seconds = {"A": [1.0, 1.0, 1.0, 1.0], "B": [1.0, 1.0, 1.0, 1.0]}
    faults = {"A": [1900, 2100, 1800, 60000], "B": [9000, 8800, 9100, 9300]}
    rss = {"A": [58.5, 58.6, 58.6, 58.6], "B": [54.4, 54.5, 54.5, 54.5]}
    summary = bp.summarize(_calls(bp, seconds, faults, rss))
    assert summary["minor_faults_A"] == 2000 and summary["minor_faults_B"] == 9050
    assert summary["max_rss_mb_A"] == 58.6 and summary["max_rss_mb_B"] == 54.5


def test_faults_name_extra_failures_and_every_check_problem():
    bp = _benchpair()
    calls = [{"tree": "A", "failed": 1, "problems": []},
             {"tree": "B", "failed": 1, "problems": []}]
    assert bp.faults(calls) == []
    calls[1] = {"tree": "B", "failed": 2, "problems": ["exit code 3, expected 0"]}
    assert bp.faults(calls) == ["B failed 2 operations, A 1",
                                "B: check failed: exit code 3, expected 0"]


def test_no_worse_reads_the_benchmark_bounds():
    bp = _benchpair()
    bounds = bp.bounds()
    assert bounds["op_s.p50"] == 0.25 and bounds["peak_rss_mb"] == 0.1


def test_summary_says_whether_b_is_no_worse_within_the_bounds():
    bp = _benchpair()
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    rss = {"A": [50.0] * 10}
    # 20% slower and 5% more memory: within the 0.25 and 0.1 bounds
    summary = bp.summarize(_calls(bp, {"A": base, "B": [1.2 * a for a in base]},
                                  rss={**rss, "B": [52.5] * 10}))
    assert summary["no_worse_seconds"] is True and summary["no_worse_max_rss"] is True
    assert summary["resolved"] is False
    # 30% slower and 15% more memory: beyond them
    summary = bp.summarize(_calls(bp, {"A": base, "B": [1.3 * a for a in base]},
                                  rss={**rss, "B": [57.5] * 10}))
    assert summary["no_worse_seconds"] is False and summary["no_worse_max_rss"] is False
    # a peak RSS that rises call by call is judged by each tree's largest
    summary = bp.summarize(_calls(bp, {"A": base, "B": base},
                                  rss={"A": [40.0] + [50.0] * 9, "B": [40.0] + [54.0] * 9}))
    assert summary["no_worse_max_rss"] is True


def test_no_worse_is_unresolved_when_the_base_spreads_wider_than_the_bound():
    bp = _benchpair()
    # A's quartiles 0.9 and 1.3 lie further apart than 0.25 of its median 1.0
    wide = [1.0, 1.3, 0.9, 1.3, 0.9, 1.3, 0.9, 1.0, 1.0, 1.0]
    summary = bp.summarize(_calls(bp, {"A": wide, "B": [1.1] * 10}))
    a = summary["seconds_A"]
    assert a["q3"] - a["q1"] > 0.25 * a["median"]
    assert summary["no_worse_seconds"] == "unresolved"
    # unless every B call beats every A call
    summary = bp.summarize(_calls(bp, {"A": wide, "B": [0.8] * 10}))
    assert summary["no_worse_seconds"] is True
    # the same rule for the peak RSS, at its bound of 0.1
    assert bp.no_worse([40.0, 40.0, 60.0, 60.0], [52.0] * 4, 0.1, stat=max) == "unresolved"
    assert bp.no_worse([40.0, 40.0, 60.0, 60.0], [39.0] * 4, 0.1, stat=max) is True
