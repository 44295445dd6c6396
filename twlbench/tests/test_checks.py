"""The benchmark's own tests: every check passes on real tables and fails on
a corrupted copy; a call that ends in a traceback counts as failed.

    PYTHONPATH=src python3 -m pytest -q twlbench/tests
"""

import copy
import io
import json
import math
import os
from contextlib import redirect_stdout

import numpy as np
import pytest

import checks
import tracing
import workload
from twl.scenario import Region

SMALL = "n_positions = 300\nseed = 7\n"


def _table(tmp_path, subcommand, config_text, n_rows):
    run = workload.Run("point", str(tmp_path))
    argv = run.argv(config_text)
    argv[0] = subcommand
    code, _, error = workload.call_cli(argv)
    assert code == 0, error
    return run._read_rows(subcommand, n_rows)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tables")
    return {
        "cdf": _table(tmp, "cdf", SMALL, 18),
        "sweep-bw": _table(tmp, "sweep-bw", SMALL, 60),
        "sweep-ant": _table(tmp, "sweep-ant", SMALL, 25),
        "point": _table(tmp, "point", "point_m = [3.0, 20.0, -10.0]\n", 6),
        "point4x": _table(tmp, "point", "point_m = [3.0, 20.0, -10.0]\n"
                          f"power_dbm = {workload.FOUR_X_POWER_DB!r}\n", 6),
        "bw125": _table(tmp, "sweep-bw", SMALL + "bandwidths_hz = [125e6]\n", 6),
    }


def _find(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def test_checks_pass_on_real_tables(tables):
    checks.check_cdf(tables["cdf"])
    checks.check_sweep_bw(tables["sweep-bw"])
    checks.check_sweep_ant(tables["sweep-ant"])
    checks.check_sweep_ant_matches_bw(tables["sweep-ant"], tables["bw125"], 144, 125e6)
    checks.check_point(tables["point"])
    checks.check_power_scaling(tables["point"], tables["point4x"])


def test_point_matches_single_pose_path(tables):
    from twl.cli import parse_config

    reference = workload.SinglePose(parse_config(None).scenario()).bounds([3.0, 20.0, -10.0])
    checks.check_point_matches(tables["point"], reference)
    ref = dict(reference)
    peb, oeb, condition = ref[("clp", "ue")]
    ref[("clp", "ue")] = (peb * (1 + 1e3 * condition * 2.0**-52), oeb, condition)
    with pytest.raises(checks.CheckFailed, match="single-pose"):
        checks.check_point_matches(tables["point"], ref)


@pytest.mark.parametrize("table,check,match", [
    ("cdf", checks.check_cdf, {"protocol": "clp", "initiator": "ue", "quantile": 0.9}),
    ("point", checks.check_point, {"protocol": "clp", "initiator": "bs"}),
    ("sweep-ant", checks.check_sweep_ant, {"protocol": "clp", "n_antennas": 100}),
])
def test_clp_above_rlp_fails(tables, table, check, match):
    rows = copy.deepcopy(tables[table])
    key = "peb90_m" if table == "sweep-ant" else "peb_m"
    rlp = "rlp-down" if table == "sweep-ant" else "rlp"
    rlp_match = dict(match, protocol=rlp)
    _find(rows, **match)[key] = _find(rows, **rlp_match)[key] * 1.001
    with pytest.raises(checks.CheckFailed, match="clp above"):
        check(rows)


def test_sweep_row_rising_with_bandwidth_fails(tables):
    rows = copy.deepcopy(tables["sweep-bw"])
    _find(rows, protocol="rlp", initiator="ue", w_hz=500e6)["peb90_m"] = _find(
        rows, protocol="rlp", initiator="ue", w_hz=250e6)["peb90_m"] * 1.01
    with pytest.raises(checks.CheckFailed, match="rises"):
        checks.check_sweep_bw(rows)


def test_swapped_quantiles_fail(tables):
    rows = copy.deepcopy(tables["cdf"])
    low = _find(rows, protocol="owl", initiator="bs", quantile=0.1)
    high = _find(rows, protocol="owl", initiator="bs", quantile=0.9)
    low["quantile"], high["quantile"] = high["quantile"], low["quantile"]
    with pytest.raises(checks.CheckFailed, match="decreases"):
        checks.check_cdf(rows)


@pytest.mark.parametrize("column,value", [("n_unidentifiable", 1), ("peb_m", math.inf),
                                          ("oeb_deg", 0.0)])
def test_unidentifiable_or_nonfinite_cdf_fails(tables, column, value):
    rows = copy.deepcopy(tables["cdf"])
    _find(rows, protocol="owl", initiator="ue", quantile=0.5)[column] = value
    with pytest.raises(checks.CheckFailed):
        checks.check_cdf(rows)


def test_two_snr_values_fail(tables):
    rows = copy.deepcopy(tables["point"])
    rows[3]["snr_db"] += 1e-9
    with pytest.raises(checks.CheckFailed, match="snr_db"):
        checks.check_point(rows)


def test_sweep_ant_differing_from_sweep_bw_fails(tables):
    rows = copy.deepcopy(tables["sweep-ant"])
    _find(rows, protocol="owl-down", n_antennas=144)["peb90_m"] *= 1 + 1e-15
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_sweep_ant_matches_bw(rows, tables["bw125"], 144, 125e6)


def test_power_scaling_off_by_one_ulp_fails(tables):
    rows = copy.deepcopy(tables["point4x"])
    rows[0]["peb_m"] = np.nextafter(rows[0]["peb_m"], 1.0)
    with pytest.raises(checks.CheckFailed, match="not half"):
        checks.check_power_scaling(tables["point"], rows)


def test_schema_and_row_count(tables):
    doc = {"metadata": {"subcommand": "point"}, "columns": checks.SCHEMAS["point"],
           "rows": [[r[c] for c in checks.SCHEMAS["point"]] for r in tables["point"]]}
    assert checks.table_rows(doc, "point", 6) == tables["point"]
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.table_rows(dict(doc, rows=doc["rows"][:5]), "point", 6)
    with pytest.raises(checks.CheckFailed, match="columns"):
        checks.table_rows(dict(doc, columns=doc["columns"][::-1]), "point", 6)


def test_traceback_counts_as_failed(tmp_path, monkeypatch):
    run = workload.Run("point", str(tmp_path))
    code, seconds, error = workload.call_cli(run.argv("point_m = [0.0, 0.0, -10.0]\n"))
    assert code is None and seconds > 0
    assert "DegenerateGeometryError" in error

    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(workload.twl.cli, "main", crash)
    code, _, error = workload.call_cli(run.argv("point_m = [1.0, 30.0, -10.0]\n"))
    assert code is None and "RuntimeError: boom" in error


def _run(args):
    out = io.StringIO()
    with redirect_stdout(out):
        assert workload.main(args) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_point_round_counts_nadir_as_failed():
    result = _run(["--workload", "point", "--seed", "5", "--seconds", "0"])
    assert result["correct"], result["problems"]
    assert (result["attempted"], result["failed"]) == (workload.POINTS_PER_ROUND + 1, 1)
    assert len(result["op_s"]) == workload.POINTS_PER_ROUND
    assert "DegenerateGeometryError" in result["errors"][0]


def test_traced_point_run_accounts_for_its_operations():
    result = _run(["--workload", "point", "--seed", "5", "--seconds", "0", "--trace", "1"])
    metrics = result["metrics"]
    assert result["failed"] == 2  # one nadir call in each of the two rounds
    assert set(metrics) == set(_per_layer_names())
    assert metrics["geometry.steering_calls"] == 100
    assert metrics["kernels.directions"] == 2
    assert metrics["protocols.efims_inverted"] == 6
    self_sum = sum(metrics[name] for name in tracing.SELF_TIMES)
    assert 0.5 * metrics["trace.op_s"] < self_sum < 1.5 * metrics["trace.op_s"]


def test_self_times_sum_to_the_root_span(tmp_path):
    tracer = tracing.Tracer()
    run = workload.Run("point", str(tmp_path))
    code, _, error = workload.call_cli(run.argv("point_m = [1.0, 30.0, -10.0]\n"), tracer)
    assert code == 0, error
    root = next(s for s in tracer.spans if s[0] == tracing.ROOT)
    layers = tracer.op_layers()
    assert sum(layers["self"].values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert layers["counts"]["geometry.steering_calls"] == 100


def _per_layer_names():
    with open(os.path.join(workload.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def test_rounds_are_seeded_and_inside_the_region():
    first = next(workload.rounds("point", 9))
    again = next(workload.rounds("point", 9))
    other = next(workload.rounds("point", 10))
    assert first == again and first != other
    assert [nadir for _, nadir in first] == [False] * workload.POINTS_PER_ROUND + [True]
    points = np.array([json.loads(text.split("=", 1)[1]) for text, _ in first])
    assert Region().contains(points).all()
    assert next(workload.rounds("sweep-bw", 9)) == [
        ("n_positions = 10000\nseed = 9\n", False)]
