import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import twl
import twl.scenario
from twl.cli import ConfigError, main, parse_config
from twl.scenario import BoundSamples, Scenario

QUICK = """
# quick smoke configuration
n_positions = 150
seed = 42
n_beams = 9
bs_rows = 6
bs_cols = 6
ue_rows = 6
ue_cols = 6
bandwidths_hz = [50e6, 125e6]
antenna_counts = [36, 64]
"""


def write_config(tmp_path, text=QUICK, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def echo_lines(text):
    return [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]


def test_empty_config_gives_defaults(tmp_path):
    empty = write_config(tmp_path, "")
    cfg = parse_config(empty)
    assert cfg.values == parse_config(None).values
    assert cfg["carrier_hz"] == 38e9
    assert cfg["bandwidth_hz"] == 125e6
    assert cfg["n_symbols"] == 64
    assert cfg["n_beams"] == 25
    assert cfg["bs_rows"] == cfg["ue_cols"] == 12
    assert cfg["n_positions"] == 10000


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


def test_default_config_is_the_library_reference_scenario():
    cli = parse_config(None).scenario()
    ref = Scenario.reference_defaults()
    for f in dataclasses.fields(Scenario):
        assert _same(getattr(cli, f.name), getattr(ref, f.name)), f.name


def test_unknown_key_is_an_error(tmp_path):
    path = write_config(tmp_path, "bandwidth = 1e8\n")
    with pytest.raises(ConfigError, match="unknown key 'bandwidth'"):
        parse_config(path)


def test_out_of_range_value_names_key(tmp_path):
    path = write_config(tmp_path, "bandwidth_hz = -1\n")
    with pytest.raises(ConfigError, match="bandwidth_hz"):
        parse_config(path)


def test_orientation_degrees_to_radians(tmp_path):
    path = write_config(tmp_path, "orientation_deg = [30, 30]\n")
    scn = parse_config(path).scenario()
    assert scn.orientation == pytest.approx((math.pi / 6, math.pi / 6))


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/path.cfg")


def test_non_square_beams_rejected(tmp_path):
    path = write_config(tmp_path, "n_beams = 24\n")
    with pytest.raises(ConfigError, match="n_beams"):
        parse_config(path)


def test_point_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "point.csv"
    assert main(["point", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    lines = data_lines(text)
    assert lines[0] == "px,py,pz,zeta_deg,chi_deg,protocol,initiator,snr_db,peb_m,oeb_deg"
    assert len(lines) == 1 + 6  # header + 3 protocols x 2 initiators
    first = lines[1].split(",")
    assert first[0:3] == ["0", "25", "-10"]
    assert float(first[8]) > 0


def test_cdf_subcommand_schema(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cdf.csv"
    assert main(["cdf", "--config", cfg, "--out", str(out)]) == 0
    lines = data_lines(out.read_text())
    header = lines[0].split(",")
    assert header == ["protocol", "initiator", "quantile", "peb_m", "oeb_deg",
                      "snr_p10_db", "n_unidentifiable"]
    assert len(lines) == 1 + 18  # 3 quantiles x 3 protocols x 2 initiators


def test_sweep_subcommand_schemas(tmp_path):
    cfg = write_config(tmp_path)
    bw = tmp_path / "bw.csv"
    assert main(["sweep-bw", "--config", cfg, "--out", str(bw)]) == 0
    lines = data_lines(bw.read_text())
    assert lines[0] == "w_hz,protocol,initiator,peb90_m"
    assert len(lines) == 1 + 2 * 6

    ant = tmp_path / "ant.csv"
    assert main(["sweep-ant", "--config", cfg, "--out", str(ant)]) == 0
    lines = data_lines(ant.read_text())
    assert lines[0] == "side,n_antennas,protocol,peb90_m"
    labels = {ln.split(",")[2] for ln in lines[1:]}
    assert labels == {"owl-up", "owl-down", "rlp-up", "rlp-down", "clp"}
    assert len(lines) == 1 + 2 * 5


def test_same_seed_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["cdf", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["cdf", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_rows(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["cdf", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["cdf", "--config", cfg, "--out", str(out2), "--seed", "43"]) == 0
    assert data_lines(out1.read_text()) != data_lines(out2.read_text())


def test_seed_override_is_validated_with_the_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert parse_config(cfg, seed=43)["seed"] == 43
    assert parse_config(cfg)["seed"] == 42
    with pytest.raises(ConfigError, match="seed"):
        parse_config(cfg, seed=2**64)
    assert main(["point", "--config", cfg, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_config_echo_is_lossless(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a.csv"
    assert main(["cdf", "--config", cfg, "--out", str(out1)]) == 0
    text = out1.read_text()
    echoed = write_config(tmp_path, "\n".join(echo_lines(text)), name="echo.cfg")
    out2 = tmp_path / "b.csv"
    assert main(["cdf", "--config", echoed, "--out", str(out2)]) == 0
    assert data_lines(out1.read_text()) == data_lines(out2.read_text())


def test_config_file_not_mutated(tmp_path):
    cfg = write_config(tmp_path)
    before = open(cfg, "rb").read()
    main(["point", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert open(cfg, "rb").read() == before


def test_json_format(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "point.json"
    assert main(["point", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["subcommand"] == "point"
    assert doc["metadata"]["config"]["seed"] == 42
    assert doc["columns"][0] == "px"
    assert len(doc["rows"]) == 6

    out = tmp_path / "cdf.json"
    assert main(["cdf", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 18
    assert doc["columns"] == ["protocol", "initiator", "quantile", "peb_m",
                              "oeb_deg", "snr_p10_db", "n_unidentifiable"]


def test_validation_error_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, "bandwidth_hz = -5\n")
    assert main(["cdf", "--config", bad]) == 2
    assert "bandwidth_hz" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, text", [
    ("cdf", "n_positions = 20\nbs_rows = 2\nbs_cols = 2\n"),
    ("sweep-ant", "n_positions = 20\nantenna_counts = [4, 144]\n"),
], ids=["cdf", "sweep-ant"])
def test_singular_beam_set_exits_2(tmp_path, capsys, subcommand, text):
    # 25 beams on a 2x2 array span at most 4 dimensions
    cfg = write_config(tmp_path, text)
    out = tmp_path / "x.csv"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert "singular Gram matrix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["cdf", "sweep-bw", "sweep-ant"])
def test_results_beyond_the_address_space_exit_2(tmp_path, capsys, subcommand):
    # 10^15 positions need petabytes of results, beyond any address space, so
    # the allocation fails before a page is touched, whatever the overcommit
    cfg = write_config(tmp_path, QUICK.replace("= 150", "= 1000000000000000"))
    out = tmp_path / "x.csv"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("twl: error: not enough memory") and "n_positions" in err, err
    assert "Traceback" not in err and not out.exists()

@pytest.mark.parametrize("text, message", [
    ("noise_dbm_hz = -5000\n", "n0 must be positive"),  # underflows to 0 W/Hz
    ("power_dbm = 5000\n", "out of range"),  # overflows the float range
], ids=["noise", "power"])
def test_link_budget_out_of_float_range_exits_2(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text)
    assert main(["point", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_point_outside_region_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, QUICK + "point_m = [100, 100, -10]\n")
    assert main(["point", "--config", cfg]) == 2
    assert "point_m" in capsys.readouterr().err


def test_point_on_the_anchor_is_validation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "region_vertices_m = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 2.0, 0.0], "
        "[0.0, 2.0, 0.0]]\nbeam_grid = \"sector\"\npoint_m = [0.0, 0.0, 0.0]\n",
    )
    assert main(["point", "--config", cfg]) == 2
    assert "point_m" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["cdf", "sweep-bw", "sweep-ant", "point"])
def test_region_spot_on_the_anchor_is_validation_error(tmp_path, capsys, subcommand):
    # one beam aims at the centre of this region, which is the anchor
    cfg = write_config(
        tmp_path,
        "region_vertices_m = [[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], "
        "[-1.0, 1.0, 0.0]]\nn_beams = 1\nn_positions = 20\n",
    )
    assert main([subcommand, "--config", cfg]) == 2
    assert "coincides with the anchor" in capsys.readouterr().err


def test_unwritable_output_path(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["point", "--config", cfg, "--out", "/nonexistent/dir/x.csv"]) == 2


def test_unidentifiable_run_exits_3(tmp_path):
    # a single beam per device leaves the pose EFIM rank deficient everywhere
    cfg = write_config(
        tmp_path,
        "n_positions = 20\nn_beams = 1\nbs_rows = 4\nbs_cols = 4\n"
        "ue_rows = 4\nue_cols = 4\n",
    )
    out = tmp_path / "x.csv"
    assert main(["point", "--config", cfg, "--out", str(out)]) == 3
    rows = data_lines(out.read_text())[1:]
    assert all(row.split(",")[8] == "inf" for row in rows)


@pytest.mark.parametrize("subcommand", ["cdf", "sweep-bw"])
@pytest.mark.parametrize("text", [
    "bs_rows = 1\nbs_cols = 1\n",
    "ue_rows = 1\nue_cols = 12\n",
], ids=["anchor-1x1", "terminal-1x12"])
def test_exactly_singular_angle_efims_exit_3_with_inf_rows(tmp_path, subcommand, text):
    # one beam on these arrays leaves every angle EFIM exactly singular
    cfg = write_config(tmp_path, "n_positions = 20\nn_beams = 1\n" + text)
    out = tmp_path / "x.csv"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 3
    lines = data_lines(out.read_text())
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert rows
    for row in rows:
        if subcommand == "cdf":
            assert row["peb_m"] == row["oeb_deg"] == "inf"
            assert row["n_unidentifiable"] == "20"
        else:
            assert row["peb90_m"] == "inf"


def test_cdf_without_a_finite_quantile_exits_3(tmp_path, monkeypatch):
    # one identifiable position in 20 leaves every quantile, the 0.1 one
    # included, at inf: the table holds no usable bound
    bounds = twl.scenario.protocol_bounds

    def first_position_only(tables, *args, **kwargs):
        b = bounds(tables, *args, **kwargs)
        keep = np.arange(b.peb.shape[-1]) == 0
        return BoundSamples(np.where(keep, b.peb, np.inf), np.where(keep, b.oeb, np.inf))

    monkeypatch.setattr(twl.scenario, "protocol_bounds", first_position_only)
    cfg = write_config(tmp_path, "n_positions = 20\n")
    out = tmp_path / "x.csv"
    assert main(["cdf", "--config", cfg, "--out", str(out)]) == 3
    lines = data_lines(out.read_text())
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 18
    for row in rows:
        assert row["peb_m"] == row["oeb_deg"] == "inf"
        assert row["n_unidentifiable"] == "19"


@pytest.mark.parametrize("subcommand", ["cdf", "sweep-bw", "sweep-ant", "point"])
@pytest.mark.parametrize("text", ["protocols = ['owl', 'owl']\n",
                                  "initiators = ['ue', 'bs', 'ue']\n"],
                         ids=["protocols", "initiators"])
def test_repeated_protocols_or_initiators_exit_2(tmp_path, capsys, subcommand, text):
    # a repeat would write the same rows twice
    cfg = write_config(tmp_path, QUICK + text)
    assert main([subcommand, "--config", cfg]) == 2
    assert "distinct" in capsys.readouterr().err


def test_exactly_singular_jacobian_exits_3(tmp_path):
    # a horizontal link along the terminal's x axis: its location Jacobian
    # has an all-zero chi0 row
    cfg = write_config(
        tmp_path,
        "region_vertices_m = [[5, -5, 0], [20, -5, 0], [20, 5, 0], [5, 5, 0]]\n"
        "point_m = [10, 0, 0]\nbeam_grid = \"sector\"\n",
    )
    out = tmp_path / "x.csv"
    assert main(["point", "--config", cfg, "--out", str(out)]) == 3
    rows = data_lines(out.read_text())[1:]
    assert rows and all(row.split(",")[8] == "inf" for row in rows)


@pytest.mark.parametrize("text", ["power_dbm = 3000\n", "c_m_s = 1e300\n"],
                         ids=["power", "speed"])
def test_extreme_link_budget_exits_3_without_numpy_warnings(tmp_path, text):
    # the overflow makes every bound inf; stderr must not show numpy internals
    cfg = write_config(tmp_path, "n_positions = 20\n" + text)
    src = os.path.dirname(os.path.dirname(twl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "twl.cli", "cdf", "--config", cfg,
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr


def test_stdout_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["point", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "px,py,pz" in captured


def test_floats_have_nine_significant_digits(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cdf.csv"
    main(["cdf", "--config", cfg, "--out", str(out)])
    row = data_lines(out.read_text())[1].split(",")
    peb = row[3]
    digits = peb.replace(".", "").replace("-", "").lstrip("0")
    mantissa = digits.split("e")[0]
    assert len(mantissa) <= 9
    assert abs(float(peb)) > 0
