"""Acceptance suite: one test per acceptance criterion, at fixed tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing tests; failing tests show them in the captured output).
The heavyweight region evaluations are shared per session.
"""

import math
import time

import numpy as np
import pytest

from oracles import efim, joint_efim_oracle
from test_fim_oracle import closed_and_oracle, oracle_case
from test_pose import finite_difference_jacobian, random_region_pose
from twl.cli import main
from twl.geometry import SPEED_OF_LIGHT
from twl.pose import location_jacobian
from twl.scenario import (
    Scenario,
    percentile,
    position_tables,
    protocol_bounds,
    sweep_antennas,
    sweep_bandwidth,
)

O30 = (math.radians(30.0), math.radians(30.0))
COMBOS = [(p, i) for p in ("owl", "rlp", "clp") for i in ("bs", "ue")]


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def full_o0():
    scenario = Scenario.reference_defaults()
    return scenario, position_tables(scenario)


@pytest.fixture(scope="module")
def full_o30():
    scenario = Scenario.reference_defaults(orientation=O30)
    return scenario, position_tables(scenario)


def peb90(tables, protocol, initiator, delay_scale=1.0):
    s = protocol_bounds(tables, protocol, initiator, delay_scale)
    return percentile(s.peb, 0.9)


def oeb_quantile(tables, protocol, initiator, q):
    s = protocol_bounds(tables, protocol, initiator)
    return percentile(s.oeb, q)


def test_criterion_1_closed_form_fim_matches_waveform_oracle(rng):
    start = time.monotonic()
    worst_diag = 0.0
    worst_off = 0.0
    for _ in range(20):
        closed, oracle = closed_and_oracle(oracle_case(rng))
        diag_rel = np.abs(np.diag(closed) - np.diag(oracle)) / np.abs(np.diag(oracle))
        worst_diag = max(worst_diag, diag_rel.max())
        off = np.abs(closed - oracle)
        np.fill_diagonal(off, 0.0)
        worst_off = max(worst_off, off.max() / np.linalg.norm(oracle))
    elapsed = time.monotonic() - start
    ok = worst_diag < 1e-3 and worst_off < 1e-3 and elapsed < 120.0
    report(
        "criterion 1 (oracle FIM equivalence)", ok,
        f"diag rel {worst_diag:.2e}, off/||J|| {worst_off:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_efim_additivity_matches_joint_schur(rng):
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        dim_x = int(rng.integers(1, 5))
        j1, j2, joint = joint_efim_oracle(
            rng, dim_x, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        )
        total = efim(j1, range(dim_x)) + efim(j2, range(dim_x))
        worst = max(worst, np.abs(total - joint).max() / np.linalg.norm(joint))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report("criterion 2 (EFIM additivity)", ok, f"rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_jacobian_matches_finite_differences(rng):
    start = time.monotonic()
    lam = SPEED_OF_LIGHT / 38e9
    worst = 0.0
    for _ in range(1000):
        pose = random_region_pose(rng)
        analytic = location_jacobian(pose)
        reference = finite_difference_jacobian(pose, lam)
        worst = max(worst, np.abs(analytic - reference).max() / np.abs(reference).max())
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report("criterion 3 (Jacobian correctness)", ok, f"rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_snr_coverage():
    start = time.monotonic()
    scenario = Scenario.reference_defaults()
    tables = position_tables(scenario)
    elapsed = time.monotonic() - start
    p10 = percentile(tables.snr_db, 0.1)
    ok = p10 >= 16.0 and elapsed < 60.0
    report("criterion 4 (SNR coverage)", ok, f"p10 = {p10:.2f} dB, {elapsed:.1f}s")
    assert ok


def test_criterion_5_protocol_ordering(full_o0, full_o30):
    failures = []
    for label, (_, tables) in (("o0", full_o0), ("o30", full_o30)):
        for initiator in ("bs", "ue"):
            clp = protocol_bounds(tables, "clp", initiator)
            rlp = protocol_bounds(tables, "rlp", initiator)
            owl = protocol_bounds(tables, "owl", initiator)
            if not np.all(clp.peb <= rlp.peb * (1 + 1e-9)):
                failures.append(f"{label}/{initiator}: PEB clp>rlp")
            if not np.all(clp.oeb <= rlp.oeb * (1 + 1e-9)):
                failures.append(f"{label}/{initiator}: OEB clp>rlp")
            bwd = "ue_to_bs" if initiator == "bs" else "bs_to_ue"
            fwd = "bs_to_ue" if initiator == "bs" else "ue_to_bs"
            better = tables.delay_info[fwd] > tables.delay_info[bwd] / 3.0
            if not np.all(rlp.peb[better] <= owl.peb[better] * (1 + 1e-9)):
                failures.append(f"{label}/{initiator}: rlp worse despite timing gain")
            if not np.all(rlp.peb[~better] >= owl.peb[~better] * (1 - 1e-9)):
                failures.append(f"{label}/{initiator}: rlp better despite timing loss")
    ok = not failures
    report("criterion 5 (protocol ordering)", ok, "; ".join(failures) or "all positions")
    assert ok, failures


def test_criterion_6_rlp_approaches_owl_at_full_bandwidth(full_o0):
    _, tables = full_o0
    gaps = {}
    for initiator in ("bs", "ue"):
        r = peb90(tables, "rlp", initiator)
        o = peb90(tables, "owl", initiator)
        gaps[initiator] = abs(r - o) / o
    ok = all(g <= 0.01 for g in gaps.values())
    report(
        "criterion 6 (RLP ~ OWL at 125 MHz)", ok,
        ", ".join(f"{k}: {100 * v:.2f}%" for k, v in gaps.items()),
    )
    assert ok, gaps


def test_criterion_7_bandwidth_floor(full_o0, full_o30):
    start = time.monotonic()
    failures = []
    details = []
    for label, (scenario, _), w_floor in (("o0", full_o0, 125e6), ("o30", full_o30, 60e6)):
        rows = sweep_bandwidth(scenario, [w_floor, 1e9])
        table = {(r["w_hz"], r["protocol"], r["initiator"]): r["peb90_m"] for r in rows}
        for protocol, initiator in COMBOS:
            lo = table[(w_floor, protocol, initiator)]
            hi = table[(1e9, protocol, initiator)]
            rel = abs(lo - hi) / hi
            details.append(f"{label}/{protocol}-{initiator}: {100 * rel:.1f}%")
            if rel > 0.05:
                failures.append(details[-1])
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 600.0
    report("criterion 7 (bandwidth floor)", ok,
           ("; ".join(failures) or f"max dev within 5%") + f", {elapsed:.1f}s")
    assert ok, failures


def test_criterion_8_uplink_downlink_asymmetry(full_o0):
    _, tables = full_o0
    up = peb90(tables, "rlp", "bs")
    down = peb90(tables, "rlp", "ue")
    peb_ok = up <= down * (1 + 1e-9)
    worst_oeb = 0.0
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        a = oeb_quantile(tables, "rlp", "bs", q)
        b = oeb_quantile(tables, "rlp", "ue", q)
        worst_oeb = max(worst_oeb, abs(a - b) / b)
    oeb_ok = worst_oeb <= 1e-6
    ok = peb_ok and oeb_ok
    report(
        "criterion 8 (uplink/downlink)", ok,
        f"peb90 up {up:.4f} <= down {down:.4f}; OEB curve rel diff {worst_oeb:.2e}",
    )
    assert ok


def test_criterion_9_misorientation_losses(full_o0, full_o30):
    _, t0 = full_o0
    _, t30 = full_o30
    cases = (("clp", "bs", 0.42, 6.8), ("rlp", "bs", 0.54, 8.8), ("rlp", "ue", 0.80, 11.5))
    peb_losses, oeb_losses, failures = [], [], []
    for protocol, initiator, ref_peb, ref_oeb in cases:
        dp = peb90(t30, protocol, initiator) - peb90(t0, protocol, initiator)
        do = math.degrees(
            oeb_quantile(t30, protocol, initiator, 0.9)
            - oeb_quantile(t0, protocol, initiator, 0.9)
        )
        peb_losses.append(dp)
        oeb_losses.append(do)
        if not 0.5 * ref_peb <= dp <= 1.5 * ref_peb:
            failures.append(
                f"PEB loss {protocol}-{initiator} {dp:.3f} m outside "
                f"[{0.5 * ref_peb:.3f}, {1.5 * ref_peb:.3f}]"
            )
        if not 0.5 * ref_oeb <= do <= 1.5 * ref_oeb:
            failures.append(
                f"OEB loss {protocol}-{initiator} {do:.2f} deg outside "
                f"[{0.5 * ref_oeb:.2f}, {1.5 * ref_oeb:.2f}]"
            )
    if not peb_losses[0] < peb_losses[1] < peb_losses[2]:
        failures.append(
            "PEB loss ordering clp < rlp-up < rlp-down violated: "
            + ", ".join(f"{v:.3f}" for v in peb_losses)
        )
    if not oeb_losses[0] < oeb_losses[1] < oeb_losses[2]:
        failures.append(
            "OEB loss ordering clp < rlp-up < rlp-down violated: "
            + ", ".join(f"{v:.2f}" for v in oeb_losses)
        )
    ok = not failures
    report(
        "criterion 9 (mis-orientation losses)", ok,
        f"PEB {['%.3f' % v for v in peb_losses]} m, OEB {['%.2f' % v for v in oeb_losses]} deg"
        + ("; " + "; ".join(failures) if failures else ""),
    )
    assert ok, failures


def test_criterion_10_antenna_trends():
    scenario30 = Scenario.reference_defaults(orientation=O30)
    rows = sweep_antennas(scenario30, [144, 196], "ue")
    table = {(r["n_antennas"], r["protocol"], r["initiator"]): r["peb90_m"] for r in rows}
    failures = []
    for protocol, initiator in COMBOS:
        if table[(196, protocol, initiator)] < table[(144, protocol, initiator)] * 0.999:
            failures.append(f"more terminal antennas improved {protocol}-{initiator}")
    scenario0 = Scenario.reference_defaults()
    rows = sweep_antennas(scenario0, [36, 196], "bs")
    table = {(r["n_antennas"], r["protocol"], r["initiator"]): r["peb90_m"] for r in rows}
    for protocol, initiator in COMBOS:
        if table[(196, protocol, initiator)] > table[(36, protocol, initiator)] * 1.001:
            failures.append(f"more anchor antennas worsened {protocol}-{initiator}")
    ok = not failures
    report("criterion 10 (antenna trends)", ok, "; ".join(failures) or "both trends hold")
    assert ok, failures


def test_criterion_11_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "n_positions = 250\nseed = 7\nn_beams = 9\n"
        "bs_rows = 6\nbs_cols = 6\nue_rows = 6\nue_cols = 6\n"
        "bandwidths_hz = [50e6, 125e6]\nantenna_counts = [36, 64]\n"
    )
    mismatches = []
    for sub in ("cdf", "sweep-bw", "sweep-ant", "point"):
        out1 = tmp_path / f"{sub}-1.csv"
        out2 = tmp_path / f"{sub}-2.csv"
        assert main([sub, "--config", str(config), "--out", str(out1)]) == 0
        assert main([sub, "--config", str(config), "--out", str(out2)]) == 0
        if out1.read_bytes() != out2.read_bytes():
            mismatches.append(sub)
    ok = not mismatches
    report("criterion 11 (determinism)", ok, "; ".join(mismatches) or "all subcommands")
    assert ok, mismatches
