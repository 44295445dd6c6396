import math
from dataclasses import replace

import numpy as np
import pytest

from twl.scenario import (
    Region,
    Scenario,
    percentile,
    position_tables,
    protocol_bounds,
    run_cdf,
    sample_positions,
    sweep_antennas,
    sweep_bandwidth,
)


@pytest.fixture(scope="module")
def quick_scenario():
    return Scenario.reference_defaults(n_samples=600, seed=77)


@pytest.fixture(scope="module")
def quick_result(quick_scenario):
    return run_cdf(quick_scenario)


def test_region_default_is_diamond():
    region = Region()
    np.testing.assert_allclose(region.centroid, [0.0, 25.0, -10.0], atol=1e-12)
    assert region.contains(np.array([[0.0, 25.0, -10.0]]))[0]
    assert not region.contains(np.array([[40.0, 45.0, -10.0]]))[0]
    assert not region.contains(np.array([[0.0, 25.0, -9.0]]))[0]


def test_region_validation():
    good = Region().vertices
    with pytest.raises(ValueError):
        Region(np.vstack([good[:3], [[0.0, 10.0, -9.0]]]))  # z mismatch
    with pytest.raises(ValueError):
        Region(good[[0, 2, 1, 3]])  # self-intersecting ordering


def test_region_clockwise_winding_accepted():
    region = Region(Region().vertices[::-1])
    assert region.contains(np.array([[0.0, 25.0, -10.0]]))[0]
    assert not region.contains(np.array([[45.0, 45.0, -10.0]]))[0]


def test_sample_positions_inside_region():
    region = Region()
    pts = sample_positions(region, 5000, seed=3)
    assert pts.shape == (5000, 3)
    assert region.contains(pts).all()


def test_sample_positions_deterministic():
    region = Region()
    np.testing.assert_array_equal(
        sample_positions(region, 100, seed=9), sample_positions(region, 100, seed=9)
    )
    assert not np.array_equal(
        sample_positions(region, 100, seed=9), sample_positions(region, 100, seed=10)
    )


def test_sample_positions_centroid():
    pts = sample_positions(Region(), 100000, seed=123)
    np.testing.assert_allclose(pts.mean(axis=0), [0.0, 25.0, -10.0], atol=0.25)


def test_sample_positions_single():
    pts = sample_positions(Region(), 1, seed=0)
    assert Region().contains(pts)[0]


def test_percentile_examples():
    assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
    assert percentile(np.arange(1.0, 101.0), 0.9) == pytest.approx(90.1)
    assert percentile([5.0, 1.0], 0.0) == 1.0
    assert percentile([5.0, 1.0], 1.0) == 5.0


def test_percentile_flags_sort_to_infinity():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    flags = np.array([False, False, True, True])
    assert percentile(vals, 0.25, flags) == pytest.approx(1.75)
    assert percentile(vals, 0.9, flags) == math.inf
    assert percentile(vals, 0.5, np.ones(4, bool)) == math.inf


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_run_cdf_schema_and_monotone_quantiles(quick_result):
    rows = quick_result.quantile_rows
    combos = {(r["protocol"], r["initiator"]) for r in rows}
    assert combos == {(p, i) for p in ("owl", "rlp", "clp") for i in ("bs", "ue")}
    for protocol, initiator in combos:
        sub = [r for r in rows if (r["protocol"], r["initiator"]) == (protocol, initiator)]
        sub.sort(key=lambda r: r["quantile"])
        assert [r["quantile"] for r in sub] == [0.1, 0.5, 0.9]
        pebs = [r["peb_m"] for r in sub]
        oebs = [r["oeb_deg"] for r in sub]
        assert pebs == sorted(pebs)
        assert oebs == sorted(oebs)


def test_run_cdf_protocol_ordering_per_position(quick_result):
    for initiator in ("bs", "ue"):
        clp = quick_result.bounds[("clp", initiator)]
        rlp = quick_result.bounds[("rlp", initiator)]
        assert np.all(clp.peb <= rlp.peb * (1 + 1e-9))
        assert np.all(clp.oeb <= rlp.oeb * (1 + 1e-9))


def test_run_cdf_snr_symmetry(quick_scenario):
    # conjugate-matched codebooks make the two link directions share one SNR:
    # each device's transmit form t[0, 0] is its receive gain |W^H a|^2
    from twl.beamforming import directional_beams, gram_inv_sqrt, reverse_direction
    from twl.geometry import steering
    from twl.kernels import DeviceTables, beam_factors, steering_forms
    from twl.pose import _link_angles_batch, rotation_matrix
    from twl.scenario import sample_positions

    scn = quick_scenario
    positions = sample_positions(scn.region, 100, scn.seed)
    tables = position_tables(scn, positions)
    geo = _link_angles_batch(positions, rotation_matrix(*scn.orientation))
    gains = {}
    bs_dirs = scn.anchor_beam_directions()
    for name, geom, dirs, th, ph in (
        ("bs", scn.bs_array, bs_dirs, geo["theta1"], geo["phi1"]),
        ("ue", scn.ue_array, [reverse_direction(t, p) for t, p in bs_dirs],
         geo["theta2"], geo["phi2"]),
    ):
        w = directional_beams(geom, dirs, "receive").matrix
        device = DeviceTables(*beam_factors(geom, dirs), whitening=gram_inv_sqrt(w))
        t_forms, _ = steering_forms(geom, device, th, ph)
        rx_gain_sq = np.array([
            np.sum(np.abs(w.conj().T @ steering(geom, t, p).a) ** 2) for t, p in zip(th, ph)
        ])
        gains[name] = (t_forms[:, 0, 0].real, rx_gain_sq)
    downlink = gains["bs"][0] * gains["ue"][1]  # anchor transmits
    uplink = gains["ue"][0] * gains["bs"][1]  # terminal transmits
    np.testing.assert_allclose(uplink, downlink, rtol=1e-10)
    assert np.all(np.isfinite(tables.snr_db))


def test_delay_info_owns_its_data(quick_scenario):
    # a view into the (n, 7, 7) channel FIM would keep that whole FIM alive
    tables = position_tables(quick_scenario)
    for link, delay in tables.delay_info.items():
        assert delay.base is None, link


def test_protocol_bounds_validation(quick_scenario):
    tables = position_tables(quick_scenario)
    with pytest.raises(ValueError):
        protocol_bounds(tables, "bad", "bs")
    with pytest.raises(ValueError):
        protocol_bounds(tables, "rlp", "bad")


def test_sweep_bandwidth_monotone(quick_scenario):
    bandwidths = [20e6, 60e6, 125e6, 500e6]
    rows = sweep_bandwidth(quick_scenario, bandwidths)
    by = {}
    for r in rows:
        by.setdefault((r["protocol"], r["initiator"]), []).append((r["w_hz"], r["peb90_m"]))
    for series in by.values():
        vals = [v for _, v in sorted(series)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi * (1 + 1e-12)


def test_sweep_bandwidth_oeb_invariance(quick_scenario):
    tables = position_tables(quick_scenario)
    base = protocol_bounds(tables, "rlp", "bs", delay_scale=1.0)
    wide = protocol_bounds(tables, "rlp", "bs", delay_scale=64.0)
    np.testing.assert_allclose(wide.oeb, base.oeb, rtol=1e-9)
    assert np.all(wide.peb <= base.peb * (1 + 1e-12))


def test_sweep_bandwidth_validation(quick_scenario):
    with pytest.raises(ValueError):
        sweep_bandwidth(quick_scenario, [100e6, 50e6])
    with pytest.raises(ValueError):
        sweep_bandwidth(quick_scenario, [-1.0])


def test_sweep_antennas_consistent_with_cdf_baseline(quick_scenario, quick_result):
    rows = sweep_antennas(quick_scenario, [144], "ue")
    q90 = {r["quantile"]: r for r in quick_result.quantile_rows
           if (r["protocol"], r["initiator"]) == ("rlp", "bs")}[0.9]
    match = [r for r in rows if (r["protocol"], r["initiator"]) == ("rlp", "bs")][0]
    assert match["peb90_m"] == q90["peb_m"]


def test_sweep_antennas_validation(quick_scenario):
    with pytest.raises(ValueError):
        sweep_antennas(quick_scenario, [30], "ue")
    with pytest.raises(ValueError):
        sweep_antennas(quick_scenario, [36], "mid")


def _own_array_scenario(case):
    """A 12x12 scenario whose arrays differ from the default pitch, carrier or plane."""
    from twl.beamforming import SignalConfig
    from twl.geometry import ArrayGeometry

    carrier = 60e9 if case == "60ghz" else 38e9
    sig = SignalConfig.from_link_budget(
        power_w=1e-3, bandwidth=125e6, ns=64, n0=1e-20, carrier=carrier
    )
    lam = sig.wavelength
    spacing = 0.4 * lam if case == "spacing" else None
    return Scenario.reference_defaults(
        signal=sig,
        bs_array=ArrayGeometry(12, 12, lam, spacing=spacing),
        ue_array=ArrayGeometry(
            12, 12, lam, spacing=spacing, plane="xy" if case == "ue-xy" else "xz"
        ),
        n_samples=200,
        seed=4,
    )


@pytest.mark.parametrize("side", ["bs", "ue"])
@pytest.mark.parametrize("case", ["spacing", "60ghz", "ue-xy"])
def test_sweep_antennas_keeps_custom_spacing(case, side):
    """A sweep resizes the scenario's own array and changes nothing else.

    The swept array keeps its wavelength, spacing, plane and centre, so each
    count's rows equal `run_cdf`'s 0.9 quantiles bit for bit, at the
    scenario's own 144 antennas and for an 8x8 array built with the same
    parameters: a 0.4-wavelength pitch, a 60 GHz carrier with the default
    half-wavelength pitch, and a terminal array on the xy plane.
    """
    from twl.geometry import ArrayGeometry

    scn = _own_array_scenario(case)
    own = getattr(scn, f"{side}_array")
    small = ArrayGeometry(8, 8, own.wavelength, own.spacing, own.plane, own.center)
    rows = sweep_antennas(scn, [144, 64], side)
    assert len(rows) == 12
    for count, ref in ((144, scn), (64, replace(scn, **{f"{side}_array": small}))):
        q90 = {(r["protocol"], r["initiator"]): r["peb_m"]
               for r in run_cdf(ref).quantile_rows if r["quantile"] == 0.9}
        for row in (r for r in rows if r["n_antennas"] == count):
            assert row["peb90_m"] == q90[(row["protocol"], row["initiator"])], row


def test_misorientation_degrades_bounds():
    base = Scenario.reference_defaults(n_samples=800, seed=21)
    tilted = Scenario.reference_defaults(
        n_samples=800, seed=21, orientation=(math.radians(30), math.radians(30))
    )
    r0 = run_cdf(base)
    r30 = run_cdf(tilted)
    for key, s0 in r0.bounds.items():
        s30 = r30.bounds[key]
        q0 = percentile(s0.peb, 0.9, ~s0.identifiable)
        q30 = percentile(s30.peb, 0.9, ~s30.identifiable)
        assert q30 > q0, f"{key} did not degrade under mis-orientation"


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario.reference_defaults(n_samples=0)
    with pytest.raises(ValueError):
        Scenario.reference_defaults(protocols=("owl", "xxx"))
    with pytest.raises(ValueError):
        Scenario.reference_defaults(beam_grid="hex")


def test_sector_grid_mode_runs():
    scn = Scenario.reference_defaults(n_samples=50, beam_grid="sector")
    result = run_cdf(scn)
    assert len(result.quantile_rows) == 18
