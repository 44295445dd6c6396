import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import twl.kernels
import twl.scenario
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
    np.testing.assert_allclose(region.vertices.mean(axis=0), [0.0, 25.0, -10.0], atol=1e-12)
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
    # unidentifiable positions carry inf bounds
    vals = np.array([math.inf, 1.0, math.inf, 2.0])
    assert percentile(vals, 0.25) == pytest.approx(1.75)
    assert percentile(vals, 0.9) == math.inf
    assert percentile(np.full(4, math.inf), 0.5) == math.inf


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
    with pytest.raises(ValueError, match="1.5"):
        percentile([1.0], [0.5, 1.5])


def test_percentile_of_several_quantiles_sorts_once(monkeypatch):
    """A sequence of quantiles gives each one's float, bit for bit, from one sort."""
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(1001)
    vals[rng.choice(1001, 150, replace=False)] = math.inf
    qs = (0.0, 0.1, 0.5, 0.8, 0.9, 1.0)
    single = [percentile(vals, q) for q in qs]
    sorts = []
    sort = np.sort
    monkeypatch.setattr(np, "sort", lambda a: sorts.append(1) or sort(a))
    assert percentile(vals, qs) == single
    assert percentile(vals, list(qs)) == single
    assert sorts == [1, 1]
    assert percentile(vals, [0.5]) == single[2:3]
    assert isinstance(percentile(vals, 0.5), float)


def test_run_cdf_sorts_each_reported_array_once(quick_scenario, monkeypatch):
    # the SNR, then each distinct pair's PEB and OEB, each read at every
    # quantile: the two clp pairs share one array of each
    sorts = []
    sort = np.sort
    monkeypatch.setattr(np, "sort", lambda a: sorts.append(a.shape) or sort(a))
    run_cdf(quick_scenario)
    assert sorts == [(quick_scenario.n_samples,)] * (1 + 2 * 5)


def test_run_cdf_computes_clp_once(quick_scenario):
    # 4/(1/J_f + 1/J_b) is symmetric and both initiators read the "clp"
    # factors, so the two clp pairs are one result
    bounds = run_cdf(quick_scenario).bounds
    assert bounds[("clp", "bs")] is bounds[("clp", "ue")]
    assert len({id(b) for b in bounds.values()}) == 5


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
    from oracles import steering_bundle
    from twl.beamforming import directional_beams, reverse_direction
    from twl.kernels import codebook_tables, steering_forms
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
        w = directional_beams(geom, dirs, "receive")
        t_forms, _ = steering_forms(geom, codebook_tables(geom, w), th, ph)
        rx_gain_sq = np.array([
            np.sum(np.abs(w.matrix.conj().T @ steering_bundle(geom, t, p).a) ** 2)
            for t, p in zip(th, ph)
        ])
        gains[name] = (t_forms[0, 0], rx_gain_sq)
    downlink = gains["bs"][0] * gains["ue"][1]  # anchor transmits
    uplink = gains["ue"][0] * gains["bs"][1]  # terminal transmits
    np.testing.assert_allclose(uplink, downlink, rtol=1e-10)
    assert np.all(np.isfinite(tables.snr_db))


def test_delay_info_owns_its_data(quick_scenario):
    # a view into the (7, 7, n) channel FIM would keep that whole FIM alive
    tables = position_tables(quick_scenario)
    for link, delay in tables.delay_info.items():
        assert delay.base is None, link


def test_position_tables_carry_the_positions_last(quick_scenario):
    # matrix and term axes first, so each stage reads contiguous rows of positions
    n = 7
    tables = position_tables(quick_scenario, sample_positions(quick_scenario.region, n, 3))
    assert tables.positions.shape == (n, 3) and tables.snr_db.shape == (n,)
    assert tables.jacobian.shape == (5, 5, n) and tables.jacobian.flags.c_contiguous
    for link in ("bs_to_ue", "ue_to_bs"):
        assert tables.angle_efim[link].shape == (2, 2, 2, n)
        assert tables.delay_info[link].shape == (n,)
    for key, factors in tables.factors.items():
        assert factors.angle.shape == (2, 2, 2, n), key
        assert factors.pos.shape == factors.ori.shape == factors.trace.shape == (n,), key


def test_angle_efim_is_a_view_of_the_link_factors(quick_scenario):
    tables = position_tables(quick_scenario)
    assert "angle_efim" not in {f.name for f in fields(tables)}
    for link in ("bs_to_ue", "ue_to_bs"):
        assert tables.angle_efim[link] is tables.factors[link].angle


def _chunk_width(monkeypatch, chunk):
    """The module's pipeline chunk, or ``chunk`` for both it and the kernel's step.

    BLAS blocks the kernel's products by their width, which moves their last
    bits (a few 1e-15 relative between steps of 37 and 1024). The module's
    chunk is a multiple of the kernel's step, so both see the same steps as
    an unchunked call; a width that is not gets the kernel's step set to it.
    """
    if chunk is None:
        return twl.scenario._CHUNK
    monkeypatch.setattr(twl.kernels, "_CHUNK", chunk)
    monkeypatch.setattr(twl.scenario, "_CHUNK", chunk)
    return chunk


@pytest.mark.parametrize("chunk", [37, None], ids=["odd", "module"])
def test_chunked_tables_equal_one_chunk(monkeypatch, chunk):
    """Chunking the positions changes no SNR, bound or row.

    `run_cdf` and `sweep_bandwidth` stream n positions, no multiple of the
    chunk, in chunks and then as one chunk. The position [10, 0, 0] has an
    exactly singular Jacobian (a horizontal link along the terminal's x
    axis), so its block inverse divides by det B = 0 for that position
    alone, and its angle EFIMs are singular too: its angle term is not
    finite, while its delay term, which reads only J's delay column, is
    c²/w. It must be the only unidentifiable position.
    """
    chunk = _chunk_width(monkeypatch, chunk)
    n = chunk + 1100
    scn = Scenario.reference_defaults(n_samples=n)
    positions = sample_positions(scn.region, n, 5)
    positions[chunk + 5] = [10.0, 0.0, 0.0]
    handed_out = {}

    def successive_rows(region, k, rng):
        # each stream's generator continues where its last chunk ended
        lo = handed_out.get(rng, 0)
        handed_out[rng] = lo + k
        return positions[lo:lo + k]

    monkeypatch.setattr(twl.scenario, "sample_positions", successive_rows)
    bandwidths = [20e6, 125e6, 1e9]

    def run():
        snr = [tables.snr_db for _, _, tables in twl.scenario._stream([scn], positions)]
        return np.concatenate(snr), run_cdf(scn), sweep_bandwidth(scn, bandwidths)

    snr, chunked, chunked_bw = run()
    monkeypatch.setattr(twl.scenario, "_CHUNK", n)
    whole_snr, whole, whole_bw = run()
    one_pass = position_tables(scn, positions)
    np.testing.assert_array_equal(snr, whole_snr)
    np.testing.assert_array_equal(snr, one_pass.snr_db)
    assert chunked.quantile_rows == whole.quantile_rows
    assert chunked_bw == whole_bw
    assert not np.isfinite(one_pass.factors["clp"].pos[chunk + 5])
    j_tau = one_pass.jacobian[:, 4, chunk + 5]
    assert (j_tau @ j_tau) * scn.signal.c**2 == pytest.approx(1.0, rel=1e-13)
    for pair, a in chunked.bounds.items():
        b = whole.bounds[pair]
        np.testing.assert_array_equal(a.peb, b.peb)
        np.testing.assert_array_equal(a.oeb, b.oeb)
        assert np.flatnonzero(~np.isfinite(a.peb)).tolist() == [chunk + 5], pair
        assert np.flatnonzero(~np.isfinite(a.oeb)).tolist() == [chunk + 5], pair


def test_positions_near_the_nadir_read_unidentifiable():
    # 1e-7 m off the anchor's nadir, sinθ₁ = 1e-8: the angles are defined,
    # but the azimuths are all but unobservable, so every pair reads inf
    # rows where the link geometry used to raise `DegenerateGeometryError`
    tables = position_tables(Scenario.reference_defaults(), np.array([[0.0, 1e-7, -10.0]]))
    for protocol in ("owl", "rlp", "clp"):
        for initiator in ("bs", "ue"):
            b = protocol_bounds(tables, protocol, initiator)
            assert b.peb.tolist() == b.oeb.tolist() == [math.inf], (protocol, initiator)


@pytest.mark.parametrize("chunk", [37, None], ids=["odd", "module"])
def test_chunked_sweep_equals_one_chunk(monkeypatch, chunk):
    chunk = _chunk_width(monkeypatch, chunk)
    scn = Scenario.reference_defaults(n_samples=chunk + 1100, seed=6)
    chunked = sweep_antennas(scn, [36, 144], "bs")
    monkeypatch.setattr(twl.scenario, "_CHUNK", scn.n_samples)
    assert chunked == sweep_antennas(scn, [36, 144], "bs")


@pytest.mark.parametrize("chunk", [37, None], ids=["odd", "module"])
def test_streamed_positions_are_one_generators_draws(monkeypatch, chunk):
    # each chunk continues one generator, so the streamed positions are
    # those of one `sample_positions` call over all n, bit for bit
    n = 2 * twl.scenario._CHUNK + 100  # a multiple of neither 37 nor 4096
    chunk = _chunk_width(monkeypatch, chunk)
    scn = Scenario.reference_defaults(n_samples=n, seed=14)
    streamed = [tables.positions for _, _, tables in twl.scenario._stream([scn])]
    assert {len(p) for p in streamed[:-1]} == {chunk}
    np.testing.assert_array_equal(np.concatenate(streamed),
                                  sample_positions(scn.region, n, scn.seed))


def test_batch_calls_sample_one_chunk_at_a_time(monkeypatch):
    # no batch entry point builds all n positions at once, and each samples
    # its n positions exactly once
    monkeypatch.setattr(twl.scenario, "_CHUNK", 256)
    sampled = []
    sample = twl.scenario.sample_positions
    monkeypatch.setattr(twl.scenario, "sample_positions",
                        lambda region, k, rng: sampled.append(k) or sample(region, k, rng))
    scn = Scenario.reference_defaults(n_samples=600, seed=9)
    for call in (lambda: run_cdf(scn), lambda: sweep_bandwidth(scn, [20e6, 1e9]),
                 lambda: sweep_antennas(scn, [36, 144], "ue")):
        sampled.clear()
        call()
        assert sampled == [256, 256, 88]


def test_sweeps_read_clp_once_for_both_initiators(quick_scenario):
    def clp_cells(rows, key):
        by = {}
        for r in rows:
            if r["protocol"] == "clp":
                by.setdefault(r[key], {})[r["initiator"]] = r["peb90_m"]
        return by

    bw = clp_cells(sweep_bandwidth(quick_scenario, [20e6, 125e6, 1e9]), "w_hz")
    ant = clp_cells(sweep_antennas(quick_scenario, [36, 144], "bs"), "n_antennas")
    assert len(bw) == 3 and len(ant) == 2
    for cells in (*bw.values(), *ant.values()):
        assert cells["bs"] == cells["ue"], cells


def _traced_run_cdf(n_chunks):
    """(bytes of the bounds, bytes held after, peak bytes) of one `run_cdf` call.

    A small call first imports what numpy loads lazily, so that only the
    measured call is counted.
    """
    run_cdf(Scenario.reference_defaults(n_samples=2))
    scn = Scenario.reference_defaults(n_samples=n_chunks * twl.scenario._CHUNK, seed=3)
    tracemalloc.start()
    try:
        result = run_cdf(scn)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    distinct = {id(b): b for b in result.bounds.values()}.values()
    bounds = sum(a.nbytes for b in distinct for a in vars(b).values())
    return bounds, held, peak


def test_run_cdf_transient_memory_does_not_grow_with_n():
    """The peak above what `run_cdf` keeps is one chunk's, whatever n.

    While it streams, `run_cdf` keeps the SNR and each distinct pair's
    bounds; it samples each chunk's positions as it goes, so it keeps no
    positions. Measured with `tracemalloc` at 2 and 8 chunks of positions:
    the peak minus those bytes may grow by at most 5% of what they grow by.
    Keeping the positions (24 B per position), the Jacobian (200 B) or the
    three angle EFIMs (384 B) would grow it by more than that.
    """
    retained, extra = [], []
    for n_chunks in (2, 8):
        bounds, _, peak = _traced_run_cdf(n_chunks)
        retained.append(bounds + n_chunks * twl.scenario._CHUNK * 8)
        extra.append(peak - retained[-1])
    assert extra[1] - extra[0] <= 0.05 * (retained[1] - retained[0]), (retained, extra)


def test_run_cdf_retains_only_its_bounds():
    """What `run_cdf` returns holds each distinct pair's bounds and no per-position table.

    The six pairs hold five distinct `BoundSamples`: clp's two initiators
    share one, and each holds its PEB and OEB, with no flag array beside
    them. Measured with `tracemalloc` at 2 and 8 chunks of positions: the
    memory the result holds grows as those bounds' bytes do, within 4 kB,
    not by a sixth pair, a Jacobian or an angle EFIM per position.
    """
    (b2, held2, _), (b8, held8, _) = _traced_run_cdf(2), _traced_run_cdf(8)
    assert b8 - b2 == 5 * 6 * twl.scenario._CHUNK * (8 + 8)
    assert abs((held8 - held2) - (b8 - b2)) <= 4096, (held2, held8, b2, b8)


def test_sweep_antennas_shares_the_pose_and_the_other_forms(monkeypatch):
    """k distinct counts send (1 + k)·n directions through the kernel.

    Per chunk, the unswept device's forms are computed once for all counts
    and each swept array's once; each distinct array's codebook is built
    once per call, two `directional_beams` calls each. Recomputing the
    unswept device's forms per count would send 2·k·n directions. The
    Jacobians' pose terms are computed once per chunk, whatever the number
    of counts: 600 positions in chunks of 256 take 3 `pose_grams` calls on
    5x5 batches, where one per count would take 9.
    """
    monkeypatch.setattr(twl.scenario, "_CHUNK", 256)
    calls = {"directions": 0, "codebooks": 0, "grams": 0}
    shapes = set()
    steering_forms, directional_beams = twl.scenario.steering_forms, twl.scenario.directional_beams
    pose_grams = twl.scenario.pose_grams

    def counted_grams(jac):
        calls["grams"] += 1
        shapes.add(jac.shape[:2])
        return pose_grams(jac)

    def counted_forms(*args, theta, **kwargs):
        calls["directions"] += len(theta)
        return steering_forms(*args, theta=theta, **kwargs)

    def counted_beams(*args, **kwargs):
        calls["codebooks"] += 1
        return directional_beams(*args, **kwargs)

    monkeypatch.setattr(twl.scenario, "steering_forms", counted_forms)
    monkeypatch.setattr(twl.scenario, "directional_beams", counted_beams)
    monkeypatch.setattr(twl.scenario, "pose_grams", counted_grams)
    scn = Scenario.reference_defaults(n_samples=600, seed=9)
    counts = [36, 64, 144]
    for side in ("bs", "ue"):
        calls.update(directions=0, codebooks=0, grams=0)
        sweep_antennas(scn, counts, side)
        assert calls == {"directions": (1 + 3) * 600, "codebooks": 2 * (1 + 3),
                         "grams": 3}, side
    assert shapes == {(5, 5)}


def test_sweep_antennas_holds_one_count_of_tables():
    """Three counts peak no higher than one: each count's tables are freed first.

    At 2 chunks of positions one count's own tables (SNR, delays and
    factors; the Jacobian is shared) take about 4.5 MB; the peaks, by
    `tracemalloc`, may differ by at most a quarter of that.
    """
    scn = Scenario.reference_defaults(n_samples=2 * twl.scenario._CHUNK, seed=8)
    peaks = []
    for counts in ([144], [144, 144, 144]):
        tracemalloc.start()
        try:
            sweep_antennas(scn, counts, "bs")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_count = scn.n_samples * 8 * (1 + 2 + 3 * (16 + 6))
    assert peaks[1] - peaks[0] <= one_count / 4, (peaks, one_count)


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
    with pytest.raises(ValueError, match="antenna counts must be perfect squares"):
        sweep_antennas(quick_scenario, [-4], "bs")
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

    The swept array keeps its wavelength, spacing and plane, so each
    count's rows equal `run_cdf`'s 0.9 quantiles bit for bit, at the
    scenario's own 144 antennas and for an 8x8 array built with the same
    parameters: a 0.4-wavelength pitch, a 60 GHz carrier with the default
    half-wavelength pitch, and a terminal array on the xy plane.
    """
    from twl.geometry import ArrayGeometry

    scn = _own_array_scenario(case)
    own = getattr(scn, f"{side}_array")
    small = ArrayGeometry(8, 8, own.wavelength, own.spacing, own.plane)
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
        q0 = percentile(s0.peb, 0.9)
        q30 = percentile(s30.peb, 0.9)
        assert q30 > q0, f"{key} did not degrade under mis-orientation"


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario.reference_defaults(n_samples=0)
    with pytest.raises(ValueError):
        Scenario.reference_defaults(protocols=("owl", "xxx"))
    with pytest.raises(ValueError):
        Scenario.reference_defaults(beam_grid="hex")


@pytest.mark.parametrize("field", ["protocols", "initiators"])
def test_scenario_rejects_repeated_entries(field):
    # a repeat would evaluate, and write, the same rows twice
    repeated = {"protocols": ("owl", "rlp", "owl"), "initiators": ("ue", "ue")}[field]
    with pytest.raises(ValueError, match=f"{field} must be distinct"):
        Scenario.reference_defaults(**{field: repeated})


def test_scenario_rejects_arrays_of_another_wavelength():
    """A signal of another carrier needs arrays of its wavelength.

    Replacing only the signal kept 38 GHz arrays under a 60 GHz path gain
    and ran silently: the steering used the arrays' wavelength and the path
    gain the signal's.
    """
    scn = Scenario.reference_defaults()
    with pytest.raises(ValueError, match="bs_array wavelength"):
        replace(scn, signal=replace(scn.signal, carrier=60e9))
    lam = scn.signal.wavelength
    with pytest.raises(ValueError, match="ue_array wavelength"):
        replace(scn, ue_array=replace(scn.ue_array, wavelength=lam * (1.0 + 1e-11)))
    replace(scn, ue_array=replace(scn.ue_array, wavelength=lam * (1.0 + 1e-13)))


def test_sector_grid_mode_runs():
    scn = Scenario.reference_defaults(n_samples=50, beam_grid="sector")
    result = run_cdf(scn)
    assert len(result.quantile_rows) == 18
