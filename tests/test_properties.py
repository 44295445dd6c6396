"""Exact laws of the batched pipeline, checked as properties.

Each property draws a terminal orientation and a position seed and samples a
few hundred positions of the reference scenario. The examples are derandomized,
so every run checks the same cases.

Per pose, PEB² = ⟨A₁⁻¹, G_pos⟩ + 1/(w·|J_τ|²) and OEB² = Σ_d ⟨A_d⁻¹, G_d⟩,
with A₁ the anchor block of the angle EFIM, w the protocol's delay weight
and |J_τ|² = 1/c² the squared delay column of the Jacobian. The laws in the
delay information therefore hold exactly, not only to a tolerance: OEB does
not read w at all, and a region scaled by s scales G_pos by s² and OEB by s.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twl.scenario
from oracles import efim
from twl.beamforming import directional_beams, reverse_direction
from twl.fim import _channel_matrix, channel_fim, fim_from_forms
from twl.pose import Pose, _link_angles_batch, channel_geometry, location_jacobian, rotation_matrix
from twl.protocols import PROTOCOLS, assemble, delay_weight, efim_factors, pose_grams
from twl.scenario import INITIATORS, Region, Scenario, position_tables, protocol_bounds

EPS = np.finfo(np.float64).eps
REL_TOL = 1e-9  # slack of a bound inequality, as in the benchmark's checks
#: delay-information scales of a 10 MHz to 1 GHz sweep around 125 MHz
DELAY_SCALES = (0.0064, 0.04, 1.0, 16.0, 64.0)
LINKS = {"bs": ("bs_to_ue", "ue_to_bs"), "ue": ("ue_to_bs", "bs_to_ue")}  # (fwd, bwd)

property_check = settings(max_examples=12, deadline=None, derandomize=True)
orientations = st.tuples(st.floats(-45.0, 45.0), st.floats(-45.0, 45.0))
seeds = st.integers(0, 2**32 - 1)


def _scenario(orientation_deg, seed, n_samples=200) -> Scenario:
    return Scenario.reference_defaults(
        n_samples=n_samples, seed=seed,
        orientation=tuple(math.radians(a) for a in orientation_deg),
    )


def _all_bounds(tables, scenario):
    return {(p, i): protocol_bounds(tables, p, i)
            for p in scenario.protocols for i in scenario.initiators}


@functools.lru_cache(maxsize=1)
def _codebooks():
    """(transmit, receive) beams per side of the reference scenario."""
    scn = Scenario.reference_defaults()
    bs_dirs = scn.anchor_beam_directions()
    ue_dirs = [reverse_direction(th, ph) for th, ph in bs_dirs]
    return {
        side: (directional_beams(geom, dirs, "transmit"),
               directional_beams(geom, dirs, "receive"))
        for side, geom, dirs in (("bs", scn.bs_array, bs_dirs),
                                 ("ue", scn.ue_array, ue_dirs))
    }


@property_check
@given(orientations, seeds)
def test_clp_is_bitwise_initiator_symmetric(orientation_deg, seed):
    scn = _scenario(orientation_deg, seed)
    tables = position_tables(scn)
    bs = protocol_bounds(tables, "clp", "bs")
    ue = protocol_bounds(tables, "clp", "ue")
    np.testing.assert_array_equal(bs.peb, ue.peb)
    np.testing.assert_array_equal(bs.oeb, ue.oeb)


@property_check
@given(orientations, seeds)
def test_four_times_the_power_halves_the_bounds_exactly(orientation_deg, seed):
    scn = _scenario(orientation_deg, seed)
    louder = dataclasses.replace(
        scn, signal=dataclasses.replace(scn.signal, et=4.0 * scn.signal.et)
    )
    base = _all_bounds(position_tables(scn), scn)
    loud = _all_bounds(position_tables(louder), louder)
    for key, b in base.items():
        np.testing.assert_array_equal(loud[key].peb, b.peb / 2.0, err_msg=str(key))
        np.testing.assert_array_equal(loud[key].oeb, b.oeb / 2.0, err_msg=str(key))


@property_check
@given(orientations, seeds)
def test_single_pose_api_agrees_with_the_batched_pipeline(orientation_deg, seed):
    scn = _scenario(orientation_deg, seed, n_samples=20)
    tables = position_tables(scn)
    batched = _all_bounds(tables, scn)
    beams = _codebooks()
    arrays = {"bs": scn.bs_array, "ue": scn.ue_array}
    for k, point in enumerate(tables.positions):
        pose = Pose(point, *scn.orientation)
        cg = channel_geometry(pose, scn.signal.wavelength, c=scn.signal.c)
        jac = location_jacobian(pose, c=scn.signal.c)
        # Anchor-first parameter order for both initiators, as the pipeline
        # uses: the initiator only decides which link is "forward".
        down = channel_fim("forward", arrays["bs"], arrays["ue"],
                           beams["bs"][0], beams["ue"][1], cg, scn.signal)
        up = channel_fim("backward", arrays["ue"], arrays["bs"],
                         beams["ue"][0], beams["bs"][1], cg, scn.signal)
        for initiator, fwd, bwd in (("bs", down, up), ("ue", up, down)):
            for protocol in PROTOCOLS:
                single = assemble(protocol, fwd, bwd, jac)
                b = batched[(protocol, initiator)]
                assert math.isfinite(single.peb) == np.isfinite(b.peb[k])
                if not math.isfinite(single.peb):
                    continue
                tol = 16.0 * EPS * single.condition
                assert abs(b.peb[k] - single.peb) <= tol * single.peb
                assert abs(b.oeb[k] - single.oeb) <= tol * single.oeb


@property_check
@given(orientations, seeds)
def test_clp_never_exceeds_rlp(orientation_deg, seed):
    tables = position_tables(_scenario(orientation_deg, seed))
    for initiator in INITIATORS:
        clp = protocol_bounds(tables, "clp", initiator)
        rlp = protocol_bounds(tables, "rlp", initiator)
        assert np.all(clp.peb <= rlp.peb * (1.0 + REL_TOL))
        assert np.all(clp.oeb <= rlp.oeb * (1.0 + REL_TOL))


@property_check
@given(orientations, seeds)
def test_rlp_beats_owl_exactly_where_forward_delay_info_exceeds_a_third(
    orientation_deg, seed
):
    # rlp and owl share A; rlp's weight 4/(1/J_f + 1/J_b) exceeds owl's J_b
    # exactly when J_f > J_b/3
    tables = position_tables(_scenario(orientation_deg, seed))
    for initiator, (fwd, bwd) in LINKS.items():
        j_f, j_b = tables.delay_info[fwd], tables.delay_info[bwd]
        rlp = protocol_bounds(tables, "rlp", initiator)
        owl = protocol_bounds(tables, "owl", initiator)
        clear = np.abs(j_f - j_b / 3.0) > 1e-12 * j_b
        both = np.isfinite(rlp.peb) & np.isfinite(owl.peb) & clear
        assert both.any()
        np.testing.assert_array_equal((rlp.peb < owl.peb)[both], (j_f > j_b / 3.0)[both])


@property_check
@given(orientations, seeds)
def test_peb_never_rises_with_delay_information(orientation_deg, seed):
    tables = position_tables(_scenario(orientation_deg, seed))
    for protocol in PROTOCOLS:
        for initiator in INITIATORS:
            pebs = [protocol_bounds(tables, protocol, initiator, delay_scale=s).peb
                    for s in DELAY_SCALES]
            for narrow, wide in zip(pebs, pebs[1:]):
                assert np.all(wide <= narrow)


@property_check
@given(orientations, seeds)
def test_oeb_ignores_delay_information(orientation_deg, seed):
    # the range direction has no orientation component
    tables = position_tables(_scenario(orientation_deg, seed))
    for protocol in PROTOCOLS:
        for initiator in INITIATORS:
            base = protocol_bounds(tables, protocol, initiator)
            for scale in DELAY_SCALES:
                b = protocol_bounds(tables, protocol, initiator, delay_scale=scale)
                ok = np.isfinite(b.oeb) & np.isfinite(base.oeb)
                np.testing.assert_array_equal(b.oeb[ok], base.oeb[ok])


@property_check
@given(orientations, seeds)
def test_owl_and_rlp_share_their_oeb(orientation_deg, seed):
    # both read the backward angle EFIM, and OEB reads no delay weight
    tables = position_tables(_scenario(orientation_deg, seed))
    for initiator in INITIATORS:
        owl = protocol_bounds(tables, "owl", initiator)
        rlp = protocol_bounds(tables, "rlp", initiator)
        both = np.isfinite(owl.oeb) & np.isfinite(rlp.oeb)
        assert both.any()
        np.testing.assert_array_equal(owl.oeb[both], rlp.oeb[both])


@property_check
@given(orientations, seeds)
def test_peb_tends_to_the_angle_limited_floor(orientation_deg, seed):
    # PEB² = ⟨A⁻¹, G_pos⟩ + c²/w: the delay term falls as 1/delay_scale
    # toward the floor and, being positive, never takes PEB below it
    tables = position_tables(_scenario(orientation_deg, seed))
    for protocol in PROTOCOLS:
        for initiator in INITIATORS:
            bwd = LINKS[initiator][1]
            floor = tables.factors["clp" if protocol == "clp" else bwd].pos
            base = protocol_bounds(tables, protocol, initiator)
            excess = base.peb**2 / floor - 1.0
            for scale in (1e6, 1e9):
                b = protocol_bounds(tables, protocol, initiator, delay_scale=scale)
                assert np.all(b.peb >= np.sqrt(floor))
                ok = np.isfinite(b.peb) & np.isfinite(base.peb)
                assert ok.any()
                gap = b.peb[ok] ** 2 / floor[ok] - 1.0
                assert np.all(gap <= excess[ok] / scale + 8.0 * EPS)


@property_check
@given(orientations, seeds)
def test_delay_enters_peb_only_as_c2_over_w_and_oeb_not_at_all(orientation_deg, seed):
    # The channel parameters fix p = c·τ·u(θ₁, φ₁), so the position columns
    # of M = J⁻¹ are (r·e_θ, r·sinθ₁·e_φ, 0, 0, c·u) and its orientation
    # columns have no delay entry: the delay term is 1/(w·|J_τ|²) = c²/w,
    # OEB has none, and the angle term of PEB² reads only the diagonal of
    # the anchor block's inverse A₁⁻¹.
    scn = _scenario(orientation_deg, seed)
    tables = position_tables(scn)
    c2 = scn.signal.c**2
    j_tau = tables.jacobian[:, 4]
    np.testing.assert_allclose(np.einsum("in,in->n", j_tau, j_tau) * c2, 1.0,
                               rtol=1e-13, atol=0.0)
    m_tau = np.linalg.inv(tables.jacobian.transpose(2, 0, 1))[:, 4]
    assert np.all(np.square(m_tau[:, :2]).sum(axis=1) <= 1e-20 * c2)
    p = tables.positions
    r2 = np.einsum("ij,ij->i", p, p)
    r2_sin2 = p[:, 0] ** 2 + p[:, 1] ** 2
    for key, f in tables.factors.items():
        a_inv = np.linalg.inv(np.moveaxis(f.angle[0], -1, 0))
        angle_term = r2 * a_inv[:, 0, 0] + r2_sin2 * a_inv[:, 1, 1]
        np.testing.assert_allclose(f.pos, angle_term, rtol=1e-11, atol=0.0, err_msg=key)


@pytest.mark.parametrize("scale", [2.0, 0.5])
@pytest.mark.parametrize("orientation_deg", [(0.0, 0.0), (30.0, 30.0)], ids=["0", "30-30"])
def test_scaling_the_range_scales_each_term_exactly(orientation_deg, scale):
    # The path gain β ∝ 1/r scales A and w by 1/s² when the region and its
    # positions scale by s, while G_pos = diag(r², r²·sin²θ₁) scales by s²
    # and the orientation columns of M not at all: ⟨A₁⁻¹, G_pos⟩ scales by
    # s⁴, c²/w by s² and OEB by s. A power of two scales each float exactly.
    scn = _scenario(orientation_deg, 1)
    far = dataclasses.replace(scn, region=Region(scale * scn.region.vertices))
    base, scaled = position_tables(scn), position_tables(far)
    np.testing.assert_array_equal(scaled.positions, scale * base.positions)
    for key, f in base.factors.items():
        np.testing.assert_array_equal(scaled.factors[key].pos, scale**4 * f.pos, err_msg=key)
    c2 = scn.signal.c**2
    for protocol in PROTOCOLS:
        for initiator, (fwd, bwd) in LINKS.items():
            w_base, w_scaled = (delay_weight(protocol, t.delay_info[fwd], t.delay_info[bwd])
                                for t in (base, scaled))
            np.testing.assert_array_equal(c2 / w_scaled, scale**2 * (c2 / w_base))
            b = protocol_bounds(base, protocol, initiator)
            s = protocol_bounds(scaled, protocol, initiator)
            np.testing.assert_array_equal(np.isfinite(s.peb), np.isfinite(b.peb))
            assert np.isfinite(b.peb).any(), (protocol, initiator)
            np.testing.assert_array_equal(s.oeb, scale * b.oeb)


@pytest.mark.parametrize("orientation_deg", [(0.0, 0.0), (30.0, 30.0)], ids=["0", "30-30"])
def test_cholesky_contraction_matches_a_dense_inverse(orientation_deg):
    # ⟨A⁻¹, F·Fᵀ⟩ through each block's Cholesky factor equals the contraction
    # of M's four angle rows with a LAPACK inverse of the block-diagonal A,
    # over one pipeline chunk of positions
    scn = _scenario(orientation_deg, 1, n_samples=twl.scenario._CHUNK)
    tables = position_tables(scn)
    m = np.linalg.inv(tables.jacobian.transpose(2, 0, 1))
    for key, f in tables.factors.items():
        a = np.zeros((f.angle.shape[-1], 4, 4))
        a[:, :2, :2], a[:, 2:, 2:] = np.moveaxis(f.angle, -1, 1)
        a_inv = np.linalg.inv(a)
        for got, columns in ((f.pos, slice(2, 5)), (f.ori, slice(0, 2))):
            rows = m[:, :4, columns]
            dense = np.einsum("nab,nac,nbc->n", a_inv, rows, rows)
            np.testing.assert_allclose(got, dense, rtol=1e-12, atol=0.0, err_msg=key)


@property_check
@given(orientations, seeds)
def test_peb_reads_only_the_anchor_block(orientation_deg, seed):
    # M's terminal-angle rows vanish over the position columns, so scaling
    # every terminal block A₂ leaves PEB bit for bit and moves only OEB
    tables = position_tables(_scenario(orientation_deg, seed))
    grams = pose_grams(tables.jacobian)
    scaled = {}
    for key, f in tables.factors.items():
        angle = f.angle.copy()
        angle[1] *= 10.0
        scaled[key] = efim_factors(grams, angle)
    louder = dataclasses.replace(tables, factors=scaled)
    for protocol in PROTOCOLS:
        for initiator in INITIATORS:
            base = protocol_bounds(tables, protocol, initiator)
            b = protocol_bounds(louder, protocol, initiator)
            np.testing.assert_array_equal(b.peb, base.peb)  # inf where unidentifiable too
            ok = np.isfinite(base.oeb)
            assert ok.any() and np.all(b.oeb[ok] < base.oeb[ok]), (protocol, initiator)


@pytest.mark.parametrize("orientation_deg", [(0.0, 0.0), (30.0, 30.0)], ids=["0", "30-30"])
def test_gain_elimination_decouples_the_angle_pairs(monkeypatch, orientation_deg):
    # the generic Schur complement of each channel FIM of a pipeline chunk,
    # built from the forms the pipeline reduces, has no (theta1, phi1) x
    # (theta2, phi2) block: the reduction forms only the two diagonal
    # blocks and drops nothing
    seen = []
    monkeypatch.setattr(twl.scenario, "fim_from_forms",
                        lambda *args: seen.append(args) or fim_from_forms(*args))
    position_tables(_scenario(orientation_deg, 1, n_samples=twl.scenario._CHUNK))
    assert len(seen) == 2
    for args in seen:
        jm = _channel_matrix(*args)
        for i in range(jm.shape[-1]):
            angle = efim(jm[:5, :5, i], keep=[0, 1, 2, 3])
            d = np.sqrt(np.diag(angle))
            assert np.abs(angle[:2, 2:] / np.outer(d[:2], d[2:])).max() <= 1e-13, i


@pytest.mark.parametrize("orientation_deg", [(0.0, 0.0), (30.0, 30.0)], ids=["0", "30-30"])
def test_each_angle_block_is_one_devices_schur_complement(monkeypatch, orientation_deg):
    # per link, with ρ = γβ²·t₀₀·r₀₀ and S(q) = q[1:,1:] − q[1:,0]·q[0,1:]/q₀₀,
    # the transmitter's block is ρ·S(t)/t₀₀, the receiver's ρ·S(r)/r₀₀ and
    # the delay information 4π²·weff2·ρ. An off-diagonal entry can be 1e-6
    # of its block's diagonal and carry the diagonal's rounding (2.5e-11
    # relative to itself at 30°/30°), so entries are held to 1e-12 of
    # themselves plus 1e-12 of their block's largest entry.
    seen = []
    monkeypatch.setattr(twl.scenario, "fim_from_forms",
                        lambda *args: seen.append((args, fim_from_forms(*args))) or seen[-1][1])
    position_tables(_scenario(orientation_deg, 1, n_samples=twl.scenario._CHUNK))
    assert [args[-1] for args, _ in seen] == ["forward", "backward"]
    for (t, r, gamma, beta, weff2, direction), (blocks, delay) in seen:
        rho = gamma * beta**2 * t[0, 0] * r[0, 0]
        tx, rx = (rho * (q[1:, 1:] - q[1:, 0, None] * q[None, 0, 1:] / q[0, 0]) / q[0, 0]
                  for q in (t, r))
        expected = np.stack([tx, rx] if direction == "forward" else [rx, tx])
        scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(blocks - expected) <= 1e-12 * (np.abs(expected) + scale))
        np.testing.assert_allclose(delay, 4.0 * np.pi**2 * weff2 * rho, rtol=1e-12)


@pytest.mark.parametrize("orientation_deg", [(0.0, 0.0), (30.0, 30.0)], ids=["0", "30-30"])
def test_peb_reads_the_terminal_forms_only_through_their_gain_entries(
    monkeypatch, orientation_deg
):
    # A link's anchor block and delay information read the terminal's forms
    # only through t_ue[0, 0] (uplink) or r_ue[0, 0] (downlink), and PEB
    # reads nothing else of the terminal: scaling every other entry of both
    # terminal forms, symmetrically, moves OEB but leaves each PEB bit for
    # bit wherever both runs give one
    scn = _scenario(orientation_deg, 1)
    positions = twl.scenario.sample_positions(scn.region, scn.n_samples, scn.seed)
    geo = _link_angles_batch(positions, rotation_matrix(*scn.orientation))
    base = _all_bounds(position_tables(scn, positions), scn)
    forms = twl.scenario.steering_forms
    factor = np.array([[1.0, 0.9, 1.1], [0.9, 1.2, 1.05], [1.1, 1.05, 1.3]])[..., None]

    def perturbed(geometry, tables, theta, phi):
        t, r = forms(geometry, tables, theta=theta, phi=phi)
        if np.array_equal(theta, geo["theta2"]):  # the terminal's call
            return t * factor, r * factor
        return t, r

    monkeypatch.setattr(twl.scenario, "steering_forms", perturbed)
    moved = _all_bounds(position_tables(scn, positions), scn)
    for pair, b in base.items():
        both = np.isfinite(b.peb) & np.isfinite(moved[pair].peb)
        assert both.sum() >= 0.9 * both.size, pair
        np.testing.assert_array_equal(moved[pair].peb[both], b.peb[both], err_msg=str(pair))
        assert np.all(moved[pair].oeb[both] != b.oeb[both]), pair


def test_identical_arrays_at_zero_orientation_give_equal_link_gains(monkeypatch):
    # The terminal's codebook is the anchor's reversed, and a centred array
    # answers the reversed direction with the conjugate response, so with
    # identical arrays facing each other t_ue00 = t_bs00 and r_ue00 =
    # r_bs00: ρ_f = γβ²·t_bs00·r_ue00 equals ρ_b = γβ²·t_ue00·r_bs00
    seen = []
    monkeypatch.setattr(twl.scenario, "fim_from_forms",
                        lambda *args: seen.append(args) or fim_from_forms(*args))
    scn = _scenario((0.0, 0.0), 1, n_samples=twl.scenario._CHUNK)
    assert scn.bs_array == scn.ue_array
    position_tables(scn)
    (t_bs, r_ue, gamma, beta, _, forward), (t_ue, r_bs, *_, backward) = seen
    assert (forward, backward) == ("forward", "backward")
    rho_f = gamma * beta**2 * t_bs[0, 0] * r_ue[0, 0]
    rho_b = gamma * beta**2 * t_ue[0, 0] * r_bs[0, 0]
    np.testing.assert_allclose(rho_f, rho_b, rtol=1e-13, atol=0.0)


def test_bounds_are_mirror_symmetric_in_x_at_zero_orientation():
    # The reference region, its beam grid and both arrays (on the xz plane,
    # centred) are symmetric under x -> -x, so at zero orientation the
    # bounds at (x, y, z) and (-x, y, z) agree, with the same inf pattern
    scn = _scenario((0.0, 0.0), 1)
    positions = twl.scenario.sample_positions(scn.region, scn.n_samples, scn.seed)
    base = _all_bounds(position_tables(scn, positions), scn)
    mirror = _all_bounds(position_tables(scn, positions * [-1.0, 1.0, 1.0]), scn)
    for pair, b in base.items():
        for got, want in ((mirror[pair].peb, b.peb), (mirror[pair].oeb, b.oeb)):
            finite = np.isfinite(want)
            assert finite.any(), pair
            np.testing.assert_array_equal(np.isfinite(got), finite, err_msg=str(pair))
            np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0.0,
                                       err_msg=str(pair))


def test_owl_peb_reads_the_terminal_only_through_its_uplink_gain(monkeypatch):
    # owl with initiator bs reads the uplink alone: its anchor block is
    # ρ_b·S(r_bs)/r_bs00 and its delay information 4π²·weff2·ρ_b, with
    # ρ_b = γβ²·t_ue00·r_bs00, so PEB²·γβ²·t_ue00 reads only the anchor's
    # forms and the pose. It is the same for every terminal array and
    # orientation, γ's terminal element count included.
    seen = []
    monkeypatch.setattr(twl.scenario, "fim_from_forms",
                        lambda *args: seen.append(args) or fim_from_forms(*args))
    base = _scenario((0.0, 0.0), 5)
    positions = twl.scenario.sample_positions(base.region, base.n_samples, base.seed)
    products = []
    for edge in (6, 8, 10, 12, 14):
        for orientation_deg in ((0.0, 0.0), (30.0, 30.0), (-20.0, 45.0)):
            scn = dataclasses.replace(
                _scenario(orientation_deg, 5),
                ue_array=dataclasses.replace(base.ue_array, rows=edge, cols=edge),
            )
            seen.clear()
            peb = protocol_bounds(position_tables(scn, positions), "owl", "bs").peb
            t_ue, _, gamma, beta, _, direction = seen[1]
            assert direction == "backward"
            products.append(peb**2 * gamma * beta**2 * t_ue[0, 0])
    first = products[0]
    for k, product in enumerate(products[1:], start=1):
        both = np.isfinite(first) & np.isfinite(product)
        assert both.sum() >= 0.9 * both.size, k
        np.testing.assert_allclose(product[both], first[both], rtol=1e-12, atol=0.0,
                                   err_msg=str(k))


@pytest.mark.parametrize("orientation_deg", [(0.0, 0.0), (30.0, 30.0)], ids=["0", "30-30"])
def test_clp_position_term_sums_the_anchors_two_normalised_schur_complements(
    monkeypatch, orientation_deg
):
    # clp's anchor block is the sum of the uplink's receive block and the
    # downlink's transmit block, ρ_b·Ŝ(r_bs) + ρ_f·Ŝ(t_bs), with
    # Ŝ(q) = S(q)/q00, ρ_b = γβ²·t_ue00·r_bs00 and ρ_f = γβ²·t_bs00·r_ue00,
    # so its position term is ⟨(ρ_b·Ŝ(r_bs) + ρ_f·Ŝ(t_bs))⁻¹, G_pos⟩ with
    # G_pos = diag(r², r²·sin²θ₁)
    seen = []
    monkeypatch.setattr(twl.scenario, "fim_from_forms",
                        lambda *args: seen.append(args) or fim_from_forms(*args))
    tables = position_tables(_scenario(orientation_deg, 1, n_samples=300))
    (t_bs, r_ue, gamma, beta, _, forward), (t_ue, r_bs, *_, backward) = seen
    assert (forward, backward) == ("forward", "backward")

    def normalised_schur(q):
        return (q[1:, 1:] - q[1:, 0, None] * q[None, 0, 1:] / q[0, 0]) / q[0, 0]

    rho_b = gamma * beta**2 * t_ue[0, 0] * r_bs[0, 0]
    rho_f = gamma * beta**2 * t_bs[0, 0] * r_ue[0, 0]
    anchor = rho_b * normalised_schur(r_bs) + rho_f * normalised_schur(t_bs)
    a_inv = np.linalg.inv(np.moveaxis(anchor, -1, 0))
    p = tables.positions
    r2 = np.einsum("ij,ij->i", p, p)
    r2_sin2 = p[:, 0] ** 2 + p[:, 1] ** 2
    np.testing.assert_allclose(tables.factors["clp"].pos,
                               r2 * a_inv[:, 0, 0] + r2_sin2 * a_inv[:, 1, 1],
                               rtol=1e-12, atol=0.0)
