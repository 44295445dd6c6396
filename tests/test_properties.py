"""Exact laws of the batched pipeline, checked as properties.

Each property draws a terminal orientation and a position seed and samples a
few hundred positions of the reference scenario. The examples are derandomized,
so every run checks the same cases.

Per pose, PEB² = ⟨A⁻¹, G_pos⟩ + g_pos/w with w the protocol's delay weight, so
the laws in the delay information hold exactly, not only to a tolerance.
"""

import dataclasses
import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twl.beamforming import directional_beams, reverse_direction
from twl.fim import channel_fim
from twl.pose import Pose, channel_geometry, location_jacobian
from twl.protocols import PROTOCOLS, assemble
from twl.scenario import INITIATORS, Scenario, position_tables, protocol_bounds

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
    np.testing.assert_array_equal(bs.identifiable, ue.identifiable)


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
        np.testing.assert_array_equal(loud[key].identifiable, b.identifiable)


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
                assert single.identifiable == b.identifiable[k]
                if not single.identifiable:
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
        both = rlp.identifiable & owl.identifiable & clear
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
                ok = b.identifiable & base.identifiable
                np.testing.assert_allclose(b.oeb[ok], base.oeb[ok], rtol=1e-12, atol=0.0)
