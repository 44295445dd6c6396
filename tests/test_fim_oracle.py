"""Closed-form channel FIM against the waveform quadrature oracle.

The oracle synthesizes the pilot waveform with a time-limited unit-energy
pulse whose squared effective bandwidth is known exactly, so the closed form
is evaluated with that value rather than the production default.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import efim, numerical_channel_fim, pulse_weff2
from twl.beamforming import SignalConfig, directional_beams
from twl.fim import angle_efim, channel_fim
from twl.geometry import ArrayGeometry
from twl.pose import ChannelGeometry

C = 299792458.0
CARRIER = 38e9
LAM = C / CARRIER
TS = 1.0 / 125e6
NS = 4
ET = 1e-3 * TS
N0 = 1e-20
SIG = SignalConfig(et=ET, ns=NS, n0=N0, bandwidth=1.0 / TS,
                   weff2=pulse_weff2(TS), carrier=CARRIER, c=C)
# (rows, cols, plane): 2x2 arrays on every plane, 3x2 and 2x3 arrays whose
# odd axis puts elements on the other axis, and a 3x3 with one at the origin
ARRAYS = ((2, 2, "xz"), (2, 2, "xy"), (2, 2, "yz"), (3, 2, "xy"), (2, 3, "yz"), (3, 3, "xz"))


def oracle_case(rng, arrays=None, beams=None):
    """A random link. Unless given, its (tx, rx) arrays are drawn from ARRAYS
    and its beam counts from 1 to 3."""
    if arrays is None:
        arrays = [ARRAYS[i] for i in rng.integers(len(ARRAYS), size=2)]
    tx_geom, rx_geom = (ArrayGeometry(rows, cols, LAM, plane=plane)
                        for rows, cols, plane in arrays)
    direction = "backward" if rng.integers(2) else "forward"
    d = rng.uniform(5.0, 30.0)
    cg = ChannelGeometry(
        theta1=rng.uniform(0.5, 2.6), phi1=rng.uniform(-3.0, 3.0),
        theta2=rng.uniform(0.5, 2.6), phi2=rng.uniform(-3.0, 3.0),
        tau=d / C, beta=LAM / (4 * np.pi * d), psi=rng.uniform(-3.0, 3.0),
    )
    tx_angles = (cg.theta2, cg.phi2) if direction == "backward" else (cg.theta1, cg.phi1)
    rx_angles = (cg.theta1, cg.phi1) if direction == "backward" else (cg.theta2, cg.phi2)
    jitter = lambda a: (a[0] + rng.uniform(-0.3, 0.3), a[1] + rng.uniform(-0.3, 0.3))
    n_tx, n_rx = beams or rng.integers(1, 4, size=2)
    f = directional_beams(tx_geom, [jitter(tx_angles) for _ in range(n_tx)], "transmit")
    w = directional_beams(rx_geom, [jitter(rx_angles) for _ in range(n_rx)], "receive")
    return direction, tx_geom, rx_geom, f, w, cg


def closed_and_oracle(case):
    direction, tx_geom, rx_geom, f, w, cg = case
    closed = channel_fim(direction, tx_geom, rx_geom, f, w, cg, SIG)
    oracle = numerical_channel_fim(
        direction, tx_geom, rx_geom, f.matrix, w.matrix, cg, ET, TS, NS, N0
    )
    return closed, oracle


def test_closed_form_matches_waveform_oracle(rng):
    for _ in range(5):
        closed, oracle = closed_and_oracle(oracle_case(rng))
        diag_rel = np.abs(np.diag(closed) - np.diag(oracle)) / np.abs(np.diag(oracle))
        assert diag_rel.max() < 1e-3
        off = np.abs(closed - oracle)
        np.fill_diagonal(off, 0.0)
        assert off.max() < 1e-3 * np.linalg.norm(oracle)


def test_spatial_block_matches_oracle_tightly(rng):
    # the 5x5 angle+gain block agrees far below the acceptance tolerance
    for _ in range(3):
        closed, oracle = closed_and_oracle(oracle_case(rng))
        block = np.abs(closed[:5, :5] - oracle[:5, :5])
        np.fill_diagonal(block, 0.0)
        assert block.max() < 1e-6 * np.linalg.norm(oracle[:5, :5])


def test_oracle_confirms_decoupled_phase_and_delay(rng):
    # arrays centred on their devices make every beam-space form real, so the
    # phase/delay rows decouple exactly in the true FIM as well, on every
    # plane and with odd axes
    for array in ARRAYS:
        closed, oracle = closed_and_oracle(oracle_case(rng, (array, array)))
        scale = np.linalg.norm(oracle[:5, :5])
        assert np.abs(oracle[5, :5]).max() < 1e-9 * scale, array
        assert np.abs(oracle[6, :6]).max() < 1e-6 * np.linalg.norm(oracle), array
        np.testing.assert_array_equal(closed[5, :5], 0.0)
        np.testing.assert_array_equal(closed[6, :6], 0.0)


def test_moved_arrays_keep_the_centred_angle_efim(rng):
    """The oracle of moved arrays, (beta, psi) eliminated, gives the centred closed form.

    Moving an array by c multiplies its response by exp(-j·k·c) and each
    codebook column by a known phase. psi absorbs the common phase, so no
    bound can depend on c, although the moved arrays' forms are complex and
    couple psi to the angles. `ArrayGeometry` builds centred arrays only,
    so the moved ones are stand-ins with what `steering` reads, and their
    codebooks are built by `steering` on them. A closed form that read the
    moved arrays' forms without psi's coupling gave these two links angle
    EFIMs whose tr(A⁻¹) was 360 and 6500 times too small. Tolerance: the
    spatial block's, 1e-6 of the norm.
    """
    shifts = (np.array([[0.013], [-0.021], [0.034]]), np.array([[-0.008], [0.005], [0.011]]))
    for arrays in ((ARRAYS[0], ARRAYS[3]), (ARRAYS[4], ARRAYS[5])):
        direction, tx_geom, rx_geom, f, w, cg = oracle_case(rng, arrays, beams=(4, 4))
        centred = angle_efim(channel_fim(direction, tx_geom, rx_geom, f, w, cg, SIG))
        tx_moved, rx_moved = (
            SimpleNamespace(wavelength=g.wavelength, n_elements=g.n_elements,
                            elements=g.elements + shift)
            for g, shift in zip((tx_geom, rx_geom), shifts)
        )
        oracle = numerical_channel_fim(
            direction, tx_moved, rx_moved,
            directional_beams(tx_moved, f.directions, "transmit").matrix,
            directional_beams(rx_moved, w.directions, "receive").matrix,
            cg, ET, TS, NS, N0,
        )
        diag = np.diag(oracle)
        assert np.abs(oracle[5, :4] / np.sqrt(diag[5] * diag[:4])).max() > 0.1, arrays
        moved = efim(oracle, keep=(0, 1, 2, 3, 6))[:4, :4]
        blocks = np.stack([moved[:2, :2], moved[2:, 2:]])
        assert np.abs(blocks - centred).max() < 1e-6 * np.linalg.norm(centred), arrays
        assert np.abs(moved[:2, 2:]).max() < 1e-6 * np.linalg.norm(centred), arrays


def test_oracle_decouples_the_anchor_and_terminal_angles(rng):
    """Once (beta, psi) are eliminated, the true angle EFIM is block-diagonal.

    `fim.angle_efim` returns only the (theta1, phi1) and (theta2, phi2)
    blocks. The waveform oracle's own Schur complement must then carry no
    cross block: measured at most 1.4e-9 of sqrt(A_ii·A_jj) over these 21
    links. The raw FIM does couple the two pairs (up to 1.4e-2 of
    sqrt(J_ii·J_jj) here), so the check is not vacuous: the gain
    elimination is what cancels it.
    """
    raw = 0.0
    for arrays in itertools.combinations_with_replacement(ARRAYS, 2):
        _, oracle = closed_and_oracle(oracle_case(rng, arrays, beams=(4, 4)))
        angle = efim(oracle, keep=(0, 1, 2, 3, 6))[:4, :4]
        scale = np.sqrt(np.outer(np.diag(angle)[:2], np.diag(angle)[2:]))
        assert np.abs(angle[:2, 2:] / scale).max() <= 1e-6, arrays
        fim_scale = np.sqrt(np.outer(np.diag(oracle)[:2], np.diag(oracle)[2:4]))
        raw = max(raw, np.abs(oracle[:2, 2:4] / fim_scale).max())
    assert raw > 1e-4


def test_oracle_delay_diagonal_tracks_pulse_bandwidth(rng):
    # halving the symbol time quadruples the oracle's delay information
    case = oracle_case(rng)
    direction, tx_geom, rx_geom, f, w, cg = case
    base = numerical_channel_fim(direction, tx_geom, rx_geom, f.matrix, w.matrix,
                                 cg, ET, TS, NS, N0)
    fast = numerical_channel_fim(direction, tx_geom, rx_geom, f.matrix, w.matrix,
                                 cg, ET, TS / 2, NS, N0)
    assert fast[6, 6] / base[6, 6] == pytest.approx(4.0, rel=1e-3)
    assert fast[4, 4] == pytest.approx(base[4, 4], rel=1e-6)
