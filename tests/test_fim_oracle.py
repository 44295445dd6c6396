"""Closed-form channel FIM against the waveform quadrature oracle.

The oracle synthesizes the pilot waveform with a time-limited unit-energy
pulse whose squared effective bandwidth is known exactly, so the closed form
is evaluated with that value rather than the production default.
"""

import numpy as np
import pytest

from oracles import numerical_channel_fim, pulse_weff2
from twl.beamforming import SignalConfig, directional_beams
from twl.fim import channel_fim
from twl.geometry import ArrayGeometry
from twl.pose import ChannelGeometry

C = 299792458.0
CARRIER = 38e9
LAM = C / CARRIER
TS = 1.0 / 125e6
NS = 4
ET = 1e-3 * TS
N0 = 1e-20


def oracle_case(rng):
    tx_geom = ArrayGeometry(2, 2, LAM)
    rx_geom = ArrayGeometry(2, 2, LAM)
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
    f = directional_beams(
        tx_geom, [jitter(tx_angles) for _ in range(rng.integers(1, 4))], "transmit"
    )
    w = directional_beams(
        rx_geom, [jitter(rx_angles) for _ in range(rng.integers(1, 4))], "receive"
    )
    return direction, tx_geom, rx_geom, f, w, cg


def closed_and_oracle(case):
    direction, tx_geom, rx_geom, f, w, cg = case
    sig = SignalConfig(et=ET, ts=TS, ns=NS, n0=N0, bandwidth=1.0 / TS,
                       weff2=pulse_weff2(TS), carrier=CARRIER, c=C)
    closed = channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)
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
    # centro-symmetric arrays make every beam-space form real, so the
    # phase/delay rows decouple exactly in the true FIM as well
    closed, oracle = closed_and_oracle(oracle_case(rng))
    scale = np.linalg.norm(oracle[:5, :5])
    assert np.abs(oracle[5, :5]).max() < 1e-9 * scale
    assert np.abs(oracle[6, :6]).max() < 1e-6 * np.linalg.norm(oracle)
    np.testing.assert_array_equal(closed[5, :5], 0.0)
    np.testing.assert_array_equal(closed[6, :6], 0.0)


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
