"""Channel-parameter Fisher information and its gain elimination.

The channel FIM is 7x7 over (theta1, phi1, theta2, phi2, beta, psi, tau).
Each nonzero entry is a product t·r of two real beam-space forms over
(a, da/dtheta, da/dphi), t through the transmitting device's transmit
matrix and r through the receiving device's receive projector, scaled by
gamma·beta², gamma·beta or gamma as zero, one or two of its parameters are
the gain beta. Centred arrays (`geometry.ArrayGeometry`) have real forms,
so psi and tau couple to nothing. Eliminating beta cancels the cross entry
gamma·beta²·t_K0·r_k0 of a transmitter angle K and a receiver angle k: a
link's angle EFIM is two 2x2 blocks, the anchor's over (theta1, phi1) and
the terminal's over (theta2, phi2). `fim_from_forms`, the pipeline's
per-link stage, computes only the entries those blocks and the delay
information read, batched with positions last. `channel_fim`, the paper's
7x7 at one pose, holds the same floats, and `angle_efim` eliminates beta
with the same helper, so views and pipeline agree bit for bit. A dark link
gives non-finite angle EFIMs, whose bounds `protocols.invert_efim` sets to inf.
"""

import numpy as np

from .beamforming import Beamformer, SignalConfig
from .geometry import ArrayGeometry
from .kernels import codebook_tables, steering_forms
from .pose import ChannelGeometry

DIRECTIONS = ("forward", "backward")


def _link_entries(t_tx, r_rx, gamma, beta, weff2, direction):
    """What the bounds read of one link's channel FIM, and ab = gamma·beta², batched.

    Returns (blocks, coupling, gain, delay, ab) for forms (3, 3, ...) and
    beta (...): the angle blocks ab·(t[1:, 1:]·r00) of the transmitter and
    ab·(t00·r[1:, 1:]) of the receiver, anchor first; their couplings
    gamma·beta·(t[1:, 0]·r00) and gamma·beta·(t00·r[1:, 0]); gamma·(t00·r00).
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    beta = np.asarray(beta, dtype=np.float64)
    t00, r00 = t_tx[0, 0], r_rx[0, 0]
    # A link budget beyond the float range gives inf prefactors here; the
    # resulting non-finite EFIMs give infinite bounds downstream.
    with np.errstate(over="ignore", invalid="ignore"):
        ab, bb = gamma * beta**2, gamma * beta
        tx = ab * (t_tx[1:, 1:] * r00), bb * (t_tx[1:, 0] * r00)
        rx = ab * (t00 * r_rx[1:, 1:]), bb * (t00 * r_rx[1:, 0])
        aa = t00 * r00
        delay = 4.0 * np.pi**2 * weff2 * ab * aa
    anchor, terminal = (rx, tx) if direction == "backward" else (tx, rx)
    return (np.stack([anchor[0], terminal[0]]), np.stack([anchor[1], terminal[1]]),
            gamma * aa, delay, ab)


def _eliminate_gain(blocks, coupling, gain):
    """Blocks (2, 2, 2, ...) less c·cᵀ/gain; a zero or non-finite gain gives non-finite rows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        outer = coupling[:, :, None] * coupling[:, None, :]
        outer /= gain
        return np.subtract(blocks, outer, out=outer)


def fim_from_forms(t_tx, r_rx, gamma, beta, weff2, direction):
    """One link's angle EFIM and delay information from its two devices' forms.

    Forms (3, 3, ...) and beta (...) give (blocks, delay): the angle EFIM
    (2, 2, 2, ...), anchor block first, and the delay information (...),
    bit for bit as `angle_efim` and `delay_info` read `_channel_matrix`.
    """
    blocks, coupling, gain, delay, _ = _link_entries(t_tx, r_rx, gamma, beta, weff2, direction)
    return _eliminate_gain(blocks, coupling, gain), delay


def _channel_matrix(t_tx, r_rx, gamma, beta, weff2, direction):
    """The 7x7 channel FIM (7, 7, ...) of `fim_from_forms`' arguments."""
    blocks, coupling, gain, delay, ab = _link_entries(t_tx, r_rx, gamma, beta, weff2, direction)
    jm = np.zeros((7, 7) + blocks.shape[3:])
    jm[:2, :2], jm[2:4, 2:4] = blocks
    jm[:4, 4] = jm[4, :4] = coupling.reshape(jm[:4, 4].shape)
    jm[4, 4], jm[6, 6] = gain, delay
    with np.errstate(over="ignore", invalid="ignore"):
        cross = ab * (t_tx[1:, 0, None] * r_rx[None, 1:, 0])  # (transmitter, receiver)
        jm[5, 5] = ab * (t_tx[0, 0] * r_rx[0, 0])
    jm[:2, 2:4] = cross if direction == "forward" else np.swapaxes(cross, 0, 1)
    jm[2:4, :2] = np.swapaxes(jm[:2, 2:4], 0, 1)
    return jm


def channel_fim(
    direction: str,
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    tx_beams: Beamformer,
    rx_beams: Beamformer,
    cg: ChannelGeometry,
    sig: SignalConfig,
) -> np.ndarray:
    """Closed-form 7x7 channel FIM of one transmission direction.

    The transmitter is the pair-1 device for "forward" and the pair-2 device
    for "backward"; geometries and codebooks are those of the transmission's
    transmitter and receiver, a transmit and a receive `directional_beams`
    codebook. The forms come from `kernels.steering_forms` at one direction
    per device.
    """
    if not cg.beta > 0:
        raise ValueError(f"beta must be positive, got {cg.beta!r}")
    if tx_beams.role != "transmit" or rx_beams.role != "receive":
        raise ValueError("tx_beams must be a transmit codebook and rx_beams a receive one")
    pairs = ((cg.theta1, cg.phi1), (cg.theta2, cg.phi2))
    tx_angles, rx_angles = pairs[::-1] if direction == "backward" else pairs
    t_forms, _ = steering_forms(tx_geom, codebook_tables(tx_geom, tx_beams),
                                [tx_angles[0]], [tx_angles[1]])
    _, r_forms = steering_forms(rx_geom, codebook_tables(rx_geom, rx_beams),
                                [rx_angles[0]], [rx_angles[1]])
    gamma = sig.gamma(tx_geom.n_elements, rx_geom.n_elements)
    return _channel_matrix(t_forms[..., 0], r_forms[..., 0], gamma, cg.beta, sig.weff2, direction)


def angle_efim(jm: np.ndarray) -> np.ndarray:
    """Angle EFIMs of channel FIMs (7, 7, ...) as 2x2 blocks (2, 2, 2, ...), batched.

    The anchor block over (theta1, phi1), then the terminal one over
    (theta2, phi2): the rank-one beta correction cancels the cross block,
    which is therefore never read.
    """
    coupling = jm[:4, 4].reshape((2, 2) + jm.shape[2:])  # (block, angle, ...)
    return _eliminate_gain(np.stack([jm[:2, :2], jm[2:4, 2:4]]), coupling, jm[4, 4])


def delay_info(jm: np.ndarray) -> float:
    """Delay information of a 7x7 channel FIM: its (tau, tau) entry, decoupled."""
    return float(jm[6, 6])
