"""Channel-parameter Fisher information and equivalent FIMs.

The channel FIM is 7x7 over (theta1, phi1, theta2, phi2, beta, psi, tau).
Every nonzero entry is a product of two real beam-space quadratic forms:
one through the transmit matrix F of the transmitting device, one through
the projector onto the receive beam space of the receiving device.
`_FORMS` states that rule once: it names the two forms behind each
parameter's derivative, and `fim_from_forms` fills the angle and gain
block from it. The psi and tau rows carry no cross-coupling,
because the forms are real: that holds for every array
`geometry.ArrayGeometry` builds, each centred on its device. So the delay
information is the bare (tau, tau) entry and the angle block decouples
from everything except the gain amplitude beta; once beta is eliminated,
the anchor and terminal angle pairs decouple too (`angle_efim`).

`fim_from_forms` and `angle_efim` are batched over trailing axes, matrix
axes first and positions last, and are what the position pipeline runs;
`channel_fim` is the n = 1 view of the first. It returns the (7, 7) array,
which `angle_efim` and `delay_info` read, and takes its beam-space forms
from the pipeline's kernel (`kernels.steering_forms`) at one direction per
device. A link without illumination gives the all-zero FIM and non-finite
angle EFIMs, which `protocols.invert_efim` flags as unidentifiable.
"""

import numpy as np

from .beamforming import Beamformer, SignalConfig
from .geometry import ArrayGeometry
from .kernels import codebook_tables, steering_forms
from .pose import ChannelGeometry

DIRECTIONS = ("forward", "backward")

# Indices of (a, da/dtheta, da/dphi) inside the 3x3 form tables.
_A, _K, _P = 0, 1, 2
# (transmit form, receive form) index of each parameter's derivative, in the
# order receiver theta, phi, transmitter theta, phi, gain; `fim_from_forms`
# places them by direction.
_FORMS = ((_A, _K), (_A, _P), (_K, _A), (_P, _A), (_A, _A))


def fim_from_forms(t_tx, r_rx, gamma, beta, weff2, direction):
    """Assemble the 7x7 channel FIM from quadratic-form tables.

    Broadcasts over trailing axes: ``t_tx``/``r_rx`` may be (3, 3, ...),
    ``beta`` (...,), and the result is (7, 7, ...). Entry (i, j) of the
    angle and gain block is pre·t_tx[tj, ti]·r_rx[ri, rj], with (ti, ri)
    the `_FORMS` row of parameter i and pre gamma·beta², gamma·beta or gamma
    as zero, one or two of i, j are the gain. The transmitting device's angle pair occupies the
    pair-2 slots for a backward transmission and the pair-1 slots otherwise.
    """
    t_tx, r_rx = np.asarray(t_tx), np.asarray(r_rx)
    beta = np.asarray(beta, dtype=np.float64)
    shape = np.broadcast_shapes(t_tx.shape[2:], beta.shape)
    if direction == "backward":
        slots = (0, 1, 2, 3, 4)
    elif direction == "forward":
        slots = (2, 3, 0, 1, 4)
    else:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")

    # A link budget beyond the float range gives inf prefactors here; the
    # resulting non-finite EFIMs are flagged unidentifiable downstream.
    with np.errstate(over="ignore"):
        ab = gamma * beta**2  # angle/phase/delay prefactor
        bb = gamma * beta  # beta-coupling prefactor
    pre = (ab, bb, gamma)
    jm = np.zeros((7, 7) + shape)
    for a, (ta, ra) in enumerate(_FORMS):
        for b in range(a, len(_FORMS)):
            tb, rb = _FORMS[b]
            value = jm[slots[a], slots[b], ...]
            np.multiply(pre[(a == 4) + (b == 4)], t_tx[tb, ta] * r_rx[ra, rb], out=value)
            jm[slots[b], slots[a]] = value
    aa = t_tx[_A, _A] * r_rx[_A, _A]
    jm[5, 5] = ab * aa
    jm[6, 6] = 4.0 * np.pi**2 * weff2 * ab * aa
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
    for "backward"; geometries and codebooks are passed for the actual
    transmitter/receiver of that transmission. ``tx_beams`` must be a
    transmit and ``rx_beams`` a receive `directional_beams` codebook: the
    forms come from their directions through `kernels.steering_forms`, the
    position pipeline's kernel, at one direction per device.
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
    return fim_from_forms(t_forms[..., 0], r_forms[..., 0], gamma, cg.beta, sig.weff2, direction)


def angle_efim(jm: np.ndarray) -> np.ndarray:
    """Angle EFIMs after eliminating the gain amplitude, as 2x2 blocks, batched.

    Maps channel FIMs (7, 7, ...) as `fim_from_forms` builds them to
    (2, 2, 2, ...): the anchor block over (theta1, phi1), then the terminal
    one over (theta2, phi2). psi and tau are decoupled, so the only Schur
    correction is the rank-one beta term, and it cancels the cross block:
    with k a receiver and K a transmitter angle, gamma·beta²·t_K0·r_k0 =
    (gamma·beta·t00·r_k0)·(gamma·beta·t_K0·r00) / (gamma·t00·r00). A zero or
    non-finite beta entry yields non-finite rows instead of a warning.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coupling = jm[:4, 4].reshape((2, 2) + jm.shape[2:])  # (block, angle, ...)
        outer = coupling[:, :, None] * coupling[:, None, :]
        outer /= jm[4, 4]
        return np.subtract(np.stack([jm[:2, :2], jm[2:4, 2:4]]), outer, out=outer)


def delay_info(jm: np.ndarray) -> float:
    """Delay information of a 7x7 channel FIM: its (tau, tau) entry, decoupled."""
    return float(jm[6, 6])

