"""Channel-parameter Fisher information and equivalent FIMs.

The channel FIM is 7x7 over (theta1, phi1, theta2, phi2, beta, psi, tau).
Every nonzero entry is the real part of a product of two beam-space
quadratic forms: one through the transmit matrix F of the transmitting
device, one through the projector onto the receive beam space of the
receiving device. By construction the psi and tau rows carry no
cross-coupling, so the delay information is the bare (tau, tau) entry and
the angle block decouples from everything except the gain amplitude beta.

`fim_from_forms` and `eliminate_gain` are batched over leading axes and are
what the position pipeline runs; `channel_fim` and `angle_efim` call them
for one link. `channel_fim` takes its beam-space forms from the pipeline's
kernel (`kernels.steering_forms`) at one direction per device.
"""

from dataclasses import dataclass

import numpy as np

from .beamforming import Beamformer, SignalConfig
from .geometry import ArrayGeometry
from .kernels import codebook_tables, steering_forms
from .pose import ChannelGeometry

CHANNEL_PARAMS = ("theta1", "phi1", "theta2", "phi2", "beta", "psi", "tau")
DIRECTIONS = ("forward", "backward")

# Indices of (a, da/dtheta, da/dphi) inside the 3x3 form tables.
_A, _K, _P = 0, 1, 2


class NoIlluminationError(ValueError):
    """All FIM entries vanish: the beam sets put no energy on the link."""


class NuisanceSingularError(np.linalg.LinAlgError):
    """Nuisance block of a FIM is singular: nuisance parameters unidentifiable."""


@dataclass(frozen=True)
class ChannelFim:
    """7x7 channel-parameter FIM of one transmission direction.

    ``direction`` is "forward" (initiator transmits) or "backward"
    (responder transmits); ``gamma`` the integrated SNR scale used.
    """

    matrix: np.ndarray
    direction: str
    gamma: float


@dataclass(frozen=True)
class Efim:
    """Equivalent FIM after eliminating nuisance parameters."""

    matrix: np.ndarray
    kept_parameters: tuple


def fim_from_forms(t_tx, r_rx, gamma, beta, weff2, direction):
    """Assemble the 7x7 channel FIM from quadratic-form tables.

    Broadcasts over leading axes: ``t_tx``/``r_rx`` may be (..., 3, 3) and
    ``beta`` (...,). The transmitting device's angle pair occupies the
    pair-2 slots for a backward transmission and the pair-1 slots otherwise.
    """
    t_tx = np.asarray(t_tx)
    r_rx = np.asarray(r_rx)
    beta = np.asarray(beta, dtype=np.float64)
    shape = np.broadcast_shapes(t_tx.shape[:-2], beta.shape)
    if direction == "backward":
        r0, r1, t0, t1 = 0, 1, 2, 3
    elif direction == "forward":
        t0, t1, r0, r1 = 0, 1, 2, 3
    else:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")

    # A link budget beyond the float range gives inf prefactors here; the
    # resulting non-finite EFIMs are flagged unidentifiable downstream.
    with np.errstate(over="ignore"):
        ab = gamma * beta**2  # angle/phase/delay prefactor
        bb = gamma * beta  # beta-coupling prefactor
    jm = np.zeros(shape + (7, 7))

    def put(i, j, value):
        jm[..., i, j] = value
        jm[..., j, i] = value

    t = lambda x, y: t_tx[..., x, y]
    r = lambda x, y: r_rx[..., x, y]

    put(r0, r0, ab * (t(_A, _A) * r(_K, _K)).real)
    put(r1, r1, ab * (t(_A, _A) * r(_P, _P)).real)
    put(r0, r1, ab * (t(_A, _A) * r(_K, _P)).real)
    put(t0, t0, ab * (t(_K, _K) * r(_A, _A)).real)
    put(t1, t1, ab * (t(_P, _P) * r(_A, _A)).real)
    put(t0, t1, ab * (t(_P, _K) * r(_A, _A)).real)
    put(r0, t0, ab * (t(_K, _A) * r(_K, _A)).real)
    put(r0, t1, ab * (t(_P, _A) * r(_K, _A)).real)
    put(r1, t0, ab * (t(_K, _A) * r(_P, _A)).real)
    put(r1, t1, ab * (t(_P, _A) * r(_P, _A)).real)
    put(r0, 4, bb * (t(_A, _A) * r(_K, _A)).real)
    put(r1, 4, bb * (t(_A, _A) * r(_P, _A)).real)
    put(t0, 4, bb * (t(_A, _K) * r(_A, _A)).real)
    put(t1, 4, bb * (t(_A, _P) * r(_A, _A)).real)
    put(4, 4, gamma * (t(_A, _A) * r(_A, _A)).real)
    put(5, 5, ab * (t(_A, _A) * r(_A, _A)).real)
    put(6, 6, 4.0 * np.pi**2 * weff2 * ab * (t(_A, _A) * r(_A, _A)).real)
    return jm


def channel_fim(
    direction: str,
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    tx_beams: Beamformer,
    rx_beams: Beamformer,
    cg: ChannelGeometry,
    sig: SignalConfig,
) -> ChannelFim:
    """Closed-form channel FIM of one transmission direction.

    The transmitter is the pair-1 device for "forward" and the pair-2 device
    for "backward"; geometries and codebooks are passed for the actual
    transmitter/receiver of that transmission. ``tx_beams`` must be a
    transmit and ``rx_beams`` a receive `directional_beams` codebook: the
    forms come from their directions through `kernels.steering_forms`, the
    position pipeline's kernel, at one direction per device.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if not cg.beta > 0:
        raise ValueError(f"beta must be positive, got {cg.beta!r}")
    if tx_beams.role != "transmit" or rx_beams.role != "receive":
        raise ValueError("tx_beams must be a transmit codebook and rx_beams a receive one")
    if direction == "backward":
        tx_angles = (cg.theta2, cg.phi2)
        rx_angles = (cg.theta1, cg.phi1)
    else:
        tx_angles = (cg.theta1, cg.phi1)
        rx_angles = (cg.theta2, cg.phi2)
    t_forms, _ = steering_forms(tx_geom, codebook_tables(tx_geom, tx_beams),
                                [tx_angles[0]], [tx_angles[1]])
    _, r_forms = steering_forms(rx_geom, codebook_tables(rx_geom, rx_beams),
                                [rx_angles[0]], [rx_angles[1]])
    gamma = sig.gamma(tx_geom.n_elements, rx_geom.n_elements)
    jm = fim_from_forms(t_forms[0], r_forms[0], gamma, cg.beta, sig.weff2, direction)
    if not np.any(np.abs(jm) > 0.0):
        raise NoIlluminationError("no illumination: all FIM entries are zero")
    return ChannelFim(matrix=jm, direction=direction, gamma=gamma)


def efim(jm: np.ndarray, keep, labels=None) -> Efim:
    """Equivalent FIM of the kept parameters via the Schur complement."""
    jm = np.asarray(jm, dtype=np.float64)
    n = jm.shape[0]
    keep = sorted({int(i) for i in keep})
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices out of range for dimension {n}")
    drop = [i for i in range(n) if i not in keep]
    if not drop:
        raise ValueError("must drop at least one nuisance parameter")
    j11 = jm[np.ix_(keep, keep)]
    j12 = jm[np.ix_(keep, drop)]
    j22 = jm[np.ix_(drop, drop)]
    cond = np.linalg.cond(j22)
    if not np.isfinite(cond) or cond > 1e12:
        raise NuisanceSingularError("nuisance parameters unidentifiable")
    out = j11 - j12 @ np.linalg.solve(j22, j12.T)
    if labels is None:
        labels = tuple(keep)
    else:
        labels = tuple(labels[i] for i in keep)
    return Efim(matrix=0.5 * (out + out.T), kept_parameters=labels)


def eliminate_gain(jm: np.ndarray) -> np.ndarray:
    """Angle EFIMs after eliminating the gain amplitude, batched.

    Maps channel FIMs (..., 7, 7) to (..., 4, 4). psi and tau are decoupled
    by construction, so the only Schur correction is the rank-one beta term.
    A zero or non-finite beta entry yields non-finite rows instead of a
    warning.
    """
    coupling = jm[..., :4, 4]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        outer = coupling[..., :, None] * coupling[..., None, :]
        return jm[..., :4, :4] - outer / jm[..., 4:5, 4:5]


def angle_efim(cf: ChannelFim) -> Efim:
    """4x4 EFIM of the link angles after eliminating the gain amplitude."""
    if cf.matrix[4, 4] <= 0.0:
        raise NuisanceSingularError("nuisance parameters unidentifiable")
    return Efim(matrix=eliminate_gain(cf.matrix), kept_parameters=CHANNEL_PARAMS[:4])


def delay_info(cf: ChannelFim) -> float:
    """Delay information: the (tau, tau) entry, already decoupled."""
    return float(cf.matrix[6, 6])


def efim_additivity(je1: Efim, je2: Efim) -> Efim:
    """Total EFIM of two independent observations with disjoint nuisances."""
    if je1.kept_parameters != je2.kept_parameters:
        raise ValueError(
            f"kept parameters differ: {je1.kept_parameters} vs {je2.kept_parameters}"
        )
    return Efim(matrix=je1.matrix + je2.matrix, kept_parameters=je1.kept_parameters)
