"""Localization bounds for the one-way, round-trip, and collaborative protocols.

The 5x5 localization EFIM over (zeta0, chi0, px, py, pz) is a spatial term,
built by mapping the angle EFIM through the location Jacobian, plus a rank-one
temporal term weighted by the protocol's combined delay information:

  * owl: one-way, perfectly synchronized; delay weight is the backward delay
    information alone.
  * rlp: round-trip; the responder replies after a pre-agreed delay, the
    clock bias cancels, and the delay weight is the harmonic combination
    4 / (1/J_f + 1/J_b).
  * clp: collaborative; the responder replies at a pre-agreed instant and
    both received signals are used, so the spatial term gains the forward
    contribution while the delay weight (with the bias eliminated as a
    nuisance) equals the round-trip one.

`localization_efim` builds these EFIMs batched over leading axes; the
position pipeline calls it for many poses and `assemble` for one.
"""

from dataclasses import dataclass

import numpy as np

from .fim import ChannelFim, angle_efim, delay_info
from .pose import LocationJacobian

PROTOCOLS = ("owl", "rlp", "clp")
LOCATION_PARAMS = ("zeta0", "chi0", "px", "py", "pz")

_MAX_CONDITION = 1e12


class DelayUnobservableError(ValueError):
    """Two-way protocol with zero delay information in one direction."""


@dataclass(frozen=True)
class LocalizationBound:
    """5x5 localization EFIM with its inverse and scalar bounds.

    ``peb`` is the position error bound in meters, ``oeb`` the orientation
    error bound in radians. Unidentifiable poses carry infinite bounds,
    ``cov=None``, and the achieved EFIM rank.
    """

    efim: np.ndarray
    cov: np.ndarray | None
    peb: float
    oeb: float
    identifiable: bool
    rank: int
    condition: float


def _delay_weight(kind: str, j_tau_f, j_tau_b) -> np.ndarray:
    """Weight of the rank-one temporal term, batched; a zero gives inf or NaN."""
    j_tau_f = np.asarray(j_tau_f, dtype=np.float64)
    j_tau_b = np.asarray(j_tau_b, dtype=np.float64)
    if kind == "owl":
        return j_tau_b
    with np.errstate(divide="ignore", invalid="ignore"):
        return 4.0 / (1.0 / j_tau_f + 1.0 / j_tau_b)


def combined_delay_info(kind: str, j_tau_f: float, j_tau_b: float) -> float:
    """Delay information entering the temporal term of each protocol."""
    if kind not in PROTOCOLS:
        raise ValueError(f"kind must be one of {PROTOCOLS}, got {kind!r}")
    if j_tau_f < 0 or j_tau_b < 0:
        raise ValueError("delay information must be nonnegative")
    if kind != "owl" and (j_tau_f == 0.0 or j_tau_b == 0.0):
        raise DelayUnobservableError(f"delay unobservable under {kind}")
    return float(_delay_weight(kind, j_tau_f, j_tau_b))


def localization_efim(kind: str, jacobian, angle_fwd, angle_bwd, j_tau_f, j_tau_b):
    """5x5 localization EFIMs, batched over leading axes.

    ``jacobian`` is (..., 5, 5) with the four link-angle columns first and
    the delay column last; ``angle_fwd``/``angle_bwd`` are the (..., 4, 4)
    angle EFIMs and ``j_tau_f``/``j_tau_b`` the delay information of the
    forward and backward links. Only clp reads ``angle_fwd``.
    """
    js = jacobian[..., :4]
    jd = jacobian[..., 4]
    angle = angle_bwd + angle_fwd if kind == "clp" else angle_bwd
    spatial = np.einsum("...ia,...ab,...jb->...ij", js, angle, js)
    j_tau = _delay_weight(kind, j_tau_f, j_tau_b)
    return spatial + j_tau[..., None, None] * jd[..., :, None] * jd[..., None, :]


def invert_efim(efim: np.ndarray):
    """Invert symmetric PSD EFIMs, batched over leading axes.

    Returns (cov, peb, oeb, identifiable, rank, condition); singular or
    extremely ill-conditioned matrices yield infinite bounds and cov rows
    of NaN.
    """
    efim = np.asarray(efim, dtype=np.float64)
    evals, evecs = np.linalg.eigh(efim)
    emax = np.maximum(evals[..., -1], 0.0)
    tol = emax[..., None] * 1e-13
    rank = np.count_nonzero(evals > tol, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = np.where(evals[..., 0] > 0, emax / evals[..., 0], np.inf)
    ok = (rank == efim.shape[-1]) & (condition <= _MAX_CONDITION)

    safe = np.where(evals > 0, evals, 1.0)
    cov = (evecs / safe[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    diag = np.diagonal(cov, axis1=-2, axis2=-1)
    peb = np.where(ok, np.sqrt(np.abs(diag[..., 2] + diag[..., 3] + diag[..., 4])), np.inf)
    oeb = np.where(ok, np.sqrt(np.abs(diag[..., 0] + diag[..., 1])), np.inf)
    cov = np.where(ok[..., None, None], cov, np.nan)
    return cov, peb, oeb, ok, rank, condition


def assemble(
    kind: str,
    fwd: ChannelFim | None,
    bwd: ChannelFim,
    jac: LocationJacobian,
) -> LocalizationBound:
    """Localization EFIM and scalar bounds for one protocol at one pose.

    ``fwd`` may be omitted for owl; rlp and clp need both directions. A
    singular 5x5 EFIM is reported as unidentifiable, not raised.
    """
    if kind not in PROTOCOLS:
        raise ValueError(f"kind must be one of {PROTOCOLS}, got {kind!r}")
    if kind != "owl" and fwd is None:
        raise ValueError(f"{kind} needs the forward-direction FIM")
    if bwd is None:
        raise ValueError("backward-direction FIM is required")

    j_tau_f = delay_info(fwd) if fwd is not None else 0.0
    j_tau_b = delay_info(bwd)
    combined_delay_info(kind, j_tau_f, j_tau_b)  # raises DelayUnobservableError
    angle_fwd = angle_efim(fwd).matrix if kind == "clp" else None
    efim5 = localization_efim(
        kind, jac.full, angle_fwd, angle_efim(bwd).matrix, j_tau_f, j_tau_b
    )
    cov, peb, oeb, ok, rank, condition = invert_efim(efim5)
    return LocalizationBound(
        efim=efim5,
        cov=cov if ok else None,
        peb=float(peb),
        oeb=float(oeb),
        identifiable=bool(ok),
        rank=int(rank),
        condition=float(condition),
    )
