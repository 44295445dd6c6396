"""Localization bounds for the one-way, round-trip, and collaborative protocols.

The 5x5 localization EFIM over (zeta0, chi0, px, py, pz) is E = J·D·Jᵀ with
J the square location-to-channel Jacobian and D = blkdiag(A, w): a 4x4 angle
EFIM A and a delay weight w. The protocol decides A and w:

  * owl: one-way, perfectly synchronized; A is the backward angle EFIM and
    w the backward delay information alone.
  * rlp: round-trip; the responder replies after a pre-agreed delay, the
    clock bias cancels, and the delay weight is the harmonic combination
    4 / (1/J_f + 1/J_b).
  * clp: collaborative; the responder replies at a pre-agreed instant and
    both received signals are used, so A gains the forward angle EFIM while
    the delay weight (with the bias eliminated as a nuisance) equals the
    round-trip one.

The bounds never need E itself. J is invertible wherever E is, so with
M = J⁻¹ the covariance is E⁻¹ = Mᵀ·blkdiag(A⁻¹, 1/w)·M and

    PEB² = ⟨A⁻¹, G_pos⟩ + g_pos/w,    OEB² = ⟨A⁻¹, G_ori⟩ + g_ori/w,

an angle term and a delay term, where G = M₄ᵀM₄ and g = |M_τ|² over the
position or orientation columns of M. `efim_factors` computes these terms
once per pose and angle EFIM; the delay weight, which alone depends on the
bandwidth, enters only in `invert_efim`. The position pipeline calls both
for many poses and `assemble` for one.
"""

from dataclasses import dataclass

import numpy as np

from .fim import ChannelFim, angle_efim, delay_info
from .pose import LocationJacobian

PROTOCOLS = ("owl", "rlp", "clp")
LOCATION_PARAMS = ("zeta0", "chi0", "px", "py", "pz")

_MAX_CONDITION = 1e12
# cond(E) <= tr(E)·tr(E⁻¹); the factor leaves room for rounding in both traces
# and in the eigenvalues that define the identifiable flag.
_CERTIFIED_PRODUCT = _MAX_CONDITION / 16.0


class DelayUnobservableError(ValueError):
    """Two-way protocol with zero delay information in one direction."""


@dataclass(frozen=True)
class LocalizationBound:
    """5x5 localization EFIM with its scalar bounds.

    ``peb`` is the position error bound in meters, ``oeb`` the orientation
    error bound in radians. Unidentifiable poses carry infinite bounds;
    ``rank`` and ``condition`` are those of ``efim``.
    """

    efim: np.ndarray
    peb: float
    oeb: float
    identifiable: bool
    rank: int
    condition: float


@dataclass(frozen=True)
class EfimFactors:
    """Per-pose terms of E(w) = J·blkdiag(A, w)·Jᵀ for one angle EFIM A.

    Each field is (..., 2): an angle term and a delay term, so that
    PEB² = pos[..., 0] + pos[..., 1]/w, OEB² = ori[..., 0] + ori[..., 1]/w
    and tr(E) = trace[..., 0] + w·trace[..., 1] for every delay weight w.
    """

    pos: np.ndarray  # ⟨A⁻¹, G_pos⟩, g_pos
    ori: np.ndarray  # ⟨A⁻¹, G_ori⟩, g_ori
    trace: np.ndarray  # ⟨A, J₄ᵀJ₄⟩, |J_τ|²


def _delay_weight(kind: str, j_tau_f, j_tau_b) -> np.ndarray:
    """Weight of the rank-one temporal term, batched; a zero gives inf or NaN."""
    j_tau_f = np.asarray(j_tau_f, dtype=np.float64)
    j_tau_b = np.asarray(j_tau_b, dtype=np.float64)
    if kind == "owl":
        return j_tau_b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def protocol_information(kind: str, angle_fwd, angle_bwd, j_tau_f, j_tau_b):
    """(A, w) of a protocol, batched: its EFIM is J·blkdiag(A, w)·Jᵀ.

    ``angle_fwd``/``angle_bwd`` are the (..., 4, 4) angle EFIMs and
    ``j_tau_f``/``j_tau_b`` the delay information of the forward and
    backward links. Only clp reads ``angle_fwd``.
    """
    angle = angle_bwd + angle_fwd if kind == "clp" else angle_bwd
    return angle, _delay_weight(kind, j_tau_f, j_tau_b)


def localization_efim(jacobian, angle, weight):
    """Explicit 5x5 localization EFIMs J·blkdiag(A, w)·Jᵀ, batched.

    ``jacobian`` is (..., 5, 5) with the four link-angle columns first and
    the delay column last. A non-finite weight gives non-finite entries.
    """
    js = jacobian[..., :4]
    jd = jacobian[..., 4]
    spatial = np.einsum("...ia,...ab,...jb->...ij", js, angle, js)
    weight = np.asarray(weight, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return spatial + weight[..., None, None] * jd[..., :, None] * jd[..., None, :]


def _inverse(a: np.ndarray) -> np.ndarray:
    """Batched inverse; exactly singular or non-finite matrices give NaN.

    `np.linalg.inv` raises for the whole batch when one matrix has an exact
    zero pivot; the LU determinant sign finds those matrices instead.
    """
    eye = np.eye(a.shape[-1])
    finite = np.isfinite(a)
    bad = None if finite.all() else ~finite.all(axis=(-2, -1))
    if bad is not None:
        a = np.where(bad[..., None, None], eye, a)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(a)[0] == 0.0
        bad = singular if bad is None else bad | singular
        inv = np.linalg.inv(np.where(bad[..., None, None], eye, a))
    if bad is not None:
        inv[bad] = np.nan
    return inv


def efim_factors(jacobian: np.ndarray, *angles) -> list:
    """`EfimFactors` of one Jacobian J with each angle EFIM A given, batched.

    ``jacobian`` is (..., 5, 5) with the four link-angle columns first and
    the delay column last, each A (..., 4, 4). A singular J or A gives NaN
    terms.
    """
    m = _inverse(jacobian)
    # Rows of each factor F are channel parameters; the bounds read the angle
    # block and the delay entry of its Gram F·Fᵀ.
    grams = [
        (f[..., :4, :] @ np.swapaxes(f[..., :4, :], -1, -2),
         np.einsum("...i,...i->...", f[..., 4, :], f[..., 4, :]))
        for f in (np.swapaxes(jacobian, -1, -2), m[..., 2:], m[..., :2])
    ]

    def terms(x, gram):
        block, delay = gram
        return np.stack([np.einsum("...ab,...ab->...", x, block), delay], axis=-1)

    factors = []
    for angle in angles:
        angle_inv = _inverse(angle)
        factors.append(EfimFactors(
            pos=terms(angle_inv, grams[1]), ori=terms(angle_inv, grams[2]),
            trace=terms(angle, grams[0]),
        ))
    return factors


def rank_and_condition(efim: np.ndarray):
    """Numerical rank and 2-norm condition of symmetric EFIMs, batched.

    Eigenvalues below 1e-13 of the largest do not count toward the rank. A
    matrix with non-finite entries has rank 0 and infinite condition.
    """
    efim = np.where(np.isfinite(efim).all(axis=(-2, -1))[..., None, None], efim, 0.0)
    evals = np.linalg.eigvalsh(efim)
    emax = np.maximum(evals[..., -1], 0.0)
    rank = np.count_nonzero(evals > emax[..., None] * 1e-13, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = np.where(evals[..., 0] > 0, emax / evals[..., 0], np.inf)
    return rank, condition


def invert_efim(jacobian, angle, weight, factors: EfimFactors | None = None):
    """PEB and OEB of the EFIMs J·blkdiag(A, w)·Jᵀ, from their factors.

    Batched over the leading axes of ``jacobian`` (..., 5, 5), ``angle``
    (..., 4, 4) and ``weight`` (...); ``factors`` are the `efim_factors` of
    ``jacobian`` and ``angle``, computed here when not given.

    Returns (peb, oeb, identifiable). A pose is identifiable when its EFIM
    has full rank and condition at most 1e12. The bound
    cond(E) <= tr(E)·tr(E⁻¹) certifies that cheaply; poses it does not
    certify get the eigenvalue test of their explicit EFIM. Unidentifiable
    poses, and any whose bound the factors do not give as a positive
    number, carry infinite bounds.
    """
    if factors is None:
        (factors,) = efim_factors(jacobian, angle)
    weight = np.asarray(weight, dtype=np.float64)
    # Non-finite factors give NaN or inf here; every such pose fails both
    # the certificate and the positivity test below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pos2 = factors.pos[..., 0] + factors.pos[..., 1] / weight
        ori2 = factors.ori[..., 0] + factors.ori[..., 1] / weight
        trace = factors.trace[..., 0] + weight * factors.trace[..., 1]
        positive = (pos2 > 0.0) & (pos2 < np.inf) & (ori2 > 0.0) & (ori2 < np.inf)
        ok = positive & (trace * (pos2 + ori2) <= _CERTIFIED_PRODUCT)
    doubt = ~ok
    if doubt.any():
        efim = localization_efim(jacobian[doubt], angle[doubt], weight[doubt])
        rank, condition = rank_and_condition(efim)
        ok[doubt] = (rank == 5) & (condition <= _MAX_CONDITION) & positive[doubt]
    peb = np.sqrt(np.where(ok, pos2, np.inf))
    oeb = np.sqrt(np.where(ok, ori2, np.inf))
    return peb, oeb, ok


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
    angle, weight = protocol_information(
        kind, angle_fwd, angle_efim(bwd).matrix, j_tau_f, j_tau_b
    )
    peb, oeb, ok = invert_efim(jac.full[None], angle[None], weight[None])
    efim5 = localization_efim(jac.full, angle, weight)
    rank, condition = rank_and_condition(efim5)
    return LocalizationBound(
        efim=efim5,
        peb=float(peb[0]),
        oeb=float(oeb[0]),
        identifiable=bool(ok[0]),
        rank=int(rank),
        condition=float(condition),
    )
