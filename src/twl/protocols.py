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

an angle term and a delay term, where G = F·Fᵀ with F the angle rows M₄ of
the position or orientation columns of M, and g = |M_τ|² over the same
columns. As p = c·τ·u(θ₁, φ₁), G_pos = diag(r², r²·sin²θ₁, 0, 0), g_pos =
c² and g_ori = 0: the delay enters PEB only as c²/w, and OEB not at all.
G is never formed and A never inverted: with A = L·Lᵀ its Cholesky
factor, ⟨A⁻¹, F·Fᵀ⟩ = |L⁻¹F|², and `efim_factors` computes L⁻¹F by an
elimination elementwise over the poses, so a singular or indefinite A
spoils only its own pose's terms. `pose_grams` computes M₄ and g, which
depend only on the pose, and `efim_factors` contracts one A with them and
keeps A with the result; the delay weight (`delay_weight`), which alone
depends on the bandwidth, enters only in `invert_efim`. The position
pipeline calls `pose_grams` once per chunk and `efim_factors` per variant
and angle EFIM; `assemble` calls both for one pose.
"""

from dataclasses import dataclass

import numpy as np

from .fim import angle_efim, delay_info

PROTOCOLS = ("owl", "rlp", "clp")

_MAX_CONDITION = 1e12
# cond(E) <= tr(E)·tr(E⁻¹); the factor leaves room for rounding in both traces
# and in the eigenvalues that define the identifiable flag.
_CERTIFIED_PRODUCT = _MAX_CONDITION / 16.0


class DelayUnobservableError(ValueError):
    """Two-way protocol with zero delay information in one direction."""


@dataclass(frozen=True)
class LocalizationBound:
    """Scalar bounds of one protocol at one pose.

    ``peb`` is the position error bound in meters, ``oeb`` the orientation
    error bound in radians. Unidentifiable poses carry infinite bounds;
    ``condition`` is the 2-norm condition of the 5x5 localization EFIM.
    """

    peb: float
    oeb: float
    identifiable: bool
    condition: float


@dataclass(frozen=True)
class EfimFactors:
    """Per-pose terms of E(w) = J·blkdiag(A, w)·Jᵀ for one angle EFIM A.

    ``angle`` is A itself, (..., 4, 4). Each other field is (..., 2): an
    angle term and a delay term, so that PEB² = pos[..., 0] + pos[..., 1]/w,
    OEB² = ori[..., 0] + ori[..., 1]/w and tr(E) = trace[..., 0] +
    w·trace[..., 1] for every delay weight w.
    """

    angle: np.ndarray  # A
    pos: np.ndarray  # ⟨A⁻¹, G_pos⟩, g_pos
    ori: np.ndarray  # ⟨A⁻¹, G_ori⟩, g_ori
    trace: np.ndarray  # ⟨A, J₄ᵀJ₄⟩, |J_τ|²


def delay_weight(kind: str, j_tau_f, j_tau_b) -> np.ndarray:
    """Delay weight w of a protocol, batched; a zero gives inf or NaN.

    ``j_tau_f``/``j_tau_b`` are the delay information of the forward and
    backward links; owl reads only the backward one.
    """
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
    return float(delay_weight(kind, j_tau_f, j_tau_b))


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


def pose_grams(jacobian: np.ndarray) -> tuple:
    """The pose's part of `efim_factors`: Jᵀ's Gram pair and M = J⁻¹'s factors.

    ``jacobian`` is (..., 5, 5) with the four link-angle columns first and
    the delay column last, and a singular J gives NaN terms. Returns
    (trace, (f, g_pos, g_ori)): ``trace`` is the Gram pair (angle block,
    delay entry) of Jᵀ; ``f`` is (..., 4, 5), the angle rows of M over its
    orientation columns then its position columns, and g_pos and g_ori the
    squared norms of M's delay row over the same columns.
    """
    m = _inverse(jacobian)
    jt = np.swapaxes(jacobian, -1, -2)
    trace = (jt[..., :4, :] @ jacobian[..., :4], _sq_norm(jt[..., 4, :]))
    # M's angle rows are copied out, so that the rest of M is freed
    return trace, (m[..., :4, :].copy(), _sq_norm(m[..., 4, 2:]), _sq_norm(m[..., 4, :2]))


def _sq_norm(v):
    return np.einsum("...i,...i->...", v, v)


def _whitened_squares(angle: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Squares of L⁻¹·F for A = L·Lᵀ, as (4, k, ...); a bad A gives NaN or inf.

    Symmetric elimination on [A | F], elementwise over the leading axes:
    after step j, row j holds row j of [Lᵀ | L⁻¹F] from column j on. No
    LAPACK call sees A, so one bad pose cannot fail a whole batch, and a
    non-positive or non-finite pivot spoils only its own pose's terms.
    """
    aug = np.empty((4, 4 + f.shape[-1]) + angle.shape[:-2])
    aug[:, :4] = np.moveaxis(angle, (-2, -1), (0, 1))
    aug[:, 4:] = np.moveaxis(f, (-2, -1), (0, 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(4):
            row = aug[j, j:]
            row /= np.sqrt(row[0])
            for i in range(j + 1, 4):
                aug[i, j + 1:] -= row[i - j] * row[1:]
        y = aug[:, 4:]
        return np.square(y, out=y)


def efim_factors(grams: tuple, angle: np.ndarray) -> EfimFactors:
    """`EfimFactors` of angle EFIMs A (..., 4, 4) at poses' `pose_grams`.

    ⟨A⁻¹, F·Fᵀ⟩ = |L⁻¹F|² with L the Cholesky factor of A, so A is never
    inverted; a singular or indefinite A gives NaN or inf terms.
    """
    (block, delay), (f, g_pos, g_ori) = grams
    y2 = _whitened_squares(angle, f)
    with np.errstate(over="ignore", invalid="ignore"):
        pos, ori = y2[:, 2:].sum(axis=(0, 1)), y2[:, :2].sum(axis=(0, 1))
    return EfimFactors(
        angle=angle, pos=np.stack([pos, g_pos], axis=-1), ori=np.stack([ori, g_ori], axis=-1),
        trace=np.stack([np.einsum("...ab,...ab->...", angle, block), delay], axis=-1),
    )


def rank_and_condition(efim: np.ndarray):
    """Numerical rank and 2-norm condition of symmetric EFIMs, batched.

    Eigenvalues below 1e-13 of the largest do not count toward the rank. A
    matrix with non-finite entries has rank 0 and infinite condition.
    """
    efim = np.where(np.isfinite(efim).all(axis=(-2, -1))[..., None, None], efim, 0.0)
    evals = np.linalg.eigvalsh(efim)
    emax = np.maximum(evals[..., -1], 0.0)
    rank = np.count_nonzero(evals > emax[..., None] * 1e-13, axis=-1)
    # a subnormal smallest eigenvalue overflows the ratio to inf, as it should
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        condition = np.where(evals[..., 0] > 0, emax / evals[..., 0], np.inf)
    return rank, condition


def invert_efim(jacobian, factors: EfimFactors, weight):
    """PEB and OEB of the EFIMs J·blkdiag(A, w)·Jᵀ, from their factors.

    Batched over the leading axes of ``jacobian`` (..., 5, 5) and ``weight``
    (...), which broadcast: a weight of shape (s, n) reads the n poses at s
    delay weights each. ``factors`` are the `efim_factors` of A at the
    `pose_grams` of ``jacobian``.

    Returns (peb, oeb, identifiable). A pose is identifiable when its EFIM
    has full rank and condition at most 1e12. The bound
    cond(E) <= tr(E)·tr(E⁻¹) certifies that cheaply; poses it does not
    certify get the eigenvalue test of their explicit EFIM. Unidentifiable
    poses, and any whose bound the factors do not give as a positive
    number, carry infinite bounds.
    """
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
        def at_doubt(x, core):
            return np.broadcast_to(x, doubt.shape + x.shape[x.ndim - core:])[doubt]

        efim = localization_efim(
            at_doubt(jacobian, 2), at_doubt(factors.angle, 2), at_doubt(weight, 0)
        )
        rank, condition = rank_and_condition(efim)
        ok[doubt] = (rank == 5) & (condition <= _MAX_CONDITION) & positive[doubt]
    peb = np.sqrt(np.where(ok, pos2, np.inf))
    oeb = np.sqrt(np.where(ok, ori2, np.inf))
    return peb, oeb, ok


def assemble(
    kind: str,
    fwd: np.ndarray | None,
    bwd: np.ndarray,
    jac: np.ndarray,
) -> LocalizationBound:
    """Scalar bounds for one protocol at one pose: `invert_efim` at n = 1.

    ``fwd`` and ``bwd`` are the 7x7 `channel_fim`s of the forward and
    backward links and ``jac`` the 5x5 `location_jacobian`. ``fwd`` may be
    omitted for owl; rlp and clp need both directions. A singular 5x5 EFIM
    is reported as unidentifiable, not raised.
    """
    if kind not in PROTOCOLS:
        raise ValueError(f"kind must be one of {PROTOCOLS}, got {kind!r}")
    if kind != "owl" and fwd is None:
        raise ValueError(f"{kind} needs the forward-direction FIM")
    if bwd is None:
        raise ValueError("backward-direction FIM is required")

    j_tau_f = delay_info(fwd) if fwd is not None else 0.0
    j_tau_b = delay_info(bwd)
    weight = combined_delay_info(kind, j_tau_f, j_tau_b)  # raises DelayUnobservableError
    angle = angle_efim(bwd).matrix
    if kind == "clp":
        angle = angle + angle_efim(fwd).matrix
    factors = efim_factors(pose_grams(jac[None]), angle[None])
    peb, oeb, ok = invert_efim(jac[None], factors, np.array([weight]))
    _, condition = rank_and_condition(localization_efim(jac, angle, weight))
    return LocalizationBound(
        peb=float(peb[0]), oeb=float(oeb[0]), identifiable=bool(ok[0]),
        condition=float(condition),
    )
