"""Localization bounds for the one-way, round-trip, and collaborative protocols.

The 5x5 localization EFIM over (zeta0, chi0, px, py, pz) is E = J·D·Jᵀ with
J the square location-to-channel Jacobian and D = blkdiag(A₁, A₂, w): the
anchor block A₁ over (theta1, phi1) and terminal block A₂ over (theta2,
phi2) of an angle EFIM A (`fim.fim_from_forms`, or `fim.angle_efim` of a
7x7), and a delay weight w. The protocol decides A and w:

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
M = J⁻¹, E⁻¹ = Mᵀ·blkdiag(A₁⁻¹, A₂⁻¹, 1/w)·M. J's structure fixes M's rows
at every pose. The anchor angles and the delay depend on the position
only, so J's orientation rows vanish in their columns and M's
terminal-angle rows vanish over the position columns. Over the position
rows, J's anchor-angle and delay columns are e_θ/r, e_φ/(r·sinθ₁) and u/c:
mutually orthogonal, so C = J[2:5, (θ₁, φ₁, τ)] inverts as Cᵀ with each
row divided by its column's squared norm. A radial move leaves the
terminal-local direction unchanged, so M's delay row vanishes over the
orientation columns, and

    PEB² = ⟨A₁⁻¹, G_pos⟩ + 1/(w·|J_τ|²),    OEB² = Σ_d ⟨A_d⁻¹, G_d⟩,

with G = F·Fᵀ over the rows F of M for A_d's angles and its orientation
(G_d) or position (G_pos) columns, G_pos = diag(1/|J_θ₁|², 1/|J_φ₁|²) =
diag(r², r²·sin²θ₁) and 1/|J_τ|² = c². The delay weight w enters OEB not
at all.

No G is formed and no block inverted: with A_d = L·Lᵀ, ⟨A_d⁻¹, F·Fᵀ⟩ =
|L⁻¹F|², a closed 2x2 form that `efim_factors` takes elementwise over the
poses, so a singular or indefinite block spoils only its own pose's terms.
`pose_grams` builds F, which depends only on the pose, from J's blocks,
elementwise too, once per chunk of the position pipeline; `efim_factors`
runs per variant and angle EFIM, and `assemble` calls both for one pose.
The delay weight (`delay_weight`), which alone depends on the bandwidth,
enters only in `invert_efim`, with |J_τ|². Batched arrays carry their
matrix axes first and the poses last, except `localization_efim`'s.
"""

from dataclasses import dataclass

import numpy as np

from .fim import angle_efim, delay_info

PROTOCOLS = ("owl", "rlp", "clp")

_MAX_CONDITION = 1e12
# cond(E) <= tr(E)·tr(E⁻¹); the factor leaves room for rounding in both traces
# and in the eigenvalues of the explicit test.
_CERTIFIED_PRODUCT = _MAX_CONDITION / 16.0
_SPLIT = 2.0**27 + 1.0


@dataclass(frozen=True)
class LocalizationBound:
    """Scalar bounds of one protocol at one pose.

    ``peb`` is the position error bound in meters, ``oeb`` the orientation
    error bound in radians, both infinite exactly where the pose is
    unidentifiable; ``condition`` is the 2-norm condition of the 5x5
    localization EFIM.
    """

    peb: float
    oeb: float
    condition: float


@dataclass(frozen=True)
class EfimFactors:
    """Per-pose angle terms of E(w) = J·blkdiag(A₁, A₂, w)·Jᵀ for one angle EFIM.

    ``angle`` is A's blocks (2, 2, 2, ...), each other field (...). For every
    delay weight w, PEB² = pos + 1/(w·|J_τ|²), OEB² = ori and
    tr(E) = trace + w·|J_τ|²; `invert_efim` adds the delay terms.
    """

    angle: np.ndarray  # A₁, A₂
    pos: np.ndarray  # ⟨A₁⁻¹, G_pos⟩
    ori: np.ndarray  # Σ_d ⟨A_d⁻¹, G_d⟩
    trace: np.ndarray  # Σ_d ⟨A_d, J_dᵀJ_d⟩


def delay_weight(kind: str, j_tau_f, j_tau_b) -> np.ndarray:
    """Delay weight w of a protocol, batched.

    ``j_tau_f``/``j_tau_b`` are the delay information of the forward and
    backward links; owl reads only the backward one. w is 0 wherever a link
    it reads carries no delay information; `invert_efim` gives those poses
    infinite bounds.
    """
    j_tau_f = np.asarray(j_tau_f, dtype=np.float64)
    j_tau_b = np.asarray(j_tau_b, dtype=np.float64)
    if kind == "owl":
        return j_tau_b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = 1.0 / j_tau_f
        w += 1.0 / j_tau_b
        return 4.0 / w


def localization_efim(jacobian, angle, weight):
    """Explicit 5x5 EFIMs Σ_d J_d·A_d·J_dᵀ + w·J_τ·J_τᵀ, batched over leading axes.

    ``jacobian`` is (..., 5, 5) with the four link-angle columns first and
    the delay column last, and ``angle`` the blocks (..., 2, 2, 2), as
    `efim_condition` reads them. A non-finite weight gives non-finite
    entries.
    """
    js = jacobian[..., :4].reshape(jacobian.shape[:-1] + (2, 2))  # J_d as (..., 5, d, 2)
    jd = jacobian[..., 4]
    spatial = np.einsum("...ida,...dab,...jdb->...ij", js, angle, js)
    weight = np.asarray(weight, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return spatial + weight[..., None, None] * jd[..., :, None] * jd[..., None, :]


def _two_products(x, y):
    """p, e with p + e = x·y exactly: Dekker's TwoProduct, splitting at 2²⁷ + 1."""
    p = x * y
    xs, ys = _SPLIT * x, _SPLIT * y
    xh, yh = xs - (xs - x), ys - (ys - y)
    xl, yl = x - xh, y - yh
    return p, xl * yl - (((p - xh * yh) - xl * yh) - xh * yl)


def pose_grams(jacobian: np.ndarray) -> tuple:
    """The pose's part of `efim_factors`: J₄ᵀJ₄'s blocks and J⁻¹'s angle factors.

    ``jacobian`` is (5, 5, ...), rows (zeta0, chi0, px, py, pz) and columns
    (theta1, phi1, theta2, phi2, tau), as `pose._jacobian_batch` builds it.
    With B = J[0:2, 2:4], P = J[2:5, 2:4] and C = J[2:5, (0, 1, 4)], C has
    orthogonal columns c_i, so that C⁻¹ = diag(1/|c_i|²)·Cᵀ, and P none
    along the delay column c_2, so that M's delay row vanishes over the
    orientation columns. Both are assumed, not checked: near a pole the
    rounding of J's θ₁ column grows like eps/sinθ₁, where a tolerance would
    reject valid poses. Returns (blocks, (f1, f2)): J₄ᵀJ₄'s diagonal blocks
    (2, 2, 2, ...) for tr(E); M's anchor-angle rows f1 (2, 4, ...),
    −C⁻¹·P·B⁻¹ over the orientation columns then √G_pos; and its
    terminal-angle rows f2 = B⁻¹ (2, 2, ...) over the orientation columns.

    J's orientation rows must vanish in the anchor-angle and delay columns,
    or ``ValueError`` is raised. B⁻¹ is its adjugate over a determinant
    compensated by Dekker's products: B can be nearly singular (cond 3.5e4
    at the exact test's pose), where b00·b11 − b01·b10 cancels. Every step
    runs elementwise over the poses, so a singular J gives inf or NaN terms
    for its own pose only.
    """
    if jacobian[:2, :2].any() or jacobian[:2, 4].any():
        raise ValueError("J's orientation rows must vanish in the anchor-angle and delay columns")
    b, p, c = jacobian[:2, 2:4], jacobian[2:5, 2:4], jacobian[2:5, :2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prod, err = _two_products(b[0], b[1, ::-1])  # b00·b11 and b01·b10
        binv = np.swapaxes(b[::-1, ::-1], 0, 1) / ((prod[0] - prod[1]) + (err[0] - err[1]))
        binv[0, 1] *= -1.0
        binv[1, 0] *= -1.0
        norms = np.einsum("ia...,ia...->a...", c, c)  # |J_θ₁|², |J_φ₁|²
        cp = np.einsum("ia...,ib...->ab...", c, p) / norms[:, None]  # C⁻¹·P's anchor rows
        f1 = np.zeros((2, 4) + jacobian.shape[2:])
        f1[:, :2] = -(cp[:, 0, None] * binv[0] + cp[:, 1, None] * binv[1])
        f1[0, 2], f1[1, 3] = np.sqrt(1.0 / norms)
    js = jacobian[:, :4].reshape((5, 2, 2) + jacobian.shape[2:])  # J_d as (5, d, 2, ...)
    return np.einsum("ida...,idb...->dab...", js, js), (f1, binv)


def _whitened_norms(block: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Squared column norms of L⁻¹·F for 2x2 blocks A = L·Lᵀ, (k, ...), F (2, k, ...).

    Elementwise over the poses, so a non-positive or non-finite pivot
    spoils only its own pose's terms (the adjugate form of ⟨A⁻¹, F·Fᵀ⟩
    would cancel where A is ill conditioned).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l00 = np.sqrt(block[0, 0])
        s = block[0, 1] / l00
        l11 = np.sqrt(block[1, 1] - s * s)
        y0 = f[0] / l00
        y1 = (f[1] - s * y0) / l11
        return np.square(y0, out=y0) + np.square(y1, out=y1)


def efim_factors(grams: tuple, angle: np.ndarray) -> EfimFactors:
    """`EfimFactors` of angle EFIMs, blocks (2, 2, 2, ...), at poses' `pose_grams`."""
    blocks, (f1, f2) = grams
    anchor, terminal = _whitened_norms(angle[0], f1), _whitened_norms(angle[1], f2)
    with np.errstate(over="ignore", invalid="ignore"):
        return EfimFactors(
            angle=angle, pos=anchor[2:].sum(axis=0),
            ori=anchor[:2].sum(axis=0) + terminal.sum(axis=0),
            trace=np.einsum("dab...,dab...->...", angle, blocks),
        )


def efim_condition(efim: np.ndarray) -> np.ndarray:
    """2-norm condition of symmetric EFIMs, batched: inf unless positive definite.

    A matrix with non-finite entries has infinite condition. No rank is
    needed beside it: an eigenvalue at or below 1e-13·λmax, which a rank
    test would drop, already makes the condition at least 1e13.
    """
    efim = np.where(np.isfinite(efim).all(axis=(-2, -1))[..., None, None], efim, 0.0)
    evals = np.linalg.eigvalsh(efim)
    emax = np.maximum(evals[..., -1], 0.0)
    # a subnormal smallest eigenvalue overflows the ratio to inf, as it should
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(evals[..., 0] > 0, emax / evals[..., 0], np.inf)


def invert_efim(weight, jacobian, factors: EfimFactors):
    """PEB and OEB of the EFIMs J·blkdiag(A₁, A₂, w)·Jᵀ at delay weights w, from factors.

    Batched over the trailing axes of ``weight`` (...) and ``jacobian``
    (5, 5, ...), which broadcast: a weight of shape (s, n) reads the n
    poses at s delay weights each. ``factors`` are the `efim_factors` of an
    angle EFIM at the `pose_grams` of ``jacobian``; the delay terms read
    |J_τ|² from ``jacobian``, and OEB reads no delay term.

    Returns (peb, oeb). A pose is identifiable when cond(E) <= 1e12 and
    both bounds are positive and finite; every other pose carries infinite
    bounds, so ``np.isfinite(peb)`` is the identifiable mask. The bound
    cond(E) <= tr(E)·tr(E⁻¹) certifies the condition cheaply; the poses it
    does not certify alone are gathered with their matrix axes last for
    the eigenvalue test of their explicit EFIM.
    """
    weight = np.asarray(weight, dtype=np.float64)
    # Non-finite factors give NaN or inf; such poses fail both tests below.
    # In place, a call holds at most four arrays of the weights' shape.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # w·|J_τ|² = w/c²: the information on the range itself
        range_info = weight * np.einsum("i...,i...->...", jacobian[2:, 4], jacobian[2:, 4])
        pos2 = np.divide(1.0, range_info)
        pos2 += factors.pos
        ori2 = factors.ori
        trace = np.add(range_info, factors.trace, out=range_info)
        positive = (pos2 > 0.0) & (pos2 < np.inf) & (ori2 > 0.0) & (ori2 < np.inf)
        certificate = np.multiply(trace, pos2 + ori2, out=trace)
        ok = positive & (certificate <= _CERTIFIED_PRODUCT)
        del range_info, trace, certificate
    doubt = ~ok
    if doubt.any():
        def at_doubt(x, core=2):  # the doubt poses' entries, (k, ...), matrix axes last
            x = np.moveaxis(x, range(core), range(-core, 0))
            return np.broadcast_to(x, doubt.shape + x.shape[x.ndim - core:])[doubt]

        efim = localization_efim(at_doubt(jacobian), at_doubt(factors.angle, 3),
                                 at_doubt(weight, 0))
        ok[doubt] = (efim_condition(efim) <= _MAX_CONDITION) & positive[doubt]
    peb, oeb = np.where(ok, pos2, np.inf), np.where(ok, ori2, np.inf)
    return np.sqrt(peb, out=peb), np.sqrt(oeb, out=oeb)


def assemble(
    kind: str,
    fwd: np.ndarray | None,
    bwd: np.ndarray,
    jac: np.ndarray,
) -> LocalizationBound:
    """Scalar bounds for one protocol at one pose: `invert_efim` at n = 1.

    ``fwd`` and ``bwd`` are the 7x7 `channel_fim`s of the forward and
    backward links and ``jac`` the 5x5 `location_jacobian`. ``fwd`` may be
    omitted for owl; rlp and clp need both directions. A pose whose 5x5
    EFIM is singular, as with a dark link or a two-way protocol with no
    delay information in one direction, has infinite bounds, as the
    pipeline reports it.
    """
    if kind not in PROTOCOLS:
        raise ValueError(f"kind must be one of {PROTOCOLS}, got {kind!r}")
    if kind != "owl" and fwd is None:
        raise ValueError(f"{kind} needs the forward-direction FIM")
    if bwd is None:
        raise ValueError("backward-direction FIM is required")

    j_tau_f = delay_info(fwd) if fwd is not None else 0.0
    j_tau_b = delay_info(bwd)
    weight = delay_weight(kind, j_tau_f, j_tau_b)
    angle = angle_efim(bwd)
    if kind == "clp":
        angle = angle + angle_efim(fwd)
    jac1 = jac[..., None]
    factors = efim_factors(pose_grams(jac1), angle[..., None])
    peb, oeb = invert_efim(weight[None], jac1, factors)
    condition = efim_condition(localization_efim(jac, angle, weight))
    return LocalizationBound(peb=float(peb[0]), oeb=float(oeb[0]), condition=float(condition))
