import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twl.beamforming import directional_beams, region_spot_grid, reverse_direction
from twl.fim import angle_efim, channel_fim, delay_info
from twl.geometry import SPEED_OF_LIGHT
from twl.pose import Pose, channel_geometry, location_jacobian
from twl.protocols import (
    PROTOCOLS,
    assemble,
    delay_weight,
    efim_condition,
    efim_factors,
    invert_efim,
    localization_efim,
    pose_grams,
)
from twl.scenario import Scenario, position_tables, protocol_bounds, sample_positions

LAM = SPEED_OF_LIGHT / 38e9
DIAMOND = np.array(
    [[0.0, 0.0, -10.0], [25 * np.sqrt(3), 25, -10], [0, 50, -10], [-25 * np.sqrt(3), 25, -10]]
)


@pytest.fixture(scope="module")
def reference_link(default_signal, ura12):
    """Default-scale link at p = (0, 25, -10) with region-covering codebooks."""
    sig, bs, ue = default_signal, ura12, ura12
    pose = Pose(np.array([0.0, 25.0, -10.0]), 0.0, 0.0)
    cg = channel_geometry(pose, sig.wavelength, sig.c)
    bs_dirs = region_spot_grid(DIAMOND, 25)
    ue_dirs = [reverse_direction(th, ph) for th, ph in bs_dirs]
    f1 = directional_beams(bs, bs_dirs, "transmit")
    w1 = directional_beams(bs, bs_dirs, "receive")
    f2 = directional_beams(ue, ue_dirs, "transmit")
    w2 = directional_beams(ue, ue_dirs, "receive")
    fwd = channel_fim("forward", bs, ue, f1, w2, cg, sig)
    bwd = channel_fim("backward", ue, bs, f2, w1, cg, sig)
    jac = location_jacobian(pose, sig.c)
    return fwd, bwd, jac


def test_combined_delay_harmonic():
    assert delay_weight("rlp", 3.0, 3.0) == pytest.approx(6.0)
    assert delay_weight("clp", 3.0, 3.0) == pytest.approx(6.0)


def test_combined_delay_one_sided_limit():
    jb = 2.5
    assert delay_weight("rlp", 1e18, jb) == pytest.approx(4 * jb, rel=1e-10)


def test_combined_delay_owl_uses_backward_only():
    assert delay_weight("owl", 123.0, 7.0) == 7.0


def test_combined_delay_matches_two_by_two_schur(rng):
    # eliminate the clock bias from the explicit delay/bias FIM and compare
    for _ in range(25):
        jf, jb = rng.uniform(0.1, 10.0, size=2)
        joint = jb * np.array([[1.0, -1.0], [-1.0, 1.0]]) + jf * np.array(
            [[1.0, 1.0], [1.0, 1.0]]
        )
        schur = joint[0, 0] - joint[0, 1] ** 2 / joint[1, 1]
        assert delay_weight("clp", jf, jb) == pytest.approx(schur, rel=1e-12)


def _without_delay(jm):
    jm = jm.copy()
    jm[6, 6] = 0.0
    return jm


def test_combined_delay_unobservable(reference_link):
    # a two-way protocol without delay information in one direction has
    # delay weight 0, a singular EFIM, and infinite bounds from `assemble`
    fwd, bwd, jac = reference_link
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert delay_weight("rlp", 0.0, 1.0) == 0.0
        assert delay_weight("clp", 1.0, 0.0) == 0.0
        for kind, f, b in (("rlp", _without_delay(fwd), bwd), ("clp", fwd, _without_delay(bwd))):
            bound = assemble(kind, f, b, jac)
            assert bound.condition > 1e12
            assert bound.peb == bound.oeb == math.inf


# The permutation Jacobian that sends (zeta0, chi0, px, py, pz) to (theta2,
# phi2, theta1, phi1, tau): block-triangular as a pose's J is, and J·Jᵀ = I.
PERMUTATION_J = np.eye(5)[[2, 3, 0, 1, 4]]


def _blocks(a):
    """The anchor and terminal 2x2 blocks of 4x4 angle EFIMs (4, 4, ...)."""
    return np.stack([a[:2, :2], a[2:, 2:]])


def _dense(blocks):
    """The 4x4 block-diagonal angle EFIM of blocks (2, 2, 2)."""
    a = np.zeros((4, 4))
    a[:2, :2], a[2:, 2:] = blocks
    return a


def test_identity_efim_bounds():
    # the permutation J, A = I4 and w = 1 give the identity EFIM
    factors = efim_factors(pose_grams(PERMUTATION_J[..., None]), _blocks(np.eye(4)[..., None]))
    np.testing.assert_array_equal(factors.angle[..., 0], [np.eye(2), np.eye(2)])
    peb, oeb = invert_efim(np.ones(1), PERMUTATION_J[..., None], factors)
    assert peb[0] == pytest.approx(np.sqrt(3.0))
    assert oeb[0] == pytest.approx(np.sqrt(2.0))
    assert efim_condition(np.eye(5)) == 1.0
    # J = I couples the orientation to the anchor angles and the delay,
    # which no pose's Jacobian does
    with pytest.raises(ValueError, match="orientation rows"):
        pose_grams(np.eye(5)[..., None])


def test_singular_efim_gives_inf_not_crash():
    # an exactly singular angle EFIM gives inf bounds for its pose only
    angle = _blocks(np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0])], axis=-1))
    jacobian = np.stack([PERMUTATION_J] * 2, axis=-1)
    factors = efim_factors(pose_grams(jacobian), angle)
    peb, oeb = invert_efim(np.ones(2), jacobian, factors)
    assert np.isfinite(peb).tolist() == np.isfinite(oeb).tolist() == [True, False]
    assert np.isinf(peb[1]) and np.isinf(oeb[1])
    assert efim_condition(np.diag([1.0, 1.0, 1.0, 1.0, 0.0])) == np.inf
    # a subnormal smallest eigenvalue overflows the condition number to inf
    assert efim_condition(np.diag([1.0, 1.0, 1.0, 1.0, 1e-310])) == np.inf


def test_cholesky_factors_flag_each_bad_angle_efim_alone(monkeypatch):
    """One batch of good and bad angle EFIMs: each finite bound is its own dense E's.

    The factors contract each 2x2 block of A through its closed-form
    Cholesky factor, elementwise, not a LAPACK call on the batch, which
    would raise for all poses when one A is not positive definite. The
    batch holds the blocks of I, diag(1, 1, 1, 0), an indefinite A, an
    all-NaN A and an SPD A scaled by 1e-27, once with w = 1 (cond(E) ~
    1e27, unidentifiable) and once with w = 1e-27 (E is 1e-27 times a
    well-conditioned matrix, identifiable).
    """
    rng = np.random.default_rng(14)
    b = rng.standard_normal((4, 4))
    spd = b @ b.T + 4.0 * np.eye(4)
    angle = _blocks(np.stack([
        np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0]), np.diag([2.0, 1.0, -1.0, 3.0]),
        np.full((4, 4), np.nan), 1e-27 * spd, 1e-27 * spd,
    ], axis=-1))
    weight = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1e-27])
    jacobian = np.eye(5) + 0.1 * rng.standard_normal((5, 5))
    jacobian[:2, (0, 1, 4)] = 0.0
    # as in every pose's J, C = J[2:5, (0, 1, 4)] has orthogonal columns
    # and the terminal-angle columns P = J[2:5, 2:4] none along the delay's
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    jacobian[2:, (0, 1, 4)] = q * rng.uniform(0.8, 1.2, 3)
    jacobian[2:, 2:4] -= np.outer(q[:, 2], q[:, 2] @ jacobian[2:, 2:4])
    jacobian = np.broadcast_to(jacobian[..., None], (5, 5, 6))
    grams = pose_grams(jacobian)
    for name in ("inv", "solve", "cholesky"):
        monkeypatch.setattr(np.linalg, name, None)  # any call on A would raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = efim_factors(grams, angle)
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peb, oeb = invert_efim(weight, jacobian, factors)
    efim = localization_efim(jacobian.transpose(2, 0, 1), angle.transpose(3, 0, 1, 2), weight)
    expected = efim_condition(efim) <= 1e12
    assert expected.tolist() == [True, False, False, False, False, True]
    np.testing.assert_array_equal(np.isfinite(peb), expected)
    np.testing.assert_array_equal(np.isfinite(oeb), expected)
    assert np.isinf(peb[~expected]).all() and np.isinf(oeb[~expected]).all()
    for k in np.flatnonzero(expected):
        cov = np.diag(np.linalg.inv(efim[k]))
        assert peb[k] == pytest.approx(np.sqrt(cov[2:].sum()), rel=1e-12)
        assert oeb[k] == pytest.approx(np.sqrt(cov[:2].sum()), rel=1e-12)


def test_doubt_poses_get_their_own_dense_test_at_every_delay_scale(monkeypatch):
    """`invert_efim` at a (scales, n) weight, as `sweep_bandwidth` reads a chunk.

    Over delay scales 1e-20..1e20 the trace certificate clears some poses
    and not others, and of those it does not clear some are identifiable
    and some not. The uncleared poses alone are gathered, with their matrix
    axes moved last, for the eigenvalue test: the EFIMs it sees are theirs,
    in order, and the finite bounds are exactly those of the poses that
    pass the dense per-pose test of J·blkdiag(A, w)·Jᵀ. A gather that moved
    the wrong axes would hand it transposed or other poses' matrices.
    """
    import twl.protocols
    from twl.protocols import _CERTIFIED_PRODUCT

    scn = Scenario.reference_defaults(orientation=(0.5, 0.5))
    n = 64
    tables = position_tables(scn, sample_positions(scn.region, n, 21))
    scales = np.logspace(-20.0, 20.0, 41)[:, None]
    weight = delay_weight("rlp", tables.delay_info["bs_to_ue"] * scales,
                          tables.delay_info["ue_to_bs"] * scales)
    jac, factors = tables.jacobian, tables.factors["ue_to_bs"]
    seen = []
    monkeypatch.setattr(twl.protocols, "efim_condition",
                        lambda efim: seen.append(efim) or efim_condition(efim))
    peb, oeb = invert_efim(weight, jac, factors)
    monkeypatch.undo()

    dense = np.array([[localization_efim(jac[..., i], factors.angle[..., i], weight[s, i])
                       for i in range(n)] for s in range(len(scales))])
    ok = np.isfinite(peb)
    np.testing.assert_array_equal(ok, efim_condition(dense) <= 1e12)
    np.testing.assert_array_equal(np.isfinite(oeb), ok)
    assert ok.shape == peb.shape == oeb.shape == weight.shape
    assert np.isinf(peb[~ok]).all() and np.isinf(oeb[~ok]).all()
    range_info = weight * np.einsum("in,in->n", jac[2:, 4], jac[2:, 4])
    pos2 = factors.pos + 1.0 / range_info
    ori2 = factors.ori
    trace = factors.trace + range_info
    doubt = ~(trace * (pos2 + ori2) <= _CERTIFIED_PRODUCT)
    assert (~doubt).any() and ok[doubt].any() and not ok[doubt].all()
    (gathered,) = seen
    np.testing.assert_allclose(gathered, dense[doubt], rtol=1e-14, atol=0.0)


# Smallest eigenvalues of the EFIMs below, as a fraction of the largest
# (``None``: non-finite) or absolute (``abs``): zero, subnormal, negative,
# non-finite, and a sweep across the 1e-13 rank threshold and 1e12 condition.
_SMALLEST = ([(0.0, "abs"), (5e-324, "abs"), (1e-310, "abs"), (-1e-300, "abs"),
              (-1e-3, "rel"), (-1e-14, "rel"), (np.nan, None), (np.inf, None),
              (-np.inf, None)]
             + [(r, "rel") for r in np.logspace(-14.0, -11.0, 61)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(-30.0, 30.0))
def test_condition_alone_decides_what_rank_and_condition_did(seed, log_scale):
    """cond(E) <= 1e12 accepts exactly the EFIMs that also had numerical rank 5.

    The rank counted the eigenvalues above 1e-13 of the largest, so a rank
    below 5 leaves an eigenvalue at or below 1e-13·λmax and the condition
    at 1e13 or more: the rank term of the former test decided nothing. Each
    example rotates eigenvalues of random scale by a random orthogonal
    matrix, and also takes them as a diagonal, so that subnormal and
    negative ones reach the eigensolver exactly.
    """
    rng = np.random.default_rng(seed)
    top = 10.0**log_scale * rng.uniform(1.0, 10.0, 4)
    evals = np.empty((len(_SMALLEST), 5))
    evals[:, 1:] = top
    for k, (value, kind) in enumerate(_SMALLEST):
        evals[k, 0] = value * top.max() if kind == "rel" else value
    q, _ = np.linalg.qr(rng.standard_normal((len(_SMALLEST), 5, 5)))
    with np.errstate(invalid="ignore", over="ignore"):
        rotated = np.einsum("kij,kj,klj->kil", q, evals, q)
        diagonal = evals[:, :, None] * np.eye(5)
    for efim in (rotated, diagonal):
        finite = np.isfinite(efim).all(axis=(-2, -1))
        eig = np.linalg.eigvalsh(np.where(finite[:, None, None], efim, 0.0))
        emax = np.maximum(eig[:, -1], 0.0)
        rank = np.count_nonzero(eig > emax[:, None] * 1e-13, axis=-1)
        condition = efim_condition(efim)
        np.testing.assert_array_equal(condition <= 1e12, (rank == 5) & (condition <= 1e12))
        assert (condition <= 1e12).any() and (rank < 5).any()


def test_block_inverse_isolates_a_singular_jacobian_without_lapack(monkeypatch):
    """J is inverted by its blocks, elementwise: no LAPACK call sees it.

    At [10, 0, 0] and zero orientation the link runs along the terminal's x
    axis, so chi0 moves neither terminal angle and J is exactly singular. A
    chunk that holds it builds its tables with no `np.linalg` inverse,
    solve or determinant; in a batch of Jacobians, only that pose's terms
    are not finite, and every other pose's equal its own n = 1 terms bit
    for bit.
    """
    scn = Scenario.reference_defaults()
    positions = sample_positions(scn.region, 8, 4)
    positions[3] = [10.0, 0.0, 0.0]
    for name in ("inv", "solve", "slogdet", "det"):
        monkeypatch.setattr(np.linalg, name, None)  # any call on J would raise
    jacobian = position_tables(scn, positions).jacobian
    monkeypatch.undo()

    def terms(grams, i):
        blocks, (f1, f2) = grams
        return [blocks[..., i], f1[..., i], f2[..., i]]

    grams = pose_grams(jacobian)
    for i in range(len(positions)):
        batched = terms(grams, i)
        for got, alone in zip(batched, terms(pose_grams(jacobian[..., i:i + 1]), 0)):
            np.testing.assert_array_equal(got, alone)
        finite = all(np.isfinite(t).all() for t in batched)
        assert finite == (i != 3), i


def _exact_bounds(jacobian, angle, weight):
    """PEB and OEB of J·blkdiag(A₁, A₂, w)·Jᵀ in exact rational arithmetic."""
    d = [[Fraction(0)] * 5 for _ in range(5)]
    for k, a, b in itertools.product(range(2), repeat=3):
        d[2 * k + a][2 * k + b] = Fraction(angle[k, a, b])
    d[4][4] = Fraction(weight)
    j = [[Fraction(x) for x in row] for row in jacobian]
    jd = [[sum(j[i][k] * d[k][m] for k in range(5)) for m in range(5)] for i in range(5)]
    aug = [[sum(jd[i][k] * j[m][k] for k in range(5)) for m in range(5)]
           + [Fraction(int(i == m)) for m in range(5)] for i in range(5)]
    for c in range(5):  # Gauss-Jordan; E is positive definite, no pivoting needed
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(5):
            if r != c:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    cov_diag = [aug[i][5 + i] for i in range(5)]
    return math.sqrt(sum(cov_diag[2:])), math.sqrt(sum(cov_diag[:2]))


def test_factored_bounds_match_exact_arithmetic():
    # an ill-conditioned pose, where an eigendecomposition of the explicit
    # EFIM errs by about 2e-8
    scn = Scenario.reference_defaults(orientation=(math.radians(30.0), math.radians(30.0)))
    tables = position_tables(scn, positions=np.array([[21.126, 12.198, -10.0]]))
    for initiator, fwd, bwd in (("bs", "bs_to_ue", "ue_to_bs"), ("ue", "ue_to_bs", "bs_to_ue")):
        for protocol in PROTOCOLS:
            angle = tables.angle_efim[bwd][..., 0]
            if protocol == "clp":
                angle = angle + tables.angle_efim[fwd][..., 0]
            weight = float(delay_weight(
                protocol, tables.delay_info[fwd][0], tables.delay_info[bwd][0]
            ))
            peb, oeb = _exact_bounds(tables.jacobian[..., 0], angle, weight)
            bound = protocol_bounds(tables, protocol, initiator)
            assert bound.peb[0] == pytest.approx(peb, rel=1e-13, abs=0.0)
            assert bound.oeb[0] == pytest.approx(oeb, rel=1e-13, abs=0.0)


def test_assemble_reference_ordering(reference_link):
    fwd, bwd, jac = reference_link
    owl = assemble("owl", None, bwd, jac)
    rlp = assemble("rlp", fwd, bwd, jac)
    clp = assemble("clp", fwd, bwd, jac)
    assert np.isfinite([clp.peb, rlp.peb, owl.peb]).all()
    assert clp.peb <= rlp.peb <= owl.peb * (1 + 1e-9)
    assert clp.oeb <= rlp.oeb * (1 + 1e-9)


def _dense_efim(kind, fwd, bwd, jac):
    """The explicit 5x5 localization EFIM whose bounds `assemble` reports."""
    angle = angle_efim(bwd)
    if kind == "clp":
        angle = angle + angle_efim(fwd)
    weight = delay_weight(kind, delay_info(fwd), delay_info(bwd))
    return localization_efim(jac, angle, weight)


def test_assemble_bound_consistency(reference_link):
    # the factored bounds against a dense inverse of the assembled EFIM
    fwd, bwd, jac = reference_link
    b = assemble("rlp", fwd, bwd, jac)
    dense = _dense_efim("rlp", fwd, bwd, jac)
    diag = np.diag(np.linalg.inv(dense))
    assert b.peb == pytest.approx(np.sqrt(diag[2:].sum()), rel=1e-12)
    assert b.oeb == pytest.approx(np.sqrt(diag[:2].sum()), rel=1e-12)
    assert b.condition == pytest.approx(np.linalg.cond(dense), rel=1e-6)


def test_clp_dominates_rlp_by_forward_spatial_term(reference_link):
    fwd, bwd, jac = reference_link
    gap = _dense_efim("clp", fwd, bwd, jac) - _dense_efim("rlp", fwd, bwd, jac)
    expected = jac[:, :4] @ _dense(angle_efim(fwd)) @ jac[:, :4].T
    np.testing.assert_allclose(gap, expected, rtol=1e-10)
    assert np.linalg.eigvalsh(gap)[0] >= -1e-9 * np.linalg.norm(gap)


def test_rlp_owl_share_spatial_part(reference_link):
    fwd, bwd, jac = reference_link
    rlp = _dense_efim("rlp", fwd, bwd, jac)
    owl = _dense_efim("owl", fwd, bwd, jac)
    dj = delay_weight("rlp", delay_info(fwd), delay_info(bwd)) - delay_info(bwd)
    temporal = dj * np.outer(jac[:, 4], jac[:, 4])
    np.testing.assert_allclose(rlp - temporal, owl, rtol=1e-12)


def test_rlp_beats_owl_iff_bound_improves(reference_link):
    fwd, bwd, jac = reference_link
    better = delay_info(fwd) > delay_info(bwd) / 3.0
    rlp = assemble("rlp", fwd, bwd, jac)
    owl = assemble("owl", fwd, bwd, jac)
    assert better == (rlp.peb < owl.peb)


def test_clp_initiator_swap_invariance(reference_link):
    fwd, bwd, jac = reference_link
    a = assemble("clp", fwd, bwd, jac)
    b = assemble("clp", bwd, fwd, jac)
    assert a.peb == pytest.approx(b.peb, rel=1e-12)
    assert a.oeb == pytest.approx(b.oeb, rel=1e-12)


def test_rlp_is_not_initiator_symmetric(reference_link):
    fwd, bwd, jac = reference_link
    a = assemble("rlp", fwd, bwd, jac)
    b = assemble("rlp", bwd, fwd, jac)
    assert abs(a.peb - b.peb) > 1e-6 * a.peb


def test_oeb_invariant_to_effective_bandwidth(reference_link):
    # the delay column has zero orientation rows, so the orientation block of
    # the inverse never sees the delay weight
    fwd, bwd, jac = reference_link
    oebs = []
    for scale in (0.01, 1.0, 100.0):
        scaled_f = _scale_delay(fwd, scale)
        scaled_b = _scale_delay(bwd, scale)
        oebs.append(assemble("rlp", scaled_f, scaled_b, jac).oeb)
    assert abs(oebs[0] - oebs[1]) <= 1e-9 * oebs[1]
    assert abs(oebs[2] - oebs[1]) <= 1e-9 * oebs[1]


def _scale_delay(jm, scale):
    jm = jm.copy()
    jm[6, 6] *= scale
    return jm


def test_assemble_requires_forward_for_two_way(reference_link):
    fwd, bwd, jac = reference_link
    with pytest.raises(ValueError):
        assemble("rlp", None, bwd, jac)
    with pytest.raises(ValueError):
        assemble("nope", fwd, bwd, jac)
