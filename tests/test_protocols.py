import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from twl.beamforming import SignalConfig, directional_beams, region_spot_grid, reverse_direction
from twl.fim import angle_efim, channel_fim, delay_info
from twl.geometry import SPEED_OF_LIGHT, ArrayGeometry
from twl.pose import Pose, channel_geometry, location_jacobian
from twl.protocols import (
    PROTOCOLS,
    DelayUnobservableError,
    combined_delay_info,
    assemble,
    efim_factors,
    invert_efim,
    localization_efim,
    pose_grams,
    rank_and_condition,
)
from twl.scenario import Scenario, position_tables, protocol_bounds

LAM = SPEED_OF_LIGHT / 38e9
DIAMOND = np.array(
    [[0.0, 0.0, -10.0], [25 * np.sqrt(3), 25, -10], [0, 50, -10], [-25 * np.sqrt(3), 25, -10]]
)


@pytest.fixture(scope="module")
def reference_link():
    """Default-scale link at p = (0, 25, -10) with region-covering codebooks."""
    sig = SignalConfig.from_link_budget(
        power_w=1e-3, bandwidth=125e6, ns=64, n0=1e-20, carrier=38e9
    )
    bs = ArrayGeometry(12, 12, sig.wavelength)
    ue = ArrayGeometry(12, 12, sig.wavelength)
    pose = Pose(np.array([0.0, 25.0, -10.0]))
    cg = channel_geometry(pose, sig.wavelength)
    bs_dirs = region_spot_grid(DIAMOND, 25)
    ue_dirs = [reverse_direction(th, ph) for th, ph in bs_dirs]
    f1 = directional_beams(bs, bs_dirs, "transmit")
    w1 = directional_beams(bs, bs_dirs, "receive")
    f2 = directional_beams(ue, ue_dirs, "transmit")
    w2 = directional_beams(ue, ue_dirs, "receive")
    fwd = channel_fim("forward", bs, ue, f1, w2, cg, sig)
    bwd = channel_fim("backward", ue, bs, f2, w1, cg, sig)
    jac = location_jacobian(pose)
    return fwd, bwd, jac


def test_combined_delay_harmonic():
    assert combined_delay_info("rlp", 3.0, 3.0) == pytest.approx(6.0)
    assert combined_delay_info("clp", 3.0, 3.0) == pytest.approx(6.0)


def test_combined_delay_one_sided_limit():
    jb = 2.5
    assert combined_delay_info("rlp", 1e18, jb) == pytest.approx(4 * jb, rel=1e-10)


def test_combined_delay_owl_uses_backward_only():
    assert combined_delay_info("owl", 123.0, 7.0) == 7.0


def test_combined_delay_matches_two_by_two_schur(rng):
    # eliminate the clock bias from the explicit delay/bias FIM and compare
    for _ in range(25):
        jf, jb = rng.uniform(0.1, 10.0, size=2)
        joint = jb * np.array([[1.0, -1.0], [-1.0, 1.0]]) + jf * np.array(
            [[1.0, 1.0], [1.0, 1.0]]
        )
        schur = joint[0, 0] - joint[0, 1] ** 2 / joint[1, 1]
        assert combined_delay_info("clp", jf, jb) == pytest.approx(schur, rel=1e-12)


def test_combined_delay_unobservable():
    with pytest.raises(DelayUnobservableError):
        combined_delay_info("rlp", 0.0, 1.0)
    with pytest.raises(DelayUnobservableError):
        combined_delay_info("clp", 1.0, 0.0)


def test_identity_efim_bounds():
    # J = I, A = I4, w = 1 give the identity EFIM
    factors = efim_factors(pose_grams(np.eye(5)[None]), np.eye(4)[None])
    np.testing.assert_array_equal(factors.angle[0], np.eye(4))
    peb, oeb, ok = invert_efim(np.eye(5)[None], factors, np.ones(1))
    assert ok[0]
    assert peb[0] == pytest.approx(np.sqrt(3.0))
    assert oeb[0] == pytest.approx(np.sqrt(2.0))
    rank, cond = rank_and_condition(np.eye(5))
    assert rank == 5 and cond == 1.0


def test_singular_efim_reports_rank_not_crash():
    # an exactly singular angle EFIM gives inf bounds for its pose only
    angle = np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0])])
    jacobian = np.stack([np.eye(5)] * 2)
    factors = efim_factors(pose_grams(jacobian), angle)
    peb, oeb, ok = invert_efim(jacobian, factors, np.ones(2))
    assert ok.tolist() == [True, False]
    assert np.isfinite(peb[0]) and np.isinf(peb[1]) and np.isinf(oeb[1])
    rank, _ = rank_and_condition(np.diag([1.0, 1.0, 1.0, 1.0, 0.0]))
    assert rank == 4
    # a subnormal smallest eigenvalue overflows the condition number to inf
    rank, condition = rank_and_condition(np.diag([1.0, 1.0, 1.0, 1.0, 1e-310]))
    assert rank == 4 and condition == np.inf


def test_cholesky_factors_flag_each_bad_angle_efim_alone(monkeypatch):
    """One batch of good and bad angle EFIMs: each flag is that of its own dense E.

    The factors contract A through an elementwise Cholesky elimination, not
    a LAPACK call on the batch, which would raise for all poses when one A
    is not positive definite. The batch holds I, diag(1, 1, 1, 0), an
    indefinite A, an all-NaN A and an SPD A scaled by 1e-27, once with w = 1
    (cond(E) ~ 1e27, unidentifiable) and once with w = 1e-27 (E is 1e-27
    times a well-conditioned matrix, identifiable).
    """
    rng = np.random.default_rng(14)
    b = rng.standard_normal((4, 4))
    spd = b @ b.T + 4.0 * np.eye(4)
    angle = np.stack([
        np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0]), np.diag([2.0, 1.0, -1.0, 3.0]),
        np.full((4, 4), np.nan), 1e-27 * spd, 1e-27 * spd,
    ])
    weight = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1e-27])
    jacobian = np.broadcast_to(np.eye(5) + 0.1 * rng.standard_normal((5, 5)), (6, 5, 5))
    grams = pose_grams(jacobian)
    for name in ("inv", "solve", "cholesky"):
        monkeypatch.setattr(np.linalg, name, None)  # any call on A would raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = efim_factors(grams, angle)
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peb, oeb, ok = invert_efim(jacobian, factors, weight)
    efim = localization_efim(jacobian, angle, weight)
    rank, condition = rank_and_condition(efim)
    expected = (rank == 5) & (condition <= 1e12)
    assert expected.tolist() == [True, False, False, False, False, True]
    np.testing.assert_array_equal(ok, expected)
    assert np.isinf(peb[~ok]).all() and np.isinf(oeb[~ok]).all()
    for k in np.flatnonzero(ok):
        cov = np.diag(np.linalg.inv(efim[k]))
        assert peb[k] == pytest.approx(np.sqrt(cov[2:].sum()), rel=1e-12)
        assert oeb[k] == pytest.approx(np.sqrt(cov[:2].sum()), rel=1e-12)


def _exact_bounds(jacobian, angle, weight):
    """PEB and OEB of J·blkdiag(A, w)·Jᵀ in exact rational arithmetic."""
    d = [[Fraction(0)] * 5 for _ in range(5)]
    for a in range(4):
        for b in range(4):
            d[a][b] = Fraction(angle[a, b])
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
            angle = tables.angle_efim[bwd][0]
            if protocol == "clp":
                angle = angle + tables.angle_efim[fwd][0]
            weight = combined_delay_info(
                protocol, tables.delay_info[fwd][0], tables.delay_info[bwd][0]
            )
            peb, oeb = _exact_bounds(tables.jacobian[0], angle, weight)
            bound = protocol_bounds(tables, protocol, initiator)
            assert bound.peb[0] == pytest.approx(peb, rel=1e-13, abs=0.0)
            assert bound.oeb[0] == pytest.approx(oeb, rel=1e-13, abs=0.0)


def test_assemble_reference_ordering(reference_link):
    fwd, bwd, jac = reference_link
    owl = assemble("owl", None, bwd, jac)
    rlp = assemble("rlp", fwd, bwd, jac)
    clp = assemble("clp", fwd, bwd, jac)
    assert clp.identifiable and rlp.identifiable and owl.identifiable
    assert clp.peb <= rlp.peb <= owl.peb * (1 + 1e-9)
    assert clp.oeb <= rlp.oeb * (1 + 1e-9)


def _dense_efim(kind, fwd, bwd, jac):
    """The explicit 5x5 localization EFIM whose bounds `assemble` reports."""
    angle = angle_efim(bwd).matrix
    if kind == "clp":
        angle = angle + angle_efim(fwd).matrix
    weight = combined_delay_info(kind, delay_info(fwd), delay_info(bwd))
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
    expected = jac[:, :4] @ angle_efim(fwd).matrix @ jac[:, :4].T
    np.testing.assert_allclose(gap, expected, rtol=1e-10)
    assert np.linalg.eigvalsh(gap)[0] >= -1e-9 * np.linalg.norm(gap)


def test_rlp_owl_share_spatial_part(reference_link):
    fwd, bwd, jac = reference_link
    rlp = _dense_efim("rlp", fwd, bwd, jac)
    owl = _dense_efim("owl", fwd, bwd, jac)
    dj = combined_delay_info("rlp", delay_info(fwd), delay_info(bwd)) - delay_info(bwd)
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
