import numpy as np
import pytest

from twl.beamforming import (
    Beamformer,
    SignalConfig,
    SingularBeamsError,
    directional_beams,
    gram_inv_sqrt,
    region_spot_grid,
    reverse_direction,
    sector_beam_grid,
    square_side,
)
from twl.geometry import SPEED_OF_LIGHT, steering
from twl.scenario import REFERENCE_CONFIG, Scenario, _beam_directions

DEG = np.pi / 180.0


def test_single_transmit_beam_trace(ura12):
    f = directional_beams(ura12, [(2.0, 1.0)], role="transmit")
    assert f.n_beams == 1
    assert abs(np.sum(np.abs(f.matrix) ** 2) - 1.0) < 1e-12
    np.testing.assert_allclose(f.matrix[:, 0], steering(ura12, 2.0, 1.0).conj())


def test_single_receive_beam_is_plain_steering(ura12):
    w = directional_beams(ura12, [(2.0, 1.0)], role="receive")
    np.testing.assert_allclose(w.matrix[:, 0], steering(ura12, 2.0, 1.0))


def test_25_beam_trace_constraint(ura12, rng):
    dirs = [(rng.uniform(1.7, 3.0), rng.uniform(-np.pi, np.pi)) for _ in range(25)]
    f = directional_beams(ura12, dirs, role="transmit")
    assert abs(np.sum(np.abs(f.matrix) ** 2) - 1.0) < 1e-12
    # per-column norm 1/sqrt(n_beams)
    np.testing.assert_allclose(np.linalg.norm(f.matrix, axis=0), 0.2, atol=1e-12)


def test_trace_constraint_invariant_under_adding_beams(ura12, rng):
    for n in (1, 4, 9, 16):
        dirs = [(rng.uniform(1.7, 3.0), rng.uniform(-np.pi, np.pi)) for _ in range(n)]
        f = directional_beams(ura12, dirs, role="transmit")
        assert abs(np.sum(np.abs(f.matrix) ** 2) - 1.0) < 1e-12


def test_duplicate_receive_directions_rejected(ura12):
    with pytest.raises(SingularBeamsError):
        directional_beams(ura12, [(2.0, 1.0), (2.0, 1.0)], role="receive")


def test_beamformer_role_validation(ura12):
    dirs = [(2.0, 1.0), (2.2, 0.5)]
    with pytest.raises(ValueError):
        Beamformer(matrix=np.ones((4, 2), complex), role="transmit", directions=dirs)  # bad trace
    with pytest.raises(ValueError):
        Beamformer(matrix=np.eye(4, 2, dtype=complex), role="other", directions=dirs)
    with pytest.raises(ValueError, match="one direction per beam"):
        Beamformer(matrix=np.eye(4, 2, dtype=complex), role="receive", directions=dirs[:1])


def test_sector_grid_is_equispaced():
    grid = sector_beam_grid(
        25, (30 * DEG, 150 * DEG), (100 * DEG, 170 * DEG)
    )
    assert len(grid) == 25
    polars = np.degrees(sorted({th for th, _ in grid}))
    azimuths = np.degrees(sorted({ph for _, ph in grid}))
    np.testing.assert_allclose(polars, [100, 117.5, 135, 152.5, 170], atol=1e-9)
    np.testing.assert_allclose(azimuths, [30, 60, 90, 120, 150], atol=1e-9)


def test_sector_grid_single_beam_is_center():
    ((th, ph),) = sector_beam_grid(1, (0.4, 0.8), (1.0, 2.0))
    assert abs(th - 1.5) < 1e-12 and abs(ph - 0.6) < 1e-12


def test_sector_grid_rejects_non_square():
    with pytest.raises(ValueError):
        sector_beam_grid(24, (0.0, 1.0), (1.0, 2.0))


def test_square_side_is_exact_beyond_the_float_range():
    # math.isqrt reads the int itself: no float conversion to overflow or round
    assert square_side(10**400, "rule") == 10**200
    assert square_side((2**53 + 1) ** 2, "rule") == 2**53 + 1
    with pytest.raises(ValueError, match="n_beams must be a perfect square"):
        sector_beam_grid(10**400 + 1, (0.0, 1.0), (1.0, 2.0))
    for n in (0, -4, (2**53 + 1) ** 2 + 1):
        with pytest.raises(ValueError, match="rule, got"):
            square_side(n, "rule")


def test_terminal_grid_is_reversed_anchor_grid():
    scn = Scenario.reference_defaults(
        beam_grid="sector", n_beams=9, orientation=(0.5, 0.2)
    )
    dirs = _beam_directions(scn)
    anchor = sector_beam_grid(9, scn.sector_azimuth, scn.sector_polar)
    assert dirs["bs"] == anchor
    for (th_a, ph_a), (th_t, ph_t) in zip(anchor, dirs["ue"], strict=True):
        assert abs(th_t - (np.pi - th_a)) < 1e-12
        diff = (ph_t - ph_a - np.pi) % (2 * np.pi)
        assert min(diff, 2 * np.pi - diff) < 1e-12


def test_region_spot_grid_covers_region():
    vertices = np.array(
        [[0.0, 0.0, -10.0], [25 * np.sqrt(3), 25, -10], [0, 50, -10], [-25 * np.sqrt(3), 25, -10]]
    )
    dirs = region_spot_grid(vertices, 25)
    assert len(dirs) == 25
    # all spots are below the anchor: polar angles past 90 degrees
    assert all(th > np.pi / 2 for th, _ in dirs)
    with pytest.raises(ValueError):
        region_spot_grid(vertices, 24)


def _spot_grid_loop(v, side):
    """Reference: one cell at a time, as a Python loop."""
    dirs = []
    for i in range(side):
        for j in range(side):
            spot = v[0] + (i + 0.5) / side * (v[1] - v[0]) + (j + 0.5) / side * (v[3] - v[0])
            u = spot / np.linalg.norm(spot)
            dirs.append((np.arccos(np.clip(u[2], -1.0, 1.0)), np.arctan2(u[1], u[0])))
    return np.array(dirs)


def test_region_spot_grid_matches_the_cell_loop(rng):
    """Equal on the default region; elsewhere within 4 eps of direction.

    Only the norm's rounding may differ (a batched norm against one per
    cell), which moves each unit vector by an ulp; arccos and arctan2 turn
    that into an angle error up to ~eps/sin(theta).
    """
    diamond = np.array(
        [[0.0, 0.0, -10.0], [25 * np.sqrt(3), 25, -10], [0, 50, -10], [-25 * np.sqrt(3), 25, -10]]
    )
    dirs = region_spot_grid(diamond, 25)
    assert all(type(x) is float for d in dirs for x in d)
    np.testing.assert_array_equal(dirs, _spot_grid_loop(diamond, 5))
    for _ in range(300):
        c, s = np.cos(t := rng.uniform(-np.pi, np.pi)), np.sin(t)
        v = rng.uniform(0.02, 3.0) * diamond @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
        v += [*rng.uniform(-40.0, 40.0, 2), rng.uniform(-40.0, 10.0) - v[0, 2]]
        side = int(rng.integers(1, 7))
        got, ref = np.array(region_spot_grid(v, side * side)), _spot_grid_loop(v, side)
        scale = np.sin(ref[:, 0])[:, None]
        assert np.all(np.abs(got - ref) * scale <= 4 * np.finfo(float).eps)
    centred = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="anchor"):
        region_spot_grid(centred, 1)


def test_reverse_direction_wraps():
    th, ph = reverse_direction(0.3, 3.0)
    assert abs(th - (np.pi - 0.3)) < 1e-15
    assert -np.pi < ph <= np.pi


def _projector(w):
    """U U^H with U = W·G^(-1/2) through the program's whitening, checking U^H U = I."""
    u = w @ gram_inv_sqrt(w)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
    return u @ u.conj().T


def test_projection_orthonormal_columns(ura12):
    w = np.linalg.qr(np.random.default_rng(1).standard_normal((144, 6))
                     + 1j * np.random.default_rng(2).standard_normal((144, 6)))[0]
    np.testing.assert_allclose(_projector(w), w @ w.conj().T, atol=1e-12)


def test_projection_single_vector():
    w = np.array([1.0 + 1j, 2.0, -1j])
    expected = np.outer(w, w.conj()) / np.linalg.norm(w) ** 2
    np.testing.assert_allclose(_projector(w[:, None]), expected, atol=1e-14)


def test_projection_idempotent_hermitian(ura12, rng):
    dirs = [(rng.uniform(1.7, 3.0), rng.uniform(-np.pi, np.pi)) for _ in range(12)]
    p = _projector(directional_beams(ura12, dirs, role="receive").matrix)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
    assert np.linalg.norm(p @ p - p) <= 1e-10


def test_projection_fixes_span_annihilates_complement(ura12, rng):
    dirs = [(rng.uniform(1.7, 3.0), rng.uniform(-np.pi, np.pi)) for _ in range(8)]
    w = directional_beams(ura12, dirs, role="receive")
    p = _projector(w.matrix)
    coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    inside = w.matrix @ coeffs
    np.testing.assert_allclose(p @ inside, inside, atol=1e-10 * np.linalg.norm(inside))
    outside = rng.standard_normal(144) + 1j * rng.standard_normal(144)
    outside = outside - p @ outside
    np.testing.assert_allclose(p @ outside, 0.0, atol=1e-10 * np.linalg.norm(outside))


def test_projection_singular_gram_names_beams(ura12):
    a = steering(ura12, 2.0, 1.0)
    with pytest.raises(SingularBeamsError, match="beam set of 3"):
        gram_inv_sqrt(np.column_stack([a, a, steering(ura12, 2.2, 0.5)]))


def test_signal_config_defaults(default_signal):
    assert abs(default_signal.et - 8e-12) < 1e-24
    assert abs(default_signal.weff2 - 125e6**2 / 3.0) < 1.0
    assert abs(default_signal.wavelength - 7.8893e-3) < 1e-6
    assert default_signal.gamma(144, 144) == pytest.approx(1.0616832e15, rel=1e-6)


def test_signal_config_flat_pulse_alternative():
    sig = Scenario.from_config({**REFERENCE_CONFIG, "weff2_over_w2": 1.0 / 12.0}).signal
    assert abs(sig.weff2 - 125e6**2 / 12.0) < 1.0


def test_signal_config_validation():
    with pytest.raises(ValueError):
        SignalConfig(et=-1, ns=4, n0=1e-20, bandwidth=1e8, weff2=1e15, carrier=38e9,
                     c=SPEED_OF_LIGHT)
    with pytest.raises(ValueError):
        SignalConfig(et=1e-12, ns=0, n0=1e-20, bandwidth=1e8, weff2=1e15, carrier=38e9,
                     c=SPEED_OF_LIGHT)
