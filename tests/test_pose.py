import numpy as np
import pytest

from twl.geometry import SPEED_OF_LIGHT
from twl.pose import (
    DegenerateGeometryError,
    Pose,
    channel_geometry,
    location_jacobian,
    rotation_matrix,
)

LAM38 = SPEED_OF_LIGHT / 38e9


def random_region_pose(rng, max_angle=0.6):
    p = np.array([rng.uniform(-40, 40), rng.uniform(2, 50), -10.0])
    return Pose(p, rng.uniform(-max_angle, max_angle), rng.uniform(-max_angle, max_angle))


def finite_difference_jacobian(pose, wavelength, c=SPEED_OF_LIGHT, h=1e-6):
    def channel_vector(p, z, x):
        cg = channel_geometry(Pose(p, z, x), wavelength, c=c)
        return np.array([cg.theta1, cg.phi1, cg.theta2, cg.phi2, cg.tau])

    out = np.zeros((5, 5))
    for i in range(5):
        dp = np.zeros(3)
        dz = dx = 0.0
        if i == 0:
            dz = h
        elif i == 1:
            dx = h
        else:
            dp[i - 2] = h
        delta = channel_vector(pose.position + dp, pose.zeta0 + dz, pose.chi0 + dx)
        delta = delta - channel_vector(pose.position - dp, pose.zeta0 - dz, pose.chi0 - dx)
        delta[[1, 3]] = (delta[[1, 3]] + np.pi) % (2 * np.pi) - np.pi  # unwrap azimuths
        out[i] = delta / (2 * h)
    return out


def test_rotation_identity():
    np.testing.assert_allclose(rotation_matrix(0.0, 0.0), np.eye(3), atol=1e-15)


def test_rotation_about_z_maps_x_to_y():
    r = rotation_matrix(np.pi / 2, 0.0)
    np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_orthonormal():
    r = rotation_matrix(np.pi / 6, np.pi / 6)
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_pose_rejects_origin():
    with pytest.raises(ValueError):
        Pose(np.zeros(3))


def test_channel_geometry_antipodal_angles():
    cg = channel_geometry(Pose(np.array([0.0, 10.0, 0.0])), LAM38)
    assert abs(cg.theta1 - np.pi / 2) < 1e-12
    assert abs(cg.phi1 - np.pi / 2) < 1e-12
    assert abs(cg.theta2 - np.pi / 2) < 1e-12
    assert abs(cg.phi2 + np.pi / 2) < 1e-12


def test_channel_geometry_delay():
    cg = channel_geometry(Pose(np.array([0.0, 10.0, 0.0])), LAM38)
    assert abs(cg.tau - 3.3356e-8) < 1e-12
    assert cg.tau == 10.0 / SPEED_OF_LIGHT


def test_channel_geometry_gain_amplitude():
    # with c fixed to 3e8: lambda = 7.8947e-3 m, beta = 6.2823e-5 at 10 m
    lam = 3e8 / 38e9
    cg = channel_geometry(Pose(np.array([0.0, 10.0, 0.0])), lam, c=3e8)
    assert abs(lam - 7.8947e-3) < 1e-7
    assert cg.beta == pytest.approx(6.2823e-5, rel=5e-5)
    assert cg.beta == lam / (4 * np.pi * 10.0)


def test_channel_geometry_zero_orientation_frames_coincide(rng):
    for _ in range(10):
        pose = Pose(np.array([rng.uniform(-30, 30), rng.uniform(5, 50), -10.0]))
        cg = channel_geometry(pose, LAM38)
        u = -pose.position / np.linalg.norm(pose.position)
        assert abs(cg.theta2 - np.arccos(u[2])) < 1e-12
        assert abs(cg.phi2 - np.arctan2(u[1], u[0])) < 1e-12


def test_degenerate_geometry_raises():
    with pytest.raises(DegenerateGeometryError):
        channel_geometry(Pose(np.array([0.0, 0.0, -10.0])), LAM38)
    with pytest.raises(DegenerateGeometryError):
        location_jacobian(Pose(np.array([0.0, 0.0, -10.0])))


def test_polar_angles_keep_their_accuracy_near_a_pole():
    # 1e-7 m off the anchor's nadir the terminal sees the anchor 1e-8 rad off
    # its own +z axis, where arccos(q_z) and √(1 − q_z²) round to 0
    offset = 1e-7
    cg = channel_geometry(Pose(np.array([0.0, offset, -10.0])), LAM38)
    assert cg.theta2 == pytest.approx(np.arctan2(offset, 10.0), rel=1e-15, abs=0.0)
    assert np.pi - cg.theta1 == pytest.approx(np.arctan2(offset, 10.0), rel=1e-7, abs=0.0)


def test_jacobian_structural_zeros(rng):
    jac = location_jacobian(random_region_pose(rng))
    np.testing.assert_array_equal(jac[:2, 4], 0.0)
    np.testing.assert_array_equal(jac[:2, :2], 0.0)


def test_jacobian_delay_column():
    pose = Pose(np.array([3.0, 17.0, -10.0]), 0.2, 0.1)
    jac = location_jacobian(pose)
    expected = pose.position / (np.linalg.norm(pose.position) * SPEED_OF_LIGHT)
    np.testing.assert_allclose(jac[2:, 4], expected, rtol=1e-14)


def test_jacobian_matches_finite_differences(rng):
    for _ in range(50):
        pose = random_region_pose(rng)
        analytic = location_jacobian(pose)
        reference = finite_difference_jacobian(pose, LAM38)
        scale = np.abs(reference).max()
        assert np.abs(analytic - reference).max() <= 1e-6 * scale


def test_jacobian_is_a_square_array(rng):
    jac = location_jacobian(random_region_pose(rng))
    assert isinstance(jac, np.ndarray)
    assert jac.shape == (5, 5) and jac.dtype == np.float64
