import numpy as np
import pytest

from twl.geometry import ArrayGeometry, UraGrid, make_ura, steering, wavenumber


def test_make_ura_single_element_at_origin():
    geom = make_ura(1, 1, wavelength=0.008)
    assert geom.n_elements == 1
    np.testing.assert_array_equal(geom.elements, np.zeros((3, 1)))


def test_make_ura_reference_array(ura12):
    assert ura12.n_elements == 144
    np.testing.assert_allclose(ura12.elements.mean(axis=1), 0.0, atol=1e-15)
    # xz-plane: no y extent
    assert np.all(ura12.elements[1] == 0.0)


def test_make_ura_2x2_symmetry():
    d = 0.004
    geom = make_ura(2, 2, wavelength=0.008, spacing=d, plane="xz")
    xs = np.sort(np.unique(geom.elements[0]))
    zs = np.sort(np.unique(geom.elements[2]))
    np.testing.assert_allclose(xs, [-d / 2, d / 2])
    np.testing.assert_allclose(zs, [-d / 2, d / 2])


def test_make_ura_rejects_bad_spacing():
    with pytest.raises(ValueError):
        make_ura(2, 2, wavelength=0.008, spacing=0.0)
    with pytest.raises(ValueError):
        make_ura(2, 2, wavelength=0.008, spacing=-0.1)


def test_make_ura_center_offset():
    center = (1.0, -2.0, 0.5)
    geom = make_ura(3, 5, wavelength=0.01, center=center)
    np.testing.assert_allclose(geom.elements.mean(axis=1), center, atol=1e-15)


def test_make_ura_planes():
    xy = make_ura(2, 3, wavelength=0.01, plane="xy")
    assert np.all(xy.elements[2] == 0.0) and np.ptp(xy.elements[0]) > 0
    yz = make_ura(2, 3, wavelength=0.01, plane="yz")
    assert np.all(yz.elements[0] == 0.0) and np.ptp(yz.elements[1]) > 0
    with pytest.raises(ValueError):
        make_ura(2, 2, wavelength=0.01, plane="xw")
    assert yz.grid == UraGrid(2, 3, "yz", 0.005, (0.0, 0.0, 0.0))


def test_wavenumber_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        wavenumber(1.0, 0.0, 0.0)


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(elements=np.zeros((2, 4)), wavelength=0.01)
    with pytest.raises(ValueError):
        ArrayGeometry(elements=np.full((3, 2), np.nan), wavelength=0.01)
    with pytest.raises(ValueError):
        ArrayGeometry(elements=np.zeros((3, 2)), wavelength=-1.0)
    ura = make_ura(2, 2, wavelength=0.01)
    with pytest.raises(ValueError, match="grid"):
        ArrayGeometry(elements=ura.elements + 1e-9, wavelength=0.01, grid=ura.grid)


@pytest.mark.parametrize(
    "theta,phi,expected",
    [
        (0.0, 1.234, [0.0, 0.0, 1.0]),
        (np.pi / 2, 0.0, [1.0, 0.0, 0.0]),
        (np.pi / 2, np.pi / 2, [0.0, 1.0, 0.0]),
    ],
)
def test_wavenumber_axes(theta, phi, expected):
    lam = 0.0078
    np.testing.assert_allclose(
        wavenumber(theta, phi, lam), 2 * np.pi / lam * np.array(expected), atol=1e-12
    )


def test_steering_single_element_is_trivial():
    geom = make_ura(1, 1, wavelength=0.008)
    b = steering(geom, 0.7, -1.2)
    np.testing.assert_allclose(b.a, [1.0])
    np.testing.assert_allclose(b.da_dtheta, [0.0])
    np.testing.assert_allclose(b.da_dphi, [0.0])


def test_steering_azimuth_derivative_vanishes_at_pole(ura12):
    b = steering(ura12, 0.0, 0.3)
    np.testing.assert_allclose(b.da_dphi, 0.0, atol=1e-15)


def test_steering_unit_norm(ura12, rng):
    for _ in range(25):
        b = steering(ura12, rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
        assert abs(np.linalg.norm(b.a) - 1.0) < 1e-14


def test_steering_derivatives_match_finite_differences(ura12, rng):
    h = 1e-6
    for _ in range(20):
        th = rng.uniform(0.2, np.pi - 0.2)
        ph = rng.uniform(-np.pi, np.pi)
        b = steering(ura12, th, ph)
        fd_theta = (steering(ura12, th + h, ph).a - steering(ura12, th - h, ph).a) / (2 * h)
        fd_phi = (steering(ura12, th, ph + h).a - steering(ura12, th, ph - h).a) / (2 * h)
        assert np.linalg.norm(b.da_dtheta - fd_theta) <= 1e-6 * np.linalg.norm(fd_theta)
        denom = max(np.linalg.norm(fd_phi), 1e-9)
        assert np.linalg.norm(b.da_dphi - fd_phi) <= 1e-6 * denom


def test_translation_changes_steering_by_unit_scalar(ura12, rng):
    offset = np.array([[0.13], [-0.4], [2.2]])
    shifted = ArrayGeometry(ura12.elements + offset, ura12.wavelength)
    for _ in range(5):
        th1, th2 = rng.uniform(0.3, 2.8, size=2)
        ph1, ph2 = rng.uniform(-np.pi, np.pi, size=2)
        a1, a2 = steering(ura12, th1, ph1).a, steering(ura12, th2, ph2).a
        b1, b2 = steering(shifted, th1, ph1).a, steering(shifted, th2, ph2).a
        ratio = b1 / a1
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-12)
        assert abs(abs(ratio[0]) - 1.0) < 1e-12
        # pairwise correlations are translation invariant
        assert abs(abs(np.vdot(a1, a2)) - abs(np.vdot(b1, b2))) < 1e-12
