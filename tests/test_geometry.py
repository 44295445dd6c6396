from dataclasses import replace

import numpy as np
import pytest

from twl.geometry import ArrayGeometry, _wavenumber_partials, steering, wavenumber


def test_make_ura_single_element_at_origin():
    geom = ArrayGeometry(1, 1, wavelength=0.008)
    assert geom.n_elements == 1
    np.testing.assert_array_equal(geom.elements, np.zeros((3, 1)))


def test_make_ura_reference_array(ura12):
    assert ura12.n_elements == 144
    np.testing.assert_allclose(ura12.elements.mean(axis=1), 0.0, atol=1e-15)
    # xz-plane: no y extent
    assert np.all(ura12.elements[1] == 0.0)


def test_make_ura_2x2_symmetry():
    d = 0.004
    geom = ArrayGeometry(2, 2, wavelength=0.008, spacing=d, plane="xz")
    xs = np.sort(np.unique(geom.elements[0]))
    zs = np.sort(np.unique(geom.elements[2]))
    np.testing.assert_allclose(xs, [-d / 2, d / 2])
    np.testing.assert_allclose(zs, [-d / 2, d / 2])


def test_make_ura_rejects_bad_spacing():
    with pytest.raises(ValueError):
        ArrayGeometry(2, 2, wavelength=0.008, spacing=0.0)
    with pytest.raises(ValueError):
        ArrayGeometry(2, 2, wavelength=0.008, spacing=-0.1)


def test_make_ura_center_offset():
    center = (1.0, -2.0, 0.5)
    geom = ArrayGeometry(3, 5, wavelength=0.01, center=center)
    np.testing.assert_allclose(geom.elements.mean(axis=1), center, atol=1e-15)


def test_make_ura_planes():
    xy = ArrayGeometry(2, 3, wavelength=0.01, plane="xy")
    assert np.all(xy.elements[2] == 0.0) and np.ptp(xy.elements[0]) > 0
    yz = ArrayGeometry(2, 3, wavelength=0.01, plane="yz")
    assert np.all(yz.elements[0] == 0.0) and np.ptp(yz.elements[1]) > 0
    with pytest.raises(ValueError):
        ArrayGeometry(2, 2, wavelength=0.01, plane="xw")
    # The default pitch resolves to half a wavelength, and a resize keeps it.
    assert yz == ArrayGeometry(2, 3, 0.01, spacing=0.005, plane="yz")
    assert replace(yz, rows=4, cols=4).spacing == 0.005
    assert yz.axes == (1, 2) and yz.n_elements == 6


def test_wavenumber_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        wavenumber(1.0, 0.0, 0.0)


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 4, wavelength=0.01)
    with pytest.raises(ValueError):
        ArrayGeometry(2, 2, wavelength=-1.0)
    with pytest.raises(ValueError, match="center"):
        ArrayGeometry(2, 2, wavelength=0.01, center=(0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry(2, 2, wavelength=0.01, center=(0.0, np.nan, 0.0))
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry(2, 2, wavelength=0.01, spacing=np.inf)
    ura = ArrayGeometry(2, 2, wavelength=0.01)
    with pytest.raises(ValueError):
        ura.elements[0, 0] = 1.0


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
    geom = ArrayGeometry(1, 1, wavelength=0.008)
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
    shifted = replace(ura12, center=tuple(offset.ravel()))
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


def test_wavenumber_and_partials_batch_over_angle_arrays(rng):
    """Array angles give the (3, n) stack of the scalar results, bit for bit."""
    lam = 0.0078
    theta = rng.uniform(0.0, np.pi, 7)
    phi = rng.uniform(-np.pi, np.pi, 7)
    batched = (wavenumber(theta, phi, lam), *_wavenumber_partials(theta, phi, lam))
    for i in range(7):
        single = (wavenumber(theta[i], phi[i], lam), *_wavenumber_partials(theta[i], phi[i], lam))
        for b, s in zip(batched, single):
            assert b.shape == (3, 7)
            np.testing.assert_array_equal(b[:, i], s)


def test_wavenumber_partials_match_finite_differences(rng):
    """The one definition of dk/dtheta and dk/dphi, every component.

    The kernel and its per-direction reference share it, so it is checked
    here on its own: central differences of `wavenumber`, step 1e-6, agree
    to 1e-8 of k0.
    """
    lam, h = 0.0078, 1e-6
    k0 = 2 * np.pi / lam
    theta = rng.uniform(0.0, np.pi, 50)
    phi = rng.uniform(-np.pi, np.pi, 50)
    dk_dtheta, dk_dphi = _wavenumber_partials(theta, phi, lam)
    fd_theta = (wavenumber(theta + h, phi, lam) - wavenumber(theta - h, phi, lam)) / (2 * h)
    fd_phi = (wavenumber(theta, phi + h, lam) - wavenumber(theta, phi - h, lam)) / (2 * h)
    np.testing.assert_allclose(dk_dtheta, fd_theta, rtol=0, atol=1e-8 * k0)
    np.testing.assert_allclose(dk_dphi, fd_phi, rtol=0, atol=1e-8 * k0)
