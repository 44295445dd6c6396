from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import steering_bundle
from twl.geometry import ArrayGeometry, direction_with_partials, steering, wavenumber


def test_make_ura_single_element_at_origin():
    geom = ArrayGeometry(1, 1, wavelength=0.008, spacing=0.004)
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


def test_make_ura_planes():
    xy = ArrayGeometry(2, 3, wavelength=0.01, spacing=0.005, plane="xy")
    assert np.all(xy.elements[2] == 0.0) and np.ptp(xy.elements[0]) > 0
    yz = ArrayGeometry(2, 3, wavelength=0.01, spacing=0.005, plane="yz")
    assert np.all(yz.elements[0] == 0.0) and np.ptp(yz.elements[1]) > 0
    with pytest.raises(ValueError):
        ArrayGeometry(2, 2, wavelength=0.01, spacing=0.005, plane="xw")
    # A resize keeps the pitch.
    assert yz == ArrayGeometry(2, 3, 0.01, spacing=0.005, plane="yz")
    assert replace(yz, rows=4, cols=4).spacing == 0.005
    assert yz.axes == (1, 2) and yz.n_elements == 6


def test_wavenumber_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        wavenumber(1.0, 0.0, 0.0)


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 4, wavelength=0.01, spacing=0.005)
    with pytest.raises(ValueError):
        ArrayGeometry(2, 2, wavelength=-1.0, spacing=0.005)
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry(2, 2, wavelength=0.01, spacing=np.inf)
    ura = ArrayGeometry(2, 2, wavelength=0.01, spacing=0.005)
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
    geom = ArrayGeometry(1, 1, wavelength=0.008, spacing=0.004)
    np.testing.assert_allclose(steering(geom, 0.7, -1.2), [1.0])
    b = steering_bundle(geom, 0.7, -1.2)
    np.testing.assert_allclose(b.a, [1.0])
    np.testing.assert_allclose(b.da_dtheta, [0.0])
    np.testing.assert_allclose(b.da_dphi, [0.0])


def test_steering_azimuth_derivative_vanishes_at_pole(ura12):
    b = steering_bundle(ura12, 0.0, 0.3)
    np.testing.assert_allclose(b.da_dphi, 0.0, atol=1e-15)


def test_steering_unit_norm(ura12, rng):
    for _ in range(25):
        a = steering(ura12, rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-14


def test_steering_derivatives_match_finite_differences(ura12, rng):
    """The reference bundle's response is `steering`'s, its partials its derivatives."""
    h = 1e-6
    for _ in range(20):
        th = rng.uniform(0.2, np.pi - 0.2)
        ph = rng.uniform(-np.pi, np.pi)
        b = steering_bundle(ura12, th, ph)
        np.testing.assert_array_equal(b.a, steering(ura12, th, ph))
        fd_theta = (steering(ura12, th + h, ph) - steering(ura12, th - h, ph)) / (2 * h)
        fd_phi = (steering(ura12, th, ph + h) - steering(ura12, th, ph - h)) / (2 * h)
        assert np.linalg.norm(b.da_dtheta - fd_theta) <= 1e-6 * np.linalg.norm(fd_theta)
        denom = max(np.linalg.norm(fd_phi), 1e-9)
        assert np.linalg.norm(b.da_dphi - fd_phi) <= 1e-6 * denom


def test_translation_changes_steering_by_unit_scalar(ura12, rng):
    # `steering` reads only these attributes, so a stand-in can move the array
    offset = np.array([[0.13], [-0.4], [2.2]])
    shifted = SimpleNamespace(wavelength=ura12.wavelength, n_elements=ura12.n_elements,
                              elements=ura12.elements + offset)
    for _ in range(5):
        th1, th2 = rng.uniform(0.3, 2.8, size=2)
        ph1, ph2 = rng.uniform(-np.pi, np.pi, size=2)
        a1, a2 = steering(ura12, th1, ph1), steering(ura12, th2, ph2)
        b1, b2 = steering(shifted, th1, ph1), steering(shifted, th2, ph2)
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
    batched = direction_with_partials(theta, phi)
    np.testing.assert_array_equal(wavenumber(theta, phi, lam), 2 * np.pi / lam * batched[0])
    for i in range(7):
        single = direction_with_partials(theta[i], phi[i])
        for b, s in zip(batched, single):
            assert b.shape == (3, 7)
            np.testing.assert_array_equal(b[:, i], s)


def test_wavenumber_partials_match_finite_differences(rng):
    """The one definition of the angle partials, every component.

    The kernel and its per-direction reference share
    `direction_with_partials`, so it is checked here on its own: k0 times
    its partials and central differences of `wavenumber`, step 1e-6, agree
    to 1e-8 of k0.
    """
    lam, h = 0.0078, 1e-6
    k0 = 2 * np.pi / lam
    theta = rng.uniform(0.0, np.pi, 50)
    phi = rng.uniform(-np.pi, np.pi, 50)
    _, dk_dtheta, dk_dphi = (k0 * d for d in direction_with_partials(theta, phi))
    fd_theta = (wavenumber(theta + h, phi, lam) - wavenumber(theta - h, phi, lam)) / (2 * h)
    fd_phi = (wavenumber(theta, phi + h, lam) - wavenumber(theta, phi - h, lam)) / (2 * h)
    np.testing.assert_allclose(dk_dtheta, fd_theta, rtol=0, atol=1e-8 * k0)
    np.testing.assert_allclose(dk_dphi, fd_phi, rtol=0, atol=1e-8 * k0)
