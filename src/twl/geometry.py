"""Array manifolds: uniform rectangular arrays, wavenumbers, steering vectors.

Every array is a uniform rectangular array (URA) on a coordinate plane,
`ArrayGeometry(rows, cols, wavelength, spacing, plane, center)`. Its
steering vector factors per plane axis, which is what the steering-form
kernel (`twl.kernels`) uses.

Conventions: theta is the polar angle measured from +z, phi the azimuth
measured from +x. Steering vectors are unit norm, with each element
contributing a phase of minus the projection of its coordinate onto the
wavenumber vector. `wavenumber` and `_wavenumber_partials` are the one
definition of k(theta, phi) and its two partials; both take scalars or
arrays of angles.
"""

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0
"""Vacuum speed of light in m/s."""

_PLANE_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular array on a coordinate plane.

    Element (i, j), i < rows along the plane's first axis and j < cols along
    its second, sits at ``center`` plus the offsets ((i - (rows-1)/2)·spacing,
    (j - (cols-1)/2)·spacing); element index i·cols + j. The steering vector
    is a_row ⊗ a_col times one centre phase.

    Attributes:
        rows, cols: grid size along the first and second plane axis (>= 1).
        wavelength: carrier wavelength in meters.
        spacing: element pitch in meters; None means half a wavelength.
        plane: one of "xy", "xz", "yz".
        center: centroid (x, y, z) of the grid in meters.
        elements: 3 x (rows·cols) element coordinates, computed on creation.
    """

    rows: int
    cols: int
    wavelength: float
    spacing: float | None = None
    plane: str = "xz"
    center: tuple = (0.0, 0.0, 0.0)
    elements: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength!r}")
        spacing = self.wavelength / 2.0 if self.spacing is None else self.spacing
        if not spacing > 0:
            raise ValueError(f"element spacing must be positive, got {spacing!r}")
        if self.plane not in _PLANE_AXES:
            raise ValueError(f"plane must be one of {sorted(_PLANE_AXES)}, got {self.plane!r}")
        center = tuple(float(c) for c in np.ravel(self.center))
        if len(center) != 3:
            raise ValueError(f"center needs 3 coordinates, got {self.center!r}")
        object.__setattr__(self, "rows", int(self.rows))
        object.__setattr__(self, "cols", int(self.cols))
        object.__setattr__(self, "spacing", float(spacing))
        object.__setattr__(self, "center", center)
        ax0, ax1 = self.axes
        x, y = self.offsets()
        elements = np.zeros((3, self.n_elements))
        elements[ax0] = np.repeat(x, self.cols)
        elements[ax1] = np.tile(y, self.rows)
        elements += np.asarray(center).reshape(3, 1)
        if not np.all(np.isfinite(elements)):
            raise ValueError("element coordinates must be finite")
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def axes(self) -> tuple[int, int]:
        """Coordinate indices of the first and second plane axis."""
        return _PLANE_AXES[self.plane]

    def offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Element offsets from the centre along each plane axis, (rows,), (cols,)."""
        return ((np.arange(self.rows) - (self.rows - 1) / 2.0) * self.spacing,
                (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.spacing)


@dataclass(frozen=True)
class SteeringBundle:
    """Steering vector of an array together with its analytic angle partials.

    Attributes:
        a: unit-norm complex array response, shape (N,).
        da_dtheta: elementwise partial of ``a`` w.r.t. the polar angle.
        da_dphi: elementwise partial of ``a`` w.r.t. the azimuth angle.
    """

    a: np.ndarray
    da_dtheta: np.ndarray
    da_dphi: np.ndarray


def wavenumber(theta, phi, wavelength: float) -> np.ndarray:
    """Wavenumber vector (rad/m) of a plane wave from direction (theta, phi).

    Shape (3,) for scalar angles, (3, n) for angle arrays of shape (n,).
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength!r}")
    k0 = 2.0 * np.pi / wavelength
    st = np.sin(theta)
    return k0 * np.array([np.cos(phi) * st, np.sin(phi) * st, np.cos(theta)])


def _wavenumber_partials(theta, phi, wavelength: float):
    """Partials of the wavenumber vector w.r.t. theta and phi, shaped as `wavenumber`."""
    k0 = 2.0 * np.pi / wavelength
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    dk_dtheta = k0 * np.array([cp * ct, sp * ct, -st])
    dk_dphi = k0 * np.array([-sp * st, cp * st, np.zeros_like(st)])
    return dk_dtheta, dk_dphi


def steering(geom: ArrayGeometry, theta: float, phi: float) -> SteeringBundle:
    """Array response vector and its exact angle partials.

    The response is ``exp(-j * elements^T k) / sqrt(N)`` so that its 2-norm
    is exactly 1; the partials follow by differentiating the phase.
    """
    n = geom.n_elements
    k = wavenumber(theta, phi, geom.wavelength)
    dk_dtheta, dk_dphi = _wavenumber_partials(theta, phi, geom.wavelength)
    phase = geom.elements.T @ k
    a = np.exp(-1j * phase) / np.sqrt(n)
    da_dtheta = -1j * (geom.elements.T @ dk_dtheta) * a
    da_dphi = -1j * (geom.elements.T @ dk_dphi) * a
    return SteeringBundle(a=a, da_dtheta=da_dtheta, da_dphi=da_dphi)
