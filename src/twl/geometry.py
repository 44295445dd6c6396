"""Array manifolds: uniform rectangular arrays, wavenumbers, steering vectors.

Every array is a uniform rectangular array (URA) on a coordinate plane,
`ArrayGeometry(rows, cols, wavelength, spacing, plane)`, centred on its
device's origin. Its element set is symmetric about that origin, so the
steering vector factors per plane axis into conjugate-symmetric factors,
which is what the steering-form kernel (`twl.kernels`) uses.

Conventions: theta is the polar angle measured from +z, phi the azimuth
measured from +x. Steering vectors are unit norm, with each element
contributing a phase of minus the projection of its coordinate onto the
wavenumber vector. `steering` gives the response alone, which is what a
codebook column needs (`beamforming.directional_beams`); the angle partials
exist only inside the kernel. `direction_with_partials` is the one
definition of the unit direction u(theta, phi) and its two partials,
computed from one set of sines and cosines, and `wavenumber` is k0 = 2·pi/
wavelength times its first result. All take scalars or arrays of angles.
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
    its second, sits at the offsets ((i - (rows-1)/2)·spacing,
    (j - (cols-1)/2)·spacing) from the device's origin; element index
    i·cols + j. The steering vector is a_row ⊗ a_col. The array is centred
    on its device by construction: a moved array would only multiply each
    response by a common phase, which the channel phase absorbs, and the
    closed-form FIM (`twl.fim`) leaves that phase's coupling out.

    Attributes:
        rows, cols: grid size along the first and second plane axis (>= 1).
        wavelength: carrier wavelength in meters.
        spacing: element pitch in meters; None means half a wavelength.
        plane: one of "xy", "xz", "yz".
        elements: 3 x (rows·cols) element coordinates, computed on creation.
    """

    rows: int
    cols: int
    wavelength: float
    spacing: float | None = None
    plane: str = "xz"
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
        object.__setattr__(self, "rows", int(self.rows))
        object.__setattr__(self, "cols", int(self.cols))
        object.__setattr__(self, "spacing", float(spacing))
        ax0, ax1 = self.axes
        x, y = self.offsets()
        elements = np.zeros((3, self.n_elements))
        elements[ax0] = np.repeat(x, self.cols)
        elements[ax1] = np.tile(y, self.rows)
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
        """Element offsets from the origin along each plane axis, (rows,), (cols,)."""
        return ((np.arange(self.rows) - (self.rows - 1) / 2.0) * self.spacing,
                (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.spacing)


def wavenumber(theta, phi, wavelength: float) -> np.ndarray:
    """Wavenumber vector (rad/m) of a plane wave from direction (theta, phi).

    Shape (3,) for scalar angles, (3, n) for angle arrays of shape (n,).
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength!r}")
    return (2.0 * np.pi / wavelength) * direction_with_partials(theta, phi)[0]


def direction_with_partials(theta, phi):
    """Unit direction u(theta, phi) = k/k0 and its two partials (du/dtheta, du/dphi).

    All three come from one set of sines and cosines and are shaped as
    `wavenumber`'s result.
    """
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return (np.array([cp * st, sp * st, ct]),
            np.array([cp * ct, sp * ct, -st]),
            np.array([-sp * st, cp * st, np.zeros_like(st)]))


def steering(geom: ArrayGeometry, theta: float, phi: float) -> np.ndarray:
    """Array response ``exp(-j * elements^T k) / sqrt(N)``, shape (N,).

    Its 2-norm is exactly 1.
    """
    k = wavenumber(theta, phi, geom.wavelength)
    return np.exp(-1j * (geom.elements.T @ k)) / np.sqrt(geom.n_elements)
