"""Array manifolds: element layouts, wavenumber vectors, steering vectors.

Conventions: theta is the polar angle measured from +z, phi the azimuth
measured from +x. Steering vectors are unit norm, with each element
contributing a phase of minus the projection of its coordinate onto the
wavenumber vector.
"""

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0
"""Vacuum speed of light in m/s."""

_PLANE_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


@dataclass(frozen=True)
class UraGrid:
    """Layout of a uniform rectangular array on a coordinate plane.

    Element (i, j), i < rows along the plane's first axis and j < cols along
    its second, sits at ``center`` plus the offsets ((i - (rows-1)/2)·spacing,
    (j - (cols-1)/2)·spacing); element index i·cols + j. The steering vector
    of such an array is a_row ⊗ a_col times one centre phase.

    Attributes:
        rows, cols: grid size along the first and second plane axis (>= 1).
        plane: one of "xy", "xz", "yz".
        spacing: element pitch in meters.
        center: centroid (x, y, z) of the grid in meters.
    """

    rows: int
    cols: int
    plane: str
    spacing: float
    center: tuple

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if not self.spacing > 0:
            raise ValueError(f"element spacing must be positive, got {self.spacing!r}")
        if self.plane not in _PLANE_AXES:
            raise ValueError(f"plane must be one of {sorted(_PLANE_AXES)}, got {self.plane!r}")
        center = tuple(float(c) for c in self.center)
        if len(center) != 3:
            raise ValueError(f"center needs 3 coordinates, got {self.center!r}")
        object.__setattr__(self, "rows", int(self.rows))
        object.__setattr__(self, "cols", int(self.cols))
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "center", center)

    @property
    def axes(self) -> tuple[int, int]:
        """Coordinate indices of the first and second plane axis."""
        return _PLANE_AXES[self.plane]

    def offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Element offsets from the centre along each plane axis, (rows,), (cols,)."""
        return ((np.arange(self.rows) - (self.rows - 1) / 2.0) * self.spacing,
                (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.spacing)

    def elements(self) -> np.ndarray:
        """3 x (rows·cols) element coordinates."""
        ax0, ax1 = self.axes
        x, y = self.offsets()
        elements = np.zeros((3, self.rows * self.cols))
        elements[ax0] = np.repeat(x, self.cols)
        elements[ax1] = np.tile(y, self.rows)
        elements += np.asarray(self.center).reshape(3, 1)
        return elements


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna array layout.

    Attributes:
        elements: 3xN element coordinates in meters (one column per element).
        wavelength: carrier wavelength in meters.
        grid: the `UraGrid` the elements lie on, or None for any other
            layout; when given, ``elements`` must be exactly its elements.
    """

    elements: np.ndarray
    wavelength: float
    grid: UraGrid | None = None

    def __post_init__(self):
        elements = np.ascontiguousarray(self.elements, dtype=np.float64)
        if elements.ndim != 2 or elements.shape[0] != 3 or elements.shape[1] < 1:
            raise ValueError("elements must be a 3xN matrix with N >= 1")
        if not np.all(np.isfinite(elements)):
            raise ValueError("element coordinates must be finite")
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength!r}")
        if self.grid is not None and not np.array_equal(elements, self.grid.elements()):
            raise ValueError("elements do not match the array's grid")
        object.__setattr__(self, "elements", elements)

    @property
    def n_elements(self) -> int:
        return self.elements.shape[1]


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


def make_ura(
    rows: int,
    cols: int,
    wavelength: float,
    spacing: float | None = None,
    plane: str = "xz",
    center: np.ndarray | tuple = (0.0, 0.0, 0.0),
) -> ArrayGeometry:
    """Build a uniform rectangular array on a coordinate plane.

    Args:
        rows: grid size along the first plane axis (>= 1).
        cols: grid size along the second plane axis (>= 1).
        wavelength: carrier wavelength in meters.
        spacing: element pitch in meters; defaults to half a wavelength.
        plane: one of "xy", "xz", "yz".
        center: centroid of the grid.

    Returns:
        ArrayGeometry with rows*cols elements, centroid at ``center``, that
        records its `UraGrid`.
    """
    if spacing is None:
        spacing = wavelength / 2.0
    grid = UraGrid(rows, cols, plane, spacing, tuple(np.ravel(center)))
    return ArrayGeometry(elements=grid.elements(), wavelength=wavelength, grid=grid)


def wavenumber(theta: float, phi: float, wavelength: float) -> np.ndarray:
    """Wavenumber vector (rad/m) of a plane wave from direction (theta, phi)."""
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength!r}")
    k0 = 2.0 * np.pi / wavelength
    st = np.sin(theta)
    return k0 * np.array([np.cos(phi) * st, np.sin(phi) * st, np.cos(theta)])


def _wavenumber_partials(theta: float, phi: float, wavelength: float):
    """Partials of the wavenumber vector w.r.t. theta and phi."""
    k0 = 2.0 * np.pi / wavelength
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    dk_dtheta = k0 * np.array([cp * ct, sp * ct, -st])
    dk_dphi = k0 * np.array([-sp * st, cp * st, 0.0])
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
