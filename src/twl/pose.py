"""Device pose, derived channel geometry, and the location-to-channel Jacobian.

The anchor sits at the origin of the global frame with zero orientation. A
terminal pose is a position plus two rotation angles: first about the global
z-axis (zeta0), then about the rotated x-axis (chi0). The rotation matrix
maps terminal-local coordinates to global coordinates.

Channel parameters are ordered anchor first, (theta1, phi1, theta2, phi2,
tau): pair 1 holds the anchor-frame angles of the link and pair 2 the
terminal-local angles, whichever device initiates an exchange. The initiator
only decides which link is the forward one (`twl.protocols`).

`_link_angles_batch` computes the link geometry of a batch of positions and
`_jacobian_batch` the (n, 5, 5) Jacobians from it; `channel_geometry` and
`location_jacobian` are their n = 1 views, and `location_jacobian` returns
the pipeline's (5, 5) array itself.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT

# Smallest sin(theta) of a link direction with a defined azimuth.
_SIN_FLOOR = 1e-12


class DegenerateGeometryError(ValueError):
    """Pose at an angle-coordinate singularity (link along a frame z-axis)."""


@dataclass(frozen=True)
class Pose:
    """Terminal position (meters, global frame) and orientation angles (rad)."""

    position: np.ndarray
    zeta0: float = 0.0
    chi0: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.position, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(p)):
            raise ValueError("position must be finite")
        if np.linalg.norm(p) == 0.0:
            raise ValueError("position must not coincide with the anchor")
        object.__setattr__(self, "position", p)


@dataclass(frozen=True)
class ChannelGeometry:
    """Channel parameters of one link: angles, delay, gain and phase.

    Angles are in radians, tau in seconds, beta is the dimensionless
    path-gain amplitude. theta in [0, pi], phi in (-pi, pi].
    """

    theta1: float
    phi1: float
    theta2: float
    phi2: float
    tau: float
    beta: float
    psi: float = 0.0


def rotation_matrix(zeta0: float, chi0: float) -> np.ndarray:
    """Local-to-global rotation: z-rotation by zeta0 then x'-rotation by chi0."""
    cz, sz = np.cos(zeta0), np.sin(zeta0)
    cx, sx = np.cos(chi0), np.sin(chi0)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return rz @ rx


def _spherical_batch(v: np.ndarray):
    """Polar/azimuth angles of unit vectors, batched over the leading axis.

    Returns (theta, phi, sin_theta). Raises on polar singularities.
    """
    vz = np.clip(v[..., 2], -1.0, 1.0)
    theta = np.arccos(vz)
    sin_theta = np.sqrt(np.maximum(1.0 - vz * vz, 0.0))
    if np.any(sin_theta < _SIN_FLOOR):
        raise DegenerateGeometryError(
            "link direction aligned with a frame z-axis; azimuth undefined"
        )
    phi = np.arctan2(v[..., 1], v[..., 0])
    return theta, phi, sin_theta


def _link_angles_batch(positions: np.ndarray, rot: np.ndarray):
    """Anchor-frame and terminal-local link angles for a batch of positions.

    Args:
        positions: (n, 3) terminal positions.
        rot: 3x3 local-to-global rotation of the terminal.

    Returns:
        dict with r, u (unit anchor->terminal), q (unit terminal->anchor in
        the local frame), rot, theta1/phi1/sin1, theta2/phi2/sin2.
    """
    r = np.linalg.norm(positions, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("position must not coincide with the anchor")
    u = positions / r[..., None]
    theta1, phi1, sin1 = _spherical_batch(u)
    q = -(u @ rot)  # rows are rot^T @ (-u)
    theta2, phi2, sin2 = _spherical_batch(q)
    return {
        "r": r, "u": u, "q": q, "rot": rot,
        "theta1": theta1, "phi1": phi1, "sin1": sin1,
        "theta2": theta2, "phi2": phi2, "sin2": sin2,
    }


def channel_geometry(ue: Pose, wavelength: float, c: float = SPEED_OF_LIGHT) -> ChannelGeometry:
    """Channel parameters implied by a terminal pose.

    Pair-1 angles are the anchor-frame direction of the terminal, pair-2 the
    terminal-local direction back to the anchor. tau is range over c and
    beta the free-space amplitude wavelength / (4 pi range).
    """
    g = _link_angles_batch(ue.position[None, :], rotation_matrix(ue.zeta0, ue.chi0))
    r = g["r"][0]
    return ChannelGeometry(
        theta1=g["theta1"][0], phi1=g["phi1"][0], theta2=g["theta2"][0], phi2=g["phi2"][0],
        tau=r / c, beta=wavelength / (4.0 * np.pi * r),
    )


def _jacobian_batch(g: dict, c: float) -> np.ndarray:
    """Location-to-channel Jacobians for a batch of positions, shape (n, 5, 5).

    ``g`` is the `_link_angles_batch` geometry of the positions, whose
    ``rot`` fixes the orientation. Rows (zeta0, chi0, px, py, pz); columns
    (theta1, phi1, theta2, phi2, tau). All partials are exact derivatives of
    the channel-geometry map.
    """
    r, u, q, rot = g["r"], g["u"], g["q"], g["rot"]
    sin1, sin2 = g["sin1"], g["sin2"]

    jac = np.zeros((r.shape[0], 5, 5))

    # Anchor-side angles depend on position only; d(phi1)/dpz = 0.
    ez = np.array([0.0, 0.0, 1.0])
    jac[:, 2:, 0] = (u * u[:, 2:3] - ez) / (r * sin1)[:, None]
    jac[:, 2:4, 1] = np.stack([-u[:, 1], u[:, 0]], axis=-1) / (r * sin1**2)[:, None]

    # Terminal-local angles: q = rot^T @ (-u).
    rx, ry, rz = rot[:, 0], rot[:, 1], rot[:, 2]
    # d(theta2)/dp = (rz + u * q_z) / (r * sin2)
    jac[:, 2:, 2] = (rz + u * q[:, 2:3]) / (r * sin2)[:, None]
    # d(phi2)/dp = (q_y * rx - q_x * ry) / (r * sin2^2)
    jac[:, 2:, 3] = (q[:, 1:2] * rx - q[:, 0:1] * ry) / (r * sin2**2)[:, None]

    # Orientation partials enter through the rotation R = Rz(zeta0)·Rx(chi0)
    # only: dR/dzeta0 has rows (-R1, R0, 0), dR/dchi0 columns (0, R[:, 2], -R[:, 1]).
    zero = np.zeros(3)
    drot_dz = np.stack([-rot[1], rot[0], zero])
    drot_dx = np.stack([zero, rot[:, 2], -rot[:, 1]], axis=1)
    for row, drot in ((0, drot_dz), (1, drot_dx)):
        dq = -(u @ drot)  # rows are drot^T @ (-u)
        jac[:, row, 2] = -dq[:, 2] / sin2
        jac[:, row, 3] = (q[:, 0] * dq[:, 1] - q[:, 1] * dq[:, 0]) / sin2**2

    # Delay column: tau = r / c.
    jac[:, 2:, 4] = u / c
    return jac


def location_jacobian(ue: Pose, c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """Exact 5x5 Jacobian of the channel-geometry map at a pose.

    Rows (zeta0, chi0, px, py, pz); columns (theta1, phi1, theta2, phi2,
    tau). The orientation rows of the tau and pair-1 angle columns are
    exactly zero.
    """
    g = _link_angles_batch(ue.position[None, :], rotation_matrix(ue.zeta0, ue.chi0))
    return _jacobian_batch(g, c)[0]
