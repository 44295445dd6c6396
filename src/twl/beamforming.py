"""Beam matrices, codebooks, the receive-space basis, and the signal constants.

Directional codebooks hold one steering column per pointing direction,
scaled by 1/sqrt(n_beams) so a transmit matrix satisfies the unit trace
power constraint exactly. Transmit columns are conjugated so that a beam's
named direction is the direction it radiates toward; receive columns are
plain steering vectors, peaking for arrivals from the named direction. A
device's transmit codebook over a pointing set is therefore the conjugate
of its receive codebook, F = conj(W).

The receive-space projector is U·Uᴴ = W·G⁻¹·Wᴴ with G = WᴴW; `gram_inv_sqrt`
gives G^(-1/2) and `orthonormal_basis` the basis U = W·G^(-1/2).
"""

from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, steering


class SingularBeamsError(ValueError):
    """Receive beam set with a singular Gram matrix (redundant beams)."""


@dataclass(frozen=True)
class Beamformer:
    """Complex N x n_beams beam matrix with its role.

    Transmit matrices carry Tr(F^H F) = 1; receive matrices must have a
    nonsingular Gram matrix W^H W.
    """

    matrix: np.ndarray
    role: str

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[1] < 1:
            raise ValueError("beam matrix must be N x n_beams with n_beams >= 1")
        if self.role not in ("transmit", "receive"):
            raise ValueError(f"role must be 'transmit' or 'receive', got {self.role!r}")
        if self.role == "transmit":
            trace = np.sum(np.abs(m) ** 2)
            if abs(trace - 1.0) > 1e-12:
                raise ValueError(f"transmit power constraint violated: Tr(F^H F) = {trace!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def n_beams(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SignalConfig:
    """Waveform and link-budget constants.

    Attributes:
        et: energy per pilot symbol in joules.
        ts: symbol duration in seconds.
        ns: number of pilot symbols.
        n0: noise power spectral density in W/Hz.
        bandwidth: occupied bandwidth in Hz.
        weff2: squared effective (RMS) bandwidth in Hz^2.
        carrier: carrier frequency in Hz.
        c: propagation speed in m/s.
    """

    et: float
    ts: float
    ns: int
    n0: float
    bandwidth: float
    weff2: float
    carrier: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        for name in ("et", "ts", "n0", "bandwidth", "weff2", "carrier", "c"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not self.ns >= 1:
            raise ValueError(f"ns must be >= 1, got {self.ns!r}")

    @property
    def wavelength(self) -> float:
        return self.c / self.carrier

    def gamma(self, n_tx: int, n_rx: int) -> float:
        """Integrated SNR scale n_tx * n_rx * ns * et / n0."""
        return n_tx * n_rx * self.ns * self.et / self.n0

    @classmethod
    def from_link_budget(
        cls,
        power_w: float,
        bandwidth: float,
        ns: int,
        n0: float,
        carrier: float,
        weff_factor: float = 1.0 / 3.0,
        c: float = SPEED_OF_LIGHT,
    ) -> "SignalConfig":
        """Build from transmit power with ts = 1/bandwidth, et = power * ts."""
        ts = 1.0 / bandwidth
        return cls(
            et=power_w * ts, ts=ts, ns=ns, n0=n0, bandwidth=bandwidth,
            weff2=weff_factor * bandwidth**2, carrier=carrier, c=c,
        )


def directional_beams(
    geom: ArrayGeometry, directions, role: str
) -> Beamformer:
    """Fixed directional codebook, one steering column per direction.

    Columns are a(theta, phi) / sqrt(n_beams), conjugated for the transmit
    role so the beam radiates toward its named direction.
    """
    directions = list(directions)
    if len(directions) < 1:
        raise ValueError("need at least one beam direction")
    if role == "receive" and len(set(directions)) < len(directions):
        raise SingularBeamsError("duplicate receive directions make W^H W singular")
    cols = np.column_stack([steering(geom, th, ph).a for th, ph in directions])
    if role == "transmit":
        cols = cols.conj()
    return Beamformer(matrix=cols / np.sqrt(len(directions)), role=role)


def reverse_direction(theta: float, phi: float) -> tuple[float, float]:
    """Antipodal direction, azimuth wrapped to (-pi, pi]."""
    phi_r = phi + np.pi
    if phi_r > np.pi:
        phi_r -= 2.0 * np.pi
    return np.pi - theta, phi_r


def sector_beam_grid(
    n_beams: int,
    sector_azimuth: tuple[float, float],
    sector_polar: tuple[float, float],
) -> list[tuple[float, float]]:
    """Anchor pointing grid, equispaced over an azimuth x polar sector.

    ``n_beams`` must be a perfect square. The terminal's codebook is the
    reversed grid (`scenario._beam_directions`).
    """
    side = round(np.sqrt(n_beams))
    if side * side != n_beams or n_beams < 1:
        raise ValueError(f"n_beams must be a perfect square, got {n_beams!r}")
    az_lo, az_hi = sector_azimuth
    pol_lo, pol_hi = sector_polar
    if az_hi < az_lo or pol_hi < pol_lo:
        raise ValueError("sector bounds must be ordered (low, high)")
    if side == 1:
        az = np.array([(az_lo + az_hi) / 2.0])
        pol = np.array([(pol_lo + pol_hi) / 2.0])
    else:
        az = np.linspace(az_lo, az_hi, side)
        pol = np.linspace(pol_lo, pol_hi, side)
    return [(th, ph) for th in pol for ph in az]


def region_spot_grid(vertices: np.ndarray, n_beams: int) -> list[tuple[float, float]]:
    """Anchor pointing grid covering a quadrilateral service region.

    Returns the directions from the origin to the cell centers of an
    edge-parallel sqrt(n) x sqrt(n) grid over the region, so beam density
    follows the served area instead of a fixed angular rectangle.
    ``n_beams`` must be a perfect square.
    """
    side = round(np.sqrt(n_beams))
    if side * side != n_beams or n_beams < 1:
        raise ValueError(f"n_beams must be a perfect square, got {n_beams!r}")
    v = np.asarray(vertices, dtype=np.float64)
    if v.shape != (4, 3):
        raise ValueError(f"need 4 region vertices of 3 coordinates, got {v.shape}")
    cell = (np.arange(side) + 0.5) / side
    spots = (v[0] + cell[:, None, None] * (v[1] - v[0])
             + cell[None, :, None] * (v[3] - v[0])).reshape(-1, 3)
    norm = np.linalg.norm(spots, axis=1)
    if np.any(norm == 0.0):
        raise ValueError("region spot coincides with the anchor")
    u = spots / norm[:, None]
    theta = np.arccos(np.clip(u[:, 2], -1.0, 1.0))
    return list(zip(theta.tolist(), np.arctan2(u[:, 1], u[:, 0]).tolist()))


def gram_inv_sqrt(w: np.ndarray) -> np.ndarray:
    """G^(-1/2) of the Gram matrix G = w^H w, via its eigenbasis.

    Raises SingularBeamsError when the Gram matrix is numerically singular.
    """
    gram = w.conj().T @ w
    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= evals[-1] * 1e-12 or evals[-1] <= 0.0:
        bad = [int(i) for i in np.where(evals <= evals[-1] * 1e-12)[0]]
        raise SingularBeamsError(
            f"beam set of {w.shape[1]} beams has a singular Gram matrix "
            f"({len(bad)} dependent combinations); drop redundant beams"
        )
    return (evecs * evals**-0.5) @ evecs.conj().T


def orthonormal_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis U = w·G^(-1/2) of the column space of w."""
    return w @ gram_inv_sqrt(w)
