"""Beam matrices, codebooks, the receive-space whitening, and the signal constants.

Directional codebooks hold one steering column per pointing direction,
scaled by 1/sqrt(n_beams) so a transmit matrix satisfies the unit trace
power constraint exactly. Transmit columns are conjugated so that a beam's
named direction is the direction it radiates toward; receive columns are
plain steering vectors, peaking for arrivals from the named direction. A
device's transmit codebook over a pointing set is therefore the conjugate
of its receive codebook, F = conj(W). A `Beamformer` keeps its pointing
directions beside its matrix: the kernel (`twl.kernels`) builds its
per-axis factors from them.

The receive-space projector is U·Uᴴ = W·G⁻¹·Wᴴ with G = WᴴW;
`gram_inv_sqrt` gives G^(-1/2) from W's singular values, without forming
G. The kernel takes it of the real stack of W's real and imaginary parts,
whose Gram matrix is G for an array centred on its device
(`kernels.codebook_tables`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, steering


class SingularBeamsError(ValueError):
    """Receive beam set with a singular Gram matrix (redundant beams)."""


@dataclass(frozen=True)
class Beamformer:
    """Complex N x n_beams beam matrix with its role and pointing directions.

    Transmit matrices carry Tr(F^H F) = 1; receive matrices must have a
    nonsingular Gram matrix W^H W. ``directions`` holds one (theta, phi)
    per column, the directions `directional_beams` steered it to.
    """

    matrix: np.ndarray
    role: str
    directions: tuple

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
        directions = tuple((float(th), float(ph)) for th, ph in self.directions)
        if len(directions) != m.shape[1]:
            raise ValueError(f"need one direction per beam, got {len(directions)} "
                             f"for {m.shape[1]} beams")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "directions", directions)

    @property
    def n_beams(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SignalConfig:
    """Waveform and link-budget constants.

    Attributes:
        et: energy per pilot symbol in joules.
        ns: number of pilot symbols.
        n0: noise power spectral density in W/Hz.
        bandwidth: occupied bandwidth in Hz.
        weff2: squared effective (RMS) bandwidth in Hz^2.
        carrier: carrier frequency in Hz.
        c: propagation speed in m/s.
    """

    et: float
    ns: int
    n0: float
    bandwidth: float
    weff2: float
    carrier: float
    c: float

    def __post_init__(self):
        for name in ("et", "n0", "bandwidth", "weff2", "carrier", "c"):
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
    cols = np.column_stack([steering(geom, th, ph) for th, ph in directions])
    if role == "transmit":
        cols = cols.conj()
    return Beamformer(matrix=cols / np.sqrt(len(directions)), role=role,
                      directions=directions)


def reverse_direction(theta: float, phi: float) -> tuple[float, float]:
    """Antipodal direction, azimuth wrapped to (-pi, pi]."""
    phi_r = phi + np.pi
    if phi_r > np.pi:
        phi_r -= 2.0 * np.pi
    return np.pi - theta, phi_r


def square_side(n: int, rule: str) -> int:
    """The side of a square grid of ``n`` entries; else a ValueError led by ``rule``."""
    if n < 1 or math.isqrt(n) ** 2 != n:
        raise ValueError(f"{rule}, got {n!r}")
    return math.isqrt(n)


def sector_beam_grid(
    n_beams: int,
    sector_azimuth: tuple[float, float],
    sector_polar: tuple[float, float],
) -> list[tuple[float, float]]:
    """Anchor pointing grid, equispaced over an azimuth x polar sector.

    ``n_beams`` must be a perfect square. The terminal's codebook is the
    reversed grid (`scenario._beam_directions`).
    """
    side = square_side(n_beams, "n_beams must be a perfect square")
    for name, (lo, hi) in (("sector_azimuth", sector_azimuth), ("sector_polar", sector_polar)):
        if hi < lo:
            raise ValueError(f"{name} bounds must be ordered (low, high)")
    az, pol = (np.array([(lo + hi) / 2.0]) if side == 1 else np.linspace(lo, hi, side)
               for lo, hi in (sector_azimuth, sector_polar))
    return [(th, ph) for th in pol for ph in az]


def region_spot_grid(vertices: np.ndarray, n_beams: int) -> list[tuple[float, float]]:
    """Anchor pointing grid covering a quadrilateral service region.

    Returns the directions from the origin to the cell centers of an
    edge-parallel sqrt(n) x sqrt(n) grid over the region, so beam density
    follows the served area instead of a fixed angular rectangle.
    ``n_beams`` must be a perfect square.
    """
    side = square_side(n_beams, "n_beams must be a perfect square")
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
    """G^(-1/2) of the Gram matrix G = w^H w, from the singular values of w.

    G itself is never formed, since that would square w's condition. With
    w = Q·R and R = U·Σ·Vᴴ, G = V·Σ²·Vᴴ and G^(-1/2) = V·Σ⁻¹·Vᴴ. Raises
    SingularBeamsError when σ_min <= 1e-6·σ_max, that is when G's eigenvalue
    ratio is at most 1e-12, or when w has fewer rows than columns.
    """
    _, sigma, vh = np.linalg.svd(np.linalg.qr(w, mode="r"))
    independent = np.count_nonzero(sigma > sigma[0] * 1e-6)
    if independent < w.shape[1]:
        raise SingularBeamsError(
            f"beam set of {w.shape[1]} beams has a singular Gram matrix "
            f"({w.shape[1] - independent} dependent combinations); drop redundant beams"
        )
    return (vh.conj().T / sigma) @ vh
