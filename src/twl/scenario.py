"""Desk-scale simulation: region sampling, per-position bounds, CDFs, sweeps.

A scenario fixes the anchor and terminal arrays, the waveform constants, the
beam codebooks, and one terminal orientation case. Terminal positions are
sampled uniformly over a planar convex region, every position is evaluated
independently (position/orientation error bounds per protocol and initiator,
plus link SNR), and results are summarized as empirical quantiles.

`position_tables` builds each device's codebooks once, takes the
per-position steering forms of each device from one chunked matrix
multiply (`twl.kernels`), and evaluates everything downstream (channel FIM,
angle Schur complement, protocol EFIMs and their inversion) as batched
numpy over the positions.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .beamforming import (
    SignalConfig,
    directional_beams,
    orthonormal_basis,
    region_spot_grid,
    reverse_direction,
    sector_beam_grid,
)
from .fim import fim_from_forms
from .geometry import ArrayGeometry, make_ura
from .kernels import steering_forms
from .pose import _jacobian_batch, _link_angles_batch, rotation_matrix
from .protocols import PROTOCOLS, invert_efim

QUANTILES = (0.1, 0.5, 0.9)
INITIATORS = ("bs", "ue")

#: Transmission directions in the fixed anchor-first parameter ordering.
_LINKS = ("bs_to_ue", "ue_to_bs")


def _default_diamond() -> np.ndarray:
    h = 25.0 * math.sqrt(3.0)
    return np.array(
        [[0.0, 0.0, -10.0], [h, 25.0, -10.0], [0.0, 50.0, -10.0], [-h, 25.0, -10.0]]
    )


@dataclass(frozen=True)
class Region:
    """Planar convex quadrilateral at constant height."""

    vertices: np.ndarray = field(default_factory=_default_diamond)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.shape != (4, 3):
            raise ValueError(f"region needs 4 vertices of 3 coordinates, got {v.shape}")
        if np.ptp(v[:, 2]) != 0.0:
            raise ValueError("region vertices must share one z coordinate")
        cross = self._edge_crosses(v)
        if np.any(cross == 0.0) or (np.any(cross > 0) and np.any(cross < 0)):
            raise ValueError("region must be convex and non-degenerate")
        object.__setattr__(self, "vertices", v)

    @staticmethod
    def _edge_crosses(v: np.ndarray) -> np.ndarray:
        nxt = np.roll(v, -1, axis=0)
        prv = np.roll(v, 1, axis=0)
        e1 = nxt[:, :2] - v[:, :2]
        e2 = v[:, :2] - prv[:, :2]
        return e2[:, 0] * e1[:, 1] - e2[:, 1] * e1[:, 0]

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def triangles(self):
        v = self.vertices
        return (v[[0, 1, 2]], v[[0, 2, 3]])

    def contains(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Boundary-inclusive membership test, batched over rows."""
        points = np.atleast_2d(points)
        v = self.vertices
        nxt = np.roll(v, -1, axis=0)
        inside = np.abs(points[:, 2] - v[0, 2]) <= tol
        sign = np.sign(self._edge_crosses(v)[0])
        for a, b in zip(v, nxt):
            e = b[:2] - a[:2]
            d = points[:, :2] - a[:2]
            inside &= sign * (e[0] * d[:, 1] - e[1] * d[:, 0]) >= -tol
        return inside


@dataclass(frozen=True)
class Scenario:
    """One simulation case: geometry, waveform, codebooks, orientation."""

    region: Region
    bs_array: ArrayGeometry
    ue_array: ArrayGeometry
    signal: SignalConfig
    n_beams: int = 25
    beam_grid: str = "region"
    sector_azimuth: tuple = (math.radians(30.0), math.radians(150.0))
    sector_polar: tuple = (math.radians(100.0), math.radians(170.0))
    orientation: tuple = (0.0, 0.0)
    protocols: tuple = PROTOCOLS
    initiators: tuple = INITIATORS
    n_samples: int = 10000
    seed: int = 123456789
    element_spacing: float | None = None  # meters; None means half a wavelength

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples!r}")
        if self.beam_grid not in ("region", "sector"):
            raise ValueError(f"beam_grid must be 'region' or 'sector', got {self.beam_grid!r}")
        unknown = set(self.protocols) - set(PROTOCOLS)
        if unknown:
            raise ValueError(f"unknown protocols {sorted(unknown)}")
        unknown = set(self.initiators) - set(INITIATORS)
        if unknown:
            raise ValueError(f"unknown initiators {sorted(unknown)}")

    def anchor_beam_directions(self) -> list:
        """Anchor codebook pointing directions for the configured grid.

        "region" aims one beam at each cell center of a grid over the service
        region; "sector" spreads beams over the configured angular rectangle.
        The terminal codebook is always the reversed set, held fixed in its
        local frame.
        """
        if self.beam_grid == "region":
            return region_spot_grid(self.region.vertices, self.n_beams)
        return sector_beam_grid(
            self.n_beams, "anchor", self.sector_azimuth, self.sector_polar
        )

    @classmethod
    def reference_defaults(cls, **overrides) -> "Scenario":
        """38 GHz / 125 MHz / 12x12 arrays / 25-beam default configuration."""
        signal = overrides.pop("signal", None) or SignalConfig.from_link_budget(
            power_w=1e-3, bandwidth=125e6, ns=64, n0=1e-20, carrier=38e9
        )
        lam = signal.wavelength
        defaults = dict(
            region=Region(),
            bs_array=make_ura(12, 12, lam),
            ue_array=make_ura(12, 12, lam),
            signal=signal,
        )
        defaults.update(overrides)
        return cls(**defaults)


def sample_positions(region: Region, n: int, seed: int) -> np.ndarray:
    """Uniform positions over the region; deterministic for a fixed seed.

    The quadrilateral is split into two triangles sampled with area weights
    and square-root barycentric coordinates.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 positions, got {n!r}")
    tri_a, tri_b = region.triangles()

    def area(t):
        return 0.5 * np.linalg.norm(np.cross(t[1] - t[0], t[2] - t[0]))

    w_a = area(tri_a) / (area(tri_a) + area(tri_b))
    rng = np.random.default_rng(seed)
    u = rng.random((n, 3))
    r1 = np.sqrt(u[:, 1])[:, None]
    r2 = u[:, 2][:, None]

    def warp(t):
        return (1.0 - r1) * t[0] + r1 * (1.0 - r2) * t[1] + r1 * r2 * t[2]

    return np.where(u[:, 0][:, None] < w_a, warp(tri_a), warp(tri_b))


def percentile(values, q: float, unidentifiable=None) -> float:
    """Order-statistic quantile with linear interpolation.

    Entries flagged unidentifiable sort as +inf. With n values, the quantile
    sits at fractional rank (n - 1) * q between adjacent order statistics.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take a percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if unidentifiable is not None:
        values = np.where(np.asarray(unidentifiable, dtype=bool), np.inf, values)
    v = np.sort(values)
    h = (v.size - 1) * q
    lo = int(math.floor(h))
    t = h - lo
    if t == 0.0 or lo + 1 >= v.size:
        return float(v[lo])
    if not np.isfinite(v[lo + 1]):
        # Sorted ascending, so a non-finite upper neighbor is the +inf
        # sentinel; any interpolation weight toward it is unbounded.
        return float(v[lo + 1])
    return float(v[lo] + t * (v[lo + 1] - v[lo]))


@dataclass(frozen=True)
class DeviceTables:
    """Precomputed beam-space matrices of one device."""

    elements: np.ndarray
    wavelength: float
    tx_matrix_t: np.ndarray
    rx_basis_h: np.ndarray
    rx_matrix_h: np.ndarray


@dataclass(frozen=True)
class PositionTables:
    """Per-position ingredients shared by all protocols and sweeps.

    ``angle_efim``/``delay_info`` are keyed by transmission link
    ("bs_to_ue", "ue_to_bs") in the anchor-first parameter ordering.
    """

    positions: np.ndarray
    snr_db: np.ndarray
    jacobian: np.ndarray  # (n, 5, 5)
    angle_efim: dict
    delay_info: dict


@dataclass(frozen=True)
class BoundSamples:
    """Per-position bounds of one (protocol, initiator) combination."""

    peb: np.ndarray  # meters
    oeb: np.ndarray  # radians
    identifiable: np.ndarray


@dataclass(frozen=True)
class CdfResult:
    """Per-position records plus the empirical quantile table."""

    positions: np.ndarray
    snr_db: np.ndarray
    bounds: dict  # (protocol, initiator) -> BoundSamples
    quantile_rows: list  # dicts matching the cdf output schema


def _device_tables(geom: ArrayGeometry, directions) -> DeviceTables:
    f = directional_beams(geom, directions, role="transmit")
    w = directional_beams(geom, directions, role="receive")
    basis = orthonormal_basis(w.matrix)
    return DeviceTables(
        elements=geom.elements,
        wavelength=geom.wavelength,
        tx_matrix_t=f.matrix.T.copy(),
        rx_basis_h=basis.conj().T.copy(),
        rx_matrix_h=w.matrix.conj().T.copy(),
    )


def position_tables(
    scenario: Scenario, positions: np.ndarray | None = None
) -> PositionTables:
    """Evaluate the per-position FIM ingredients of a scenario."""
    if positions is None:
        positions = sample_positions(scenario.region, scenario.n_samples, scenario.seed)
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    zeta0, chi0 = scenario.orientation
    lam = scenario.signal.wavelength

    rot = rotation_matrix(zeta0, chi0)
    geo = _link_angles_batch(positions, rot)
    jac = _jacobian_batch(positions, zeta0, chi0, scenario.signal.c)

    bs_dirs = scenario.anchor_beam_directions()
    ue_dirs = [reverse_direction(th, ph) for th, ph in bs_dirs]
    bs_tab = _device_tables(scenario.bs_array, bs_dirs)
    ue_tab = _device_tables(scenario.ue_array, ue_dirs)

    t_bs, r_bs, gain_bs = steering_forms(
        bs_tab.elements, lam, bs_tab.tx_matrix_t, bs_tab.rx_basis_h,
        bs_tab.rx_matrix_h, geo["theta1"], geo["phi1"],
    )
    t_ue, r_ue, gain_ue = steering_forms(
        ue_tab.elements, lam, ue_tab.tx_matrix_t, ue_tab.rx_basis_h,
        ue_tab.rx_matrix_h, geo["theta2"], geo["phi2"],
    )

    beta = lam / (4.0 * np.pi * geo["r"])
    gamma = scenario.signal.gamma(
        scenario.bs_array.n_elements, scenario.ue_array.n_elements
    )
    # Uplink and downlink SNR coincide: the conjugated transmit codebook makes
    # each device's transmit and receive gain patterns identical.
    snr = 10.0 * np.log10(gamma * beta**2 * t_ue[:, 0, 0].real * gain_bs)

    angle_efim = {}
    delay = {}
    for link, (t_tx, r_rx, direction) in {
        "bs_to_ue": (t_bs, r_ue, "forward"),
        "ue_to_bs": (t_ue, r_bs, "backward"),
    }.items():
        jm = fim_from_forms(t_tx, r_rx, gamma, beta, scenario.signal.weff2, direction)
        coupling = jm[:, :4, 4]
        with np.errstate(divide="ignore", invalid="ignore"):
            angle_efim[link] = jm[:, :4, :4] - coupling[:, :, None] * coupling[
                :, None, :
            ] / jm[:, 4:5, 4:5]
        delay[link] = jm[:, 6, 6]

    return PositionTables(
        positions=positions, snr_db=snr, jacobian=jac,
        angle_efim=angle_efim, delay_info=delay,
    )


def protocol_bounds(
    tables: PositionTables, protocol: str, initiator: str, delay_scale: float = 1.0
) -> BoundSamples:
    """Per-position bounds of one protocol/initiator from shared tables.

    ``delay_scale`` rescales the delay information of both directions, which
    is how a bandwidth change enters at fixed transmit energy and beams.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if initiator not in INITIATORS:
        raise ValueError(f"initiator must be one of {INITIATORS}, got {initiator!r}")
    bwd = "ue_to_bs" if initiator == "bs" else "bs_to_ue"
    fwd = "bs_to_ue" if initiator == "bs" else "ue_to_bs"

    js = tables.jacobian[:, :, :4]
    jd = tables.jacobian[:, :, 4]
    spatial = np.einsum("nia,nab,njb->nij", js, tables.angle_efim[bwd], js)
    if protocol == "clp":
        spatial = spatial + np.einsum(
            "nia,nab,njb->nij", js, tables.angle_efim[fwd], js
        )

    j_tau_b = tables.delay_info[bwd] * delay_scale
    j_tau_f = tables.delay_info[fwd] * delay_scale
    if protocol == "owl":
        j_tau = j_tau_b
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            j_tau = 4.0 / (1.0 / j_tau_f + 1.0 / j_tau_b)

    efim5 = spatial + j_tau[:, None, None] * jd[:, :, None] * jd[:, None, :]
    bad = ~np.isfinite(efim5).all(axis=(1, 2))
    if np.any(bad):
        efim5 = efim5.copy()
        efim5[bad] = np.eye(5)
    _, peb, oeb, ok, _, _ = invert_efim(efim5)
    ok &= ~bad
    peb = np.where(ok, peb, np.inf)
    oeb = np.where(ok, oeb, np.inf)
    return BoundSamples(peb=peb, oeb=oeb, identifiable=ok)


def run_cdf(scenario: Scenario) -> CdfResult:
    """Sample the region and evaluate every requested protocol/initiator."""
    tables = position_tables(scenario)
    snr_p10 = percentile(tables.snr_db, 0.1)
    bounds = {}
    rows = []
    for protocol in scenario.protocols:
        for initiator in scenario.initiators:
            samples = protocol_bounds(tables, protocol, initiator)
            bounds[(protocol, initiator)] = samples
            flagged = ~samples.identifiable
            for q in QUANTILES:
                rows.append({
                    "protocol": protocol,
                    "initiator": initiator,
                    "quantile": q,
                    "peb_m": percentile(samples.peb, q, flagged),
                    "oeb_deg": math.degrees(percentile(samples.oeb, q, flagged)),
                    "snr_p10_db": snr_p10,
                    "n_unidentifiable": int(flagged.sum()),
                })
    return CdfResult(
        positions=tables.positions, snr_db=tables.snr_db,
        bounds=bounds, quantile_rows=rows,
    )


def sweep_bandwidth(scenario: Scenario, bandwidths) -> list:
    """PEB at the 0.9 quantile versus bandwidth, fixed positions and energy.

    Only the effective-bandwidth factor of the delay information varies
    across rows; transmit energy, beams, and sampled positions stay fixed.
    """
    bandwidths = [float(w) for w in bandwidths]
    if any(w <= 0 for w in bandwidths) or bandwidths != sorted(bandwidths):
        raise ValueError("bandwidths must be positive and ascending")
    tables = position_tables(scenario)
    rows = []
    for w in bandwidths:
        scale = (w / scenario.signal.bandwidth) ** 2
        for protocol in scenario.protocols:
            for initiator in scenario.initiators:
                samples = protocol_bounds(tables, protocol, initiator, delay_scale=scale)
                rows.append({
                    "w_hz": w,
                    "protocol": protocol,
                    "initiator": initiator,
                    "peb90_m": percentile(samples.peb, 0.9, ~samples.identifiable),
                })
    return rows


def sweep_antennas(scenario: Scenario, counts, side: str) -> list:
    """PEB at the 0.9 quantile versus one side's antenna count.

    Each count must be a perfect square (square arrays); the other side keeps
    the scenario's array. Positions are resampled with the scenario seed, so
    rows are directly comparable across counts.
    """
    if side not in ("bs", "ue"):
        raise ValueError(f"side must be 'bs' or 'ue', got {side!r}")
    rows = []
    for count in counts:
        edge = round(math.sqrt(count))
        if edge * edge != count or count < 1:
            raise ValueError(f"antenna counts must be perfect squares, got {count!r}")
        arr = make_ura(edge, edge, scenario.signal.wavelength,
                       spacing=scenario.element_spacing)
        swept = replace(scenario, **{f"{side}_array": arr})
        tables = position_tables(swept)
        for protocol in scenario.protocols:
            for initiator in scenario.initiators:
                samples = protocol_bounds(tables, protocol, initiator)
                rows.append({
                    "side": side,
                    "n_antennas": int(count),
                    "protocol": protocol,
                    "initiator": initiator,
                    "peb90_m": percentile(samples.peb, 0.9, ~samples.identifiable),
                })
    return rows
