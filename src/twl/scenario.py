"""Desk-scale simulation: region sampling, per-position bounds, CDFs, sweeps.

A scenario fixes the anchor and terminal arrays, the waveform constants, the
beam codebooks, and one terminal orientation case. Terminal positions are
sampled uniformly over a planar convex region, every position is evaluated
independently (position/orientation error bounds per protocol and initiator,
plus link SNR), and results are summarized as empirical quantiles.

`position_tables` computes the link geometry and Jacobian of the positions
once (`twl.pose`), projects each device's receive codebook W once per
direction (`twl.kernels`; its transmit codebook is conj(W), so W's
per-axis factors and G^(-1/2) of G = WᴴW are all the kernel needs), and
evaluates everything downstream as batched numpy over the positions: the
channel FIM and its gain elimination (`twl.fim`), and the factored form of
each distinct protocol EFIM, which carries its angle EFIM: one 4x4 angle
EFIM inverse per position for each link and for their sum
(`twl.protocols.efim_factors`).
`protocol_bounds` picks the factors by key and computes only the
protocol's delay weight (`twl.protocols.invert_efim`). The single-pose
functions of those modules call the same stage code. `sweep_antennas`
resizes the swept device's own array, keeping its wavelength, spacing,
plane and centre, and shares the geometry stage and the unswept device's
forms across its antenna counts.

`REFERENCE_CONFIG` holds the reference setup once, in the CLI's config
units; `Scenario.from_config` converts it, or any validated config, to a
scenario.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .beamforming import (
    SignalConfig,
    directional_beams,
    gram_inv_sqrt,
    region_spot_grid,
    reverse_direction,
    sector_beam_grid,
)
from .fim import eliminate_gain, fim_from_forms
from .geometry import SPEED_OF_LIGHT, ArrayGeometry
from .kernels import DeviceTables, beam_factors, steering_forms
from .pose import _jacobian_batch, _link_angles_batch, rotation_matrix
from .protocols import PROTOCOLS, delay_weight, efim_factors, invert_efim

QUANTILES = (0.1, 0.5, 0.9)
INITIATORS = ("bs", "ue")
# Boundary slack of `Region.contains` (height in m, edge cross products in m²).
_CONTAINS_TOL = 1e-9


#: The reference desk-scale setup in config units, keyed by config name.
#: `Scenario.reference_defaults`, `Region()` and the CLI's defaults read it.
REFERENCE_CONFIG = {
    "carrier_hz": 38e9,
    "bandwidth_hz": 125e6,
    "n_symbols": 64,
    "power_dbm": 0.0,
    "noise_dbm_hz": -170.0,
    "weff2_over_w2": 1.0 / 3.0,
    "c_m_s": SPEED_OF_LIGHT,
    "bs_rows": 12,
    "bs_cols": 12,
    "ue_rows": 12,
    "ue_cols": 12,
    "spacing_wavelengths": 0.5,
    "n_beams": 25,
    "beam_grid": "region",
    "sector_azimuth_deg": [30.0, 150.0],
    "sector_polar_deg": [100.0, 170.0],
    "orientation_deg": [0.0, 0.0],
    "region_vertices_m": [
        [0.0, 0.0, -10.0],
        [25.0 * math.sqrt(3.0), 25.0, -10.0],
        [0.0, 50.0, -10.0],
        [-25.0 * math.sqrt(3.0), 25.0, -10.0],
    ],
    "n_positions": 10000,
    "seed": 123456789,
    "protocols": list(PROTOCOLS),
    "initiators": list(INITIATORS),
}


@dataclass(frozen=True)
class Region:
    """Planar convex quadrilateral at constant height."""

    vertices: np.ndarray = field(
        default_factory=lambda: REFERENCE_CONFIG["region_vertices_m"]
    )

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

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boundary-inclusive membership test, batched over rows."""
        points = np.atleast_2d(points)
        v = self.vertices
        nxt = np.roll(v, -1, axis=0)
        inside = np.abs(points[:, 2] - v[0, 2]) <= _CONTAINS_TOL
        sign = np.sign(self._edge_crosses(v)[0])
        for a, b in zip(v, nxt):
            e = b[:2] - a[:2]
            d = points[:, :2] - a[:2]
            inside &= sign * (e[0] * d[:, 1] - e[1] * d[:, 0]) >= -_CONTAINS_TOL
        return inside


@dataclass(frozen=True)
class Scenario:
    """One simulation case: geometry, waveform, codebooks, orientation."""

    region: Region
    bs_array: ArrayGeometry
    ue_array: ArrayGeometry
    signal: SignalConfig
    n_beams: int
    beam_grid: str
    sector_azimuth: tuple  # radians
    sector_polar: tuple  # radians
    orientation: tuple  # radians
    protocols: tuple
    initiators: tuple
    n_samples: int
    seed: int

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
        return sector_beam_grid(self.n_beams, self.sector_azimuth, self.sector_polar)

    @classmethod
    def from_config(cls, values: dict) -> "Scenario":
        """Scenario from config values in config units (see REFERENCE_CONFIG)."""
        v = values
        signal = SignalConfig.from_link_budget(
            power_w=10.0 ** (v["power_dbm"] / 10.0) * 1e-3,
            bandwidth=float(v["bandwidth_hz"]),
            ns=v["n_symbols"],
            n0=10.0 ** (v["noise_dbm_hz"] / 10.0) * 1e-3,
            carrier=float(v["carrier_hz"]),
            weff_factor=float(v["weff2_over_w2"]),
            c=float(v["c_m_s"]),
        )
        lam = signal.wavelength
        spacing = v["spacing_wavelengths"] * lam
        return cls(
            region=Region(np.asarray(v["region_vertices_m"], dtype=float)),
            bs_array=ArrayGeometry(v["bs_rows"], v["bs_cols"], lam, spacing=spacing),
            ue_array=ArrayGeometry(v["ue_rows"], v["ue_cols"], lam, spacing=spacing),
            signal=signal,
            n_beams=v["n_beams"],
            beam_grid=v["beam_grid"],
            sector_azimuth=tuple(math.radians(a) for a in v["sector_azimuth_deg"]),
            sector_polar=tuple(math.radians(a) for a in v["sector_polar_deg"]),
            orientation=tuple(math.radians(a) for a in v["orientation_deg"]),
            protocols=tuple(v["protocols"]),
            initiators=tuple(v["initiators"]),
            n_samples=v["n_positions"],
            seed=v["seed"],
        )

    @classmethod
    def reference_defaults(cls, **overrides) -> "Scenario":
        """38 GHz / 125 MHz / 12x12 arrays / 25-beam default configuration.

        ``overrides`` replace fields of the reference scenario as given; a
        replaced ``signal`` does not rebuild the arrays.
        """
        return replace(cls.from_config(REFERENCE_CONFIG), **overrides)


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
class PositionTables:
    """Per-position ingredients shared by all protocols and sweeps.

    ``angle_efim``/``delay_info`` are keyed by transmission link
    ("bs_to_ue", "ue_to_bs") in the anchor-first parameter ordering.
    ``factors`` holds the `EfimFactors`, with its angle EFIM, of each
    distinct protocol: one link's, keyed by that link (owl and rlp), and
    the sum of both, keyed "clp".
    """

    positions: np.ndarray
    snr_db: np.ndarray
    jacobian: np.ndarray  # (n, 5, 5)
    angle_efim: dict
    delay_info: dict
    factors: dict


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
    # The kernel takes W as per-axis factors; the full codebooks are built
    # for their checks: the transmit one (conj(W)) for the unit transmit
    # power, the receive one for a duplicate direction, and G^(-1/2).
    directional_beams(geom, directions, role="transmit")
    w = directional_beams(geom, directions, role="receive").matrix
    return DeviceTables(*beam_factors(geom, directions), whitening=gram_inv_sqrt(w))


def _beam_directions(scenario: Scenario) -> dict:
    """Codebook pointing directions per device; the terminal's are reversed."""
    bs_dirs = scenario.anchor_beam_directions()
    return {"bs": bs_dirs, "ue": [reverse_direction(th, ph) for th, ph in bs_dirs]}


def _device_forms(scenario: Scenario, device: str, directions: dict, geo: dict):
    """(t_forms, r_forms) of one device ("bs" or "ue") at its link angles."""
    geom = getattr(scenario, f"{device}_array")
    end = "1" if device == "bs" else "2"
    return steering_forms(
        geom, _device_tables(geom, directions[device]),
        theta=geo[f"theta{end}"], phi=geo[f"phi{end}"],
    )


def _pose_tables(scenario: Scenario, positions: np.ndarray):
    """Link geometry and the (n, 5, 5) Jacobian of the positions."""
    zeta0, chi0 = scenario.orientation
    geo = _link_angles_batch(positions, rotation_matrix(zeta0, chi0))
    return geo, _jacobian_batch(geo, zeta0, chi0, scenario.signal.c)


def position_tables(
    scenario: Scenario, positions: np.ndarray | None = None
) -> PositionTables:
    """Evaluate the per-position FIM ingredients of a scenario."""
    if positions is None:
        positions = sample_positions(scenario.region, scenario.n_samples, scenario.seed)
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    geo, jac = _pose_tables(scenario, positions)
    dirs = _beam_directions(scenario)
    links = _link_tables(
        scenario, geo, {d: _device_forms(scenario, d, dirs, geo) for d in ("bs", "ue")}
    )
    return _with_factors(positions, jac, *links)


def _with_factors(positions, jac, snr, angle_efim, delay) -> PositionTables:
    # Called once the steering forms and channel FIMs are freed, so the
    # factors do not add to the peak memory.
    keys = ("bs_to_ue", "ue_to_bs", "clp")
    both = angle_efim["bs_to_ue"] + angle_efim["ue_to_bs"]
    factors = dict(zip(keys, efim_factors(jac, *(angle_efim[k] for k in keys[:2]), both)))
    return PositionTables(
        positions=positions, snr_db=snr, jacobian=jac,
        angle_efim=angle_efim, delay_info=delay, factors=factors,
    )


def _link_tables(scenario: Scenario, geo: dict, forms: dict):
    """SNR, angle EFIMs and delay information of both links, per position.

    ``forms`` maps "bs" and "ue" to that device's `steering_forms`.
    """
    lam = scenario.signal.wavelength
    t_bs, r_bs = forms["bs"]
    t_ue, r_ue = forms["ue"]

    beta = lam / (4.0 * np.pi * geo["r"])
    gamma = scenario.signal.gamma(
        scenario.bs_array.n_elements, scenario.ue_array.n_elements
    )
    # Uplink and downlink SNR coincide: the conjugated transmit codebook makes
    # each device's transmit and receive gain patterns identical, so t[0, 0]
    # is both. An SNR beyond the float range reads inf; its bounds are
    # flagged downstream.
    with np.errstate(over="ignore"):
        snr = 10.0 * np.log10(gamma * beta**2 * t_ue[:, 0, 0].real * t_bs[:, 0, 0].real)

    angle_efim = {}
    delay = {}
    for link, (t_tx, r_rx, direction) in {
        "bs_to_ue": (t_bs, r_ue, "forward"),
        "ue_to_bs": (t_ue, r_bs, "backward"),
    }.items():
        jm = fim_from_forms(t_tx, r_rx, gamma, beta, scenario.signal.weff2, direction)
        angle_efim[link] = eliminate_gain(jm)
        # A copy, not a view: a view would keep the whole (n, 7, 7) FIM alive.
        delay[link] = jm[:, 6, 6].copy()
    return snr, angle_efim, delay


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

    weight = delay_weight(
        protocol, tables.delay_info[fwd] * delay_scale, tables.delay_info[bwd] * delay_scale
    )
    factors = tables.factors["clp" if protocol == "clp" else bwd]
    peb, oeb, ok = invert_efim(tables.jacobian, factors, weight)
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

    Each count must be a perfect square: the swept side's array is resized
    to edge x edge, keeping its wavelength, spacing, plane and centre, and
    the other side keeps the scenario's array. A square array swept at its
    own count thus gives `run_cdf`'s 0.9 quantiles bit for bit. The
    positions, their link geometry and Jacobian, and the other side's
    steering forms are computed once and shared by every count, so rows are
    directly comparable across counts and only the swept device goes
    through the kernel per count.
    """
    if side not in ("bs", "ue"):
        raise ValueError(f"side must be 'bs' or 'ue', got {side!r}")
    edges = [round(math.sqrt(count)) for count in counts]
    for count, edge in zip(counts, edges):
        if edge * edge != count or count < 1:
            raise ValueError(f"antenna counts must be perfect squares, got {count!r}")
    positions = sample_positions(scenario.region, scenario.n_samples, scenario.seed)
    geo, jac = _pose_tables(scenario, positions)
    dirs = _beam_directions(scenario)
    other = "ue" if side == "bs" else "bs"
    fixed = _device_forms(scenario, other, dirs, geo)
    rows = []
    for count, edge in zip(counts, edges):
        arr = replace(getattr(scenario, f"{side}_array"), rows=edge, cols=edge)
        swept = replace(scenario, **{f"{side}_array": arr})
        links = _link_tables(
            swept, geo, {side: _device_forms(swept, side, dirs, geo), other: fixed}
        )
        tables = _with_factors(positions, jac, *links)
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
