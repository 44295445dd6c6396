"""Desk-scale simulation: region sampling, per-position bounds, CDFs, sweeps.

A scenario fixes the anchor and terminal arrays, the waveform constants, the
beam codebooks, and one terminal orientation case. Terminal positions are
sampled uniformly over a planar convex region, every position is evaluated
independently (position/orientation error bounds per protocol and initiator,
plus link SNR), and results are summarized as empirical quantiles.

Every subcommand streams its positions through one pipeline, `_stream`, in
chunks of 4096 (`_CHUNK`). The batch calls sample each chunk's positions
as it starts, from one generator seeded once per call, so they hold no
array of all n positions, yet see those of one `sample_positions` call bit
for bit. Each chunk runs the pose stage once: the link geometry and
Jacobian (`twl.pose`), then J⁻¹'s factors by blocks
(`twl.protocols.pose_grams`). Then, for each variant of the scenario, it
runs each device's beam-space forms (`twl.kernels`), each link's angle
EFIM and delay information from its two devices' forms, with no 7x7
channel FIM (`twl.fim.fim_from_forms`), and the factored form of each
distinct protocol EFIM from the pose's factors: a closed-form Cholesky
factor of each 2x2 angle-EFIM block per position, for each link and for
their sum (`twl.protocols.efim_factors`). Every per-position array but the
positions carries its matrix axes first and the positions last. The
callers run `protocol_bounds` on each chunk's tables and keep only what
they report: `run_cdf` the SNR and each pair's bounds, the sweeps each
cell's PEB. clp's bounds are the same under both initiators, bit for bit,
so each caller computes and keeps them once (`_shared_pairs`). No
position, Jacobian or angle EFIM outlives its chunk, so the memory a call
needs beyond its results does not grow with the number of positions.

Variants differ only in their arrays. `sweep_antennas` has one per
antenna count: it resizes the swept device's own array, keeping its
wavelength, spacing and plane, and per chunk only that device's
forms are recomputed per count. `sweep_bandwidth` has one variant, read at
one delay scale per bandwidth, all scales in one `protocol_bounds` call.
The codebook tables of each distinct array are built once per call.
`position_tables` runs the same pipeline as one chunk over the positions
it is given: the n-position view that `twl point` and the tests read.

The kernel keeps its own step inside each chunk, and the chunk is a
multiple of it, so the results equal those of an unchunked run bit for
bit. `protocol_bounds` picks the factors by key and computes only the
protocol's delay weight (`twl.protocols.invert_efim`). The single-pose
functions of those modules are n = 1 views of the same stage code:
`fim.channel_fim` runs the kernel at one direction per device, on tables
that `kernels.codebook_tables` builds as `_device_tables` does.

`REFERENCE_CONFIG` holds the reference setup once, in the CLI's config
units; `Scenario.from_config` converts it, or any validated config, to a
scenario.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .beamforming import (
    SignalConfig,
    SingularBeamsError,
    directional_beams,
    region_spot_grid,
    reverse_direction,
    sector_beam_grid,
    square_side,
)
from .fim import fim_from_forms
from .geometry import SPEED_OF_LIGHT, ArrayGeometry
from .kernels import DeviceTables, codebook_tables, steering_forms
from .pose import _jacobian_batch, _link_angles_batch, rotation_matrix
from .protocols import PROTOCOLS, delay_weight, efim_factors, invert_efim, pose_grams

QUANTILES = (0.1, 0.5, 0.9)
INITIATORS = ("bs", "ue")
# Transmission links, anchor to terminal first.
_LINKS = ("bs_to_ue", "ue_to_bs")
# Positions per chunk of the position pipeline; a multiple of the kernel's
# step. Timed as `kernels._CHUNK` is, best/median 0.36/0.46 s at 2048,
# 0.34/0.41 s at 4096 and 0.39/0.46 s at 8192, with tracemalloc peaks of
# 17, 21 and 30 MB; 2048 cut the CLI's peak RSS by 4-5 MB but slowed a
# `twl sweep-ant` call at 10^4 positions from 0.17 to 0.19-0.21 s.
_CHUNK = 4096
# Boundary slack of `Region.contains` (height in m, edge cross products in m²).
_CONTAINS_TOL = 1e-9


#: The only table of defaults: the reference desk-scale setup and the CLI's run
#: keys, in config units. `Scenario.reference_defaults`, `Region()` and the CLI read it.
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
    "point_m": [0.0, 25.0, -10.0],
    "bandwidths_hz": [10e6, 20e6, 40e6, 60e6, 80e6, 100e6, 125e6, 250e6, 500e6, 1e9],
    "antenna_counts": [36, 64, 100, 144, 196],
    "sweep_side": "bs",
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
    _anchor_directions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples!r}")
        if self.beam_grid not in ("region", "sector"):
            raise ValueError(f"beam_grid must be 'region' or 'sector', got {self.beam_grid!r}")
        for name, chosen, known in (("protocols", self.protocols, PROTOCOLS),
                                    ("initiators", self.initiators, INITIATORS)):
            if not set(chosen) <= set(known) or len(set(chosen)) != len(chosen):
                raise ValueError(f"{name} must be distinct entries of {known}, got {chosen!r}")
        lam = self.signal.wavelength
        for side, array in (("bs", self.bs_array), ("ue", self.ue_array)):
            if abs(array.wavelength - lam) > 1e-12 * lam:
                raise ValueError(f"{side}_array wavelength differs from the signal's {lam!r} m")
            if self.n_beams > 2 * array.n_elements:  # W's real stack has 2N rows (`gram_inv_sqrt`)
                raise SingularBeamsError(
                    f"n_beams: {self.n_beams} beams exceed twice the {array.n_elements} elements "
                    f"of {side}_array: a singular Gram matrix")
        # Built here, so that a grid that cannot be built, such as a region
        # spot on the anchor, fails with the scenario, not in a run.
        if self.beam_grid == "region":
            grid = region_spot_grid(self.region.vertices, self.n_beams)
        else:
            grid = sector_beam_grid(self.n_beams, self.sector_azimuth, self.sector_polar)
        object.__setattr__(self, "_anchor_directions", tuple(grid))

    def anchor_beam_directions(self) -> list:
        """Anchor codebook pointing directions for the configured grid.

        "region" aims one beam at each cell center of a grid over the service
        region; "sector" spreads beams over the configured angular rectangle.
        The terminal codebook is always the reversed set, held fixed in its
        local frame.
        """
        return list(self._anchor_directions)

    @classmethod
    def from_config(cls, values: dict) -> "Scenario":
        """Scenario from config values in config units (see REFERENCE_CONFIG)."""
        v = values
        # SignalConfig's fields in SI units, each of the link budget converted under its key
        si = {"carrier": float(v["carrier_hz"]), "c": float(v["c_m_s"])}
        for field, key, convert in (
            ("bandwidth", "bandwidth_hz", float),
            ("et", "power_dbm", lambda p: 10.0 ** (p / 10.0) * 1e-3 * (1.0 / si["bandwidth"])),
            ("n0", "noise_dbm_hz", lambda n: 10.0 ** (n / 10.0) * 1e-3),
            ("weff2", "bandwidth_hz", lambda w: float(v["weff2_over_w2"]) * float(w) ** 2),
        ):
            try:
                si[field] = convert(v[key])
            except OverflowError as exc:
                raise ValueError(f"{key}: {exc}") from exc
            if not si[field] > 0:  # such as a level in dB whose watts underflow to 0
                raise ValueError(f"{key}: {field} must be positive, got {si[field]!r}")
        signal = SignalConfig(ns=v["n_symbols"], **si)
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
        ``signal`` of another wavelength needs arrays of it, or this raises.
        """
        return replace(cls.from_config(REFERENCE_CONFIG), **overrides)


def sample_positions(region: Region, n: int, seed) -> np.ndarray:
    """Uniform positions over the region; deterministic for a fixed seed.

    The quadrilateral is split into two triangles sampled with area weights
    and square-root barycentric coordinates. ``seed`` may also be a
    `numpy.random.Generator`, which the call continues: k rows, then n - k
    rows from one generator equal the n rows of one call, bit for bit.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 positions, got {n!r}")
    tri_a, tri_b = region.triangles()

    def area(t):  # the vertices share one height, so a planar cross product
        (x0, y0), (x1, y1), (x2, y2) = t[:, :2]
        return 0.5 * abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))

    w_a = area(tri_a) / (area(tri_a) + area(tri_b))
    rng = np.random.default_rng(seed)
    u = rng.random((n, 3))
    r1 = np.sqrt(u[:, 1])[:, None]
    r2 = u[:, 2][:, None]

    def warp(t):
        return (1.0 - r1) * t[0] + r1 * (1.0 - r2) * t[1] + r1 * r2 * t[2]

    return np.where(u[:, 0][:, None] < w_a, warp(tri_a), warp(tri_b))


def percentile(values, q):
    """Order-statistic quantile with linear interpolation.

    With n values, the quantile sits at fractional rank (n - 1) * q between
    adjacent order statistics. Unidentifiable positions carry +inf bounds,
    so they sort last. A sequence of quantiles gives a list of them, read
    from one sort.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take a percentile of no values")
    qs = np.atleast_1d(q).tolist()
    if not all(0.0 <= x <= 1.0 for x in qs):
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    v = np.sort(values)
    out = []
    for x in qs:
        h = (v.size - 1) * x
        lo = int(math.floor(h))
        t = h - lo
        # t > 0 leaves lo + 1 in range. Sorted ascending, a non-finite upper
        # neighbor is +inf, and any interpolation weight toward it is unbounded.
        if t == 0.0:
            out.append(float(v[lo]))
        elif not np.isfinite(v[lo + 1]):
            out.append(float(v[lo + 1]))
        else:
            out.append(float(v[lo] + t * (v[lo + 1] - v[lo])))
    return out if np.ndim(q) else out[0]


@dataclass(frozen=True)
class PositionTables:
    """Per-position ingredients shared by all protocols and sweeps.

    ``delay_info`` is keyed by transmission link ("bs_to_ue", "ue_to_bs")
    in the anchor-first parameter ordering. ``factors`` holds the
    `EfimFactors`, with its angle EFIM, of each distinct protocol: one
    link's, keyed by that link (owl and rlp), and the sum of both, keyed
    "clp".
    """

    positions: np.ndarray  # (n, 3)
    snr_db: np.ndarray
    jacobian: np.ndarray  # (5, 5, n)
    delay_info: dict
    factors: dict

    @property
    def angle_efim(self) -> dict:
        """Each link's angle EFIM blocks, (2, 2, 2, n): its factors' ``angle``, not a copy."""
        return {link: self.factors[link].angle for link in _LINKS}


@dataclass(frozen=True)
class BoundSamples:
    """Per-position bounds of one (protocol, initiator) pair, inf where unidentifiable."""

    peb: np.ndarray  # meters
    oeb: np.ndarray  # radians


@dataclass(frozen=True)
class CdfResult:
    """Per-position bounds plus the empirical quantile table."""

    bounds: dict  # (protocol, initiator) -> BoundSamples
    quantile_rows: list  # dicts matching the cdf output schema


def _device_tables(geom: ArrayGeometry, directions) -> DeviceTables:
    # The kernel takes W as per-axis factors; the full codebooks are built
    # for their checks: the transmit one (conj(W)) for the unit transmit
    # power, the receive one for a duplicate direction, and Γ^(-1/2).
    directional_beams(geom, directions, role="transmit")
    return codebook_tables(geom, directional_beams(geom, directions, role="receive"))


def _beam_directions(scenario: Scenario) -> dict:
    """Codebook pointing directions per device; the terminal's are reversed."""
    bs_dirs = scenario.anchor_beam_directions()
    return {"bs": bs_dirs, "ue": [reverse_direction(th, ph) for th, ph in bs_dirs]}


def position_tables(
    scenario: Scenario, positions: np.ndarray | None = None
) -> PositionTables:
    """The per-position FIM ingredients of a scenario, as one chunk."""
    if positions is None:
        positions = sample_positions(scenario.region, scenario.n_samples, scenario.seed)
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    ((_, _, tables),) = _stream([scenario], positions, chunk=positions.shape[0])
    return tables


def _stream(variants, positions=None, chunk=None):
    """Yield (rows, k, `PositionTables` of those rows) per chunk and variant k.

    Variants are scenarios that differ only in their arrays. Without
    ``positions``, each chunk's positions are sampled as the chunk starts,
    from one generator seeded with the first variant's seed, so the n
    positions equal `sample_positions` of all n and no array of them is
    built. Each chunk runs the pose stage once, then for each variant
    recomputes a device's forms only when its array differs from the
    previous variant's. Each distinct array's codebook tables are built once
    per call. Callers drop a chunk's tables before asking for the next ones,
    so that one chunk is alive at a time.
    """
    first = variants[0]
    dirs = _beam_directions(first)
    distinct = dict.fromkeys((d, getattr(v, f"{d}_array")) for v in variants for d in dirs)
    codebooks = {(d, array): _device_tables(array, dirs[d]) for d, array in distinct}
    rot = rotation_matrix(*first.orientation)
    if positions is None:
        n, rng = first.n_samples, np.random.default_rng(first.seed)
    else:
        n = positions.shape[0]
    chunk = chunk or _CHUNK
    forms = {}
    for lo in range(0, n, chunk):
        rows = slice(lo, min(lo + chunk, n))
        grams = None  # the last chunk's, released before this chunk is built
        if positions is None:
            points = sample_positions(first.region, rows.stop - lo, rng)
        else:
            points = positions[rows]
        geo = _link_angles_batch(points, rot)
        jac = _jacobian_batch(geo, first.signal.c)
        for k, variant in enumerate(variants):
            for device, end in (("bs", "1"), ("ue", "2")):
                array = getattr(variant, f"{device}_array")
                if k and array == getattr(variants[k - 1], f"{device}_array"):
                    continue
                forms.pop(device, None)  # free the stale forms before the kernel runs
                forms[device] = steering_forms(
                    array, codebooks[device, array],
                    theta=geo[f"theta{end}"], phi=geo[f"phi{end}"],
                )
            if grams is None:  # after the first forms: the kernel's peak lacks them
                grams = pose_grams(jac)
            yield rows, k, _link_tables(variant, points, geo, jac, grams, forms)


def _link_tables(scenario: Scenario, positions, geo: dict, jac, grams, forms: dict):
    """`PositionTables` of one chunk of positions under one scenario.

    ``grams`` are the `pose_grams` of ``jac``; ``forms`` maps "bs" and "ue"
    to that device's `steering_forms`. Each link's angle EFIM and delay
    information come from its two devices' forms (`fim.fim_from_forms`),
    keyed by link in `_LINKS` order.
    """
    (t_bs, r_bs), (t_ue, r_ue) = forms["bs"], forms["ue"]
    beta = scenario.signal.wavelength / (4.0 * np.pi * geo["r"])
    gamma = scenario.signal.gamma(
        scenario.bs_array.n_elements, scenario.ue_array.n_elements
    )
    # Uplink and downlink SNR coincide: the conjugated transmit codebook makes
    # each device's transmit and receive gain patterns identical, so t[0, 0]
    # is both. An SNR beyond the float range reads inf and a dark link's
    # -inf; their bounds read inf downstream.
    with np.errstate(over="ignore", divide="ignore"):
        snr = 10.0 * np.log10(gamma * beta**2 * t_ue[0, 0] * t_bs[0, 0])

    weff2 = scenario.signal.weff2
    down, w_down = fim_from_forms(t_bs, r_ue, gamma, beta, weff2, "forward")
    up, w_up = fim_from_forms(t_ue, r_bs, gamma, beta, weff2, "backward")
    angle = {"bs_to_ue": down, "ue_to_bs": up, "clp": down + up}
    return PositionTables(
        positions=positions, snr_db=snr, jacobian=jac,
        delay_info={"bs_to_ue": w_down, "ue_to_bs": w_up},
        factors={key: efim_factors(grams, a) for key, a in angle.items()},
    )


def protocol_bounds(
    tables: PositionTables, protocol: str, initiator: str, delay_scale=1.0
) -> BoundSamples:
    """Per-position bounds of one protocol/initiator from shared tables.

    ``delay_scale`` rescales the delay information of both directions, which
    is how a bandwidth change enters at fixed transmit energy and beams. A
    scalar gives bounds of shape (n,), an array of s scales (s, n).
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if initiator not in INITIATORS:
        raise ValueError(f"initiator must be one of {INITIATORS}, got {initiator!r}")
    bwd = "ue_to_bs" if initiator == "bs" else "bs_to_ue"
    fwd = "bs_to_ue" if initiator == "bs" else "ue_to_bs"

    scale = np.asarray(delay_scale, dtype=np.float64)[..., None]
    weight = delay_weight(protocol, tables.delay_info[fwd] * scale, tables.delay_info[bwd] * scale)
    factors = tables.factors["clp" if protocol == "clp" else bwd]
    return BoundSamples(*invert_efim(weight, tables.jacobian, factors))


def _shared_pairs(scenario: Scenario) -> dict:
    """Each requested (protocol, initiator) pair, keyed to the pair whose bounds it reads.

    clp's delay weight 4/(1/J_f + 1/J_b) is symmetric in its two links, and
    its angle factors are keyed "clp" for either initiator, so
    `protocol_bounds` gives clp the same bounds, bit for bit, under both
    initiators: every clp pair reads the first initiator's.
    """
    return {(p, i): ("clp", scenario.initiators[0]) if p == "clp" else (p, i)
            for p in scenario.protocols for i in scenario.initiators}


def run_cdf(scenario: Scenario) -> CdfResult:
    """Sample the region and evaluate every requested protocol/initiator.

    Streams the positions: only the SNR and each distinct pair's bounds are
    kept, and both clp pairs hold one `BoundSamples`. A pair's
    unidentifiable positions are counted per chunk as its infinite PEBs.
    """
    n = scenario.n_samples
    snr = np.empty(n)
    shared = _shared_pairs(scenario)
    kept = {pair: BoundSamples(np.empty(n), np.empty(n))
            for pair in dict.fromkeys(shared.values())}
    unidentifiable = dict.fromkeys(kept, 0)
    for rows, _, tables in _stream([scenario]):
        snr[rows] = tables.snr_db
        for pair, samples in kept.items():
            b = protocol_bounds(tables, *pair)
            samples.peb[rows], samples.oeb[rows] = b.peb, b.oeb
            unidentifiable[pair] += int(np.count_nonzero(np.isinf(b.peb)))
        del tables  # so that the next chunk's tables are the only ones alive
    snr_p10 = percentile(snr, 0.1)
    summaries = {pair: (unidentifiable[pair], percentile(s.peb, QUANTILES),
                        percentile(s.oeb, QUANTILES)) for pair, s in kept.items()}
    rows = []
    for (protocol, initiator), source in shared.items():
        flagged, pebs, oebs = summaries[source]
        for q, peb, oeb in zip(QUANTILES, pebs, oebs):
            rows.append({
                "protocol": protocol,
                "initiator": initiator,
                "quantile": q,
                "peb_m": peb,
                "oeb_deg": math.degrees(oeb),
                "snr_p10_db": snr_p10,
                "n_unidentifiable": flagged,
            })
    bounds = {pair: kept[source] for pair, source in shared.items()}
    return CdfResult(bounds=bounds, quantile_rows=rows)


def _peb90(scenario: Scenario, variants, scales) -> dict:
    """PEB at the 0.9 quantile per (variant, scale, protocol, initiator) index.

    Streams the scenario's positions under each variant and reads each
    chunk at all delay scales in one `protocol_bounds` call per distinct
    pair (both clp pairs read one); only each cell's PEB is kept, which
    `invert_efim` sets to inf wherever a position is unidentifiable.
    """
    scales = np.asarray(scales, dtype=np.float64)
    shared = _shared_pairs(scenario)
    distinct = list(dict.fromkeys(shared.values()))
    pebs = {(k, *pair): np.empty((scales.size, scenario.n_samples))
            for k in range(len(variants)) for pair in distinct}
    for rows, k, tables in _stream(variants):
        for pair in distinct:
            pebs[(k, *pair)][:, rows] = protocol_bounds(tables, *pair, delay_scale=scales).peb
        del tables  # so that the next chunk's tables are the only ones alive
    peb90 = {(k, j, *pair): percentile(peb[j], 0.9)
             for (k, *pair), peb in pebs.items() for j in range(scales.size)}
    return {(k, j, *pair): peb90[(k, j, *source)]
            for k in range(len(variants)) for j in range(scales.size)
            for pair, source in shared.items()}


def delay_scales(scenario: Scenario, bandwidths) -> list:
    """The delay scale (w / W)² of each of the positive, ascending bandwidths w."""
    if any(w <= 0 for w in bandwidths) or list(bandwidths) != sorted(bandwidths):
        raise ValueError("bandwidths must be positive and ascending")
    return [(w / scenario.signal.bandwidth) ** 2 for w in bandwidths]


def sweep_bandwidth(scenario: Scenario, bandwidths) -> list:
    """PEB at the 0.9 quantile versus bandwidth, fixed positions and energy.

    Only the effective-bandwidth factor of the delay information varies
    across rows; transmit energy, beams, and sampled positions stay fixed.
    Each bandwidth is a delay scale of the one position stream.
    """
    peb90 = _peb90(scenario, [scenario], delay_scales(scenario, bandwidths))
    return [
        {"w_hz": w, "protocol": protocol, "initiator": initiator,
         "peb90_m": peb90[0, j, protocol, initiator]}
        for j, w in enumerate(map(float, bandwidths))
        for protocol in scenario.protocols for initiator in scenario.initiators
    ]


def sweep_antennas(scenario: Scenario, counts, side: str) -> list:
    """PEB at the 0.9 quantile versus one side's antenna count.

    Each count must be a perfect square: the swept side's array is resized
    to edge x edge, keeping its wavelength, spacing and plane, and the
    other side keeps the scenario's array. A square array swept at its
    own count thus gives `run_cdf`'s 0.9 quantiles bit for bit. Each count
    is a variant of the one position stream, so every count sees the same
    positions, and per chunk the pose stage and the other side's forms run
    once for all counts.
    """
    if side not in ("bs", "ue"):
        raise ValueError(f"side must be 'bs' or 'ue', got {side!r}")
    own = getattr(scenario, f"{side}_array")
    edges = [square_side(count, "antenna counts must be perfect squares") for count in counts]
    variants = [replace(scenario, **{f"{side}_array": replace(own, rows=edge, cols=edge)})
                for edge in edges]
    peb90 = _peb90(scenario, variants, [1.0])
    return [
        {"side": side, "n_antennas": int(count), "protocol": protocol,
         "initiator": initiator, "peb90_m": peb90[k, 0, protocol, initiator]}
        for k, count in enumerate(counts)
        for protocol in scenario.protocols for initiator in scenario.initiators
    ]
