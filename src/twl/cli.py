"""Command-line front end: config parsing, run dispatch, tabular output.

Config files are flat ``key = value`` text with units in the key names;
every key is optional and defaults to the desk-scale reference setup. The
effective configuration is echoed into the output metadata so a run can be
reproduced from its own output file.
"""

import argparse
import ast
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .beamforming import SingularBeamsError
from .scenario import (
    REFERENCE_CONFIG,
    Scenario,
    position_tables,
    protocol_bounds,
    run_cdf,
    sweep_antennas,
    sweep_bandwidth,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration entry."""


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # True is an int to Python


def _number(x) -> bool:
    return _integer(x) or isinstance(x, float)


def _positive(x) -> bool:
    return _number(x) and x > 0


def _count(x) -> bool:
    return _integer(x) and x >= 1


def _pair(x) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(_number(v) for v in x)


def _vec3(x) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 3 and all(_number(v) for v in x)


def _choices(*known):
    def check(x) -> bool:
        return (isinstance(x, (list, tuple)) and x and all(v in known for v in x)
                and len(set(x)) == len(x))
    return check


# key -> (validator, description)
_CONFIG_SPEC = {
    "carrier_hz": (_positive, "carrier frequency"),
    "bandwidth_hz": (_positive, "occupied bandwidth"),
    "n_symbols": (_count, "pilot symbols per beam"),
    "power_dbm": (_number, "transmit power"),
    "noise_dbm_hz": (_number, "noise PSD"),
    "weff2_over_w2": (_positive, "squared effective bandwidth factor"),
    "c_m_s": (_positive, "propagation speed"),
    "bs_rows": (_count, "anchor array rows"),
    "bs_cols": (_count, "anchor array columns"),
    "ue_rows": (_count, "terminal array rows"),
    "ue_cols": (_count, "terminal array columns"),
    "spacing_wavelengths": (_positive, "element pitch in wavelengths"),
    "n_beams": (_count, "beams per device (perfect square)"),
    "beam_grid": (lambda x: x in ("region", "sector"), "codebook layout"),
    "sector_azimuth_deg": (_pair, "served azimuth sector"),
    "sector_polar_deg": (_pair, "served polar sector"),
    "orientation_deg": (_pair, "terminal orientation angles"),
    "region_vertices_m": (
        lambda x: isinstance(x, (list, tuple)) and len(x) == 4 and all(_vec3(v) for v in x),
        "region quadrilateral",
    ),
    "n_positions": (_count, "sampled positions"),
    "seed": (lambda x: _integer(x) and 0 <= x < 2**64, "RNG seed"),
    "protocols": (_choices("owl", "rlp", "clp"), "distinct protocols to evaluate"),
    "initiators": (_choices("bs", "ue"), "distinct exchange initiators"),
    "point_m": (_vec3, "single evaluation position"),
    "bandwidths_hz": (
        lambda x: isinstance(x, (list, tuple)) and x and all(_positive(v) for v in x),
        "bandwidth sweep values",
    ),
    "antenna_counts": (
        lambda x: isinstance(x, (list, tuple)) and x and all(_count(v) for v in x),
        "antenna sweep values",
    ),
    "sweep_side": (lambda x: x in ("bs", "ue"), "swept device side"),
}

# The scenario keys default to the reference setup; the rest are run keys.
_DEFAULTS = {
    **REFERENCE_CONFIG,
    "point_m": [0.0, 25.0, -10.0],
    "bandwidths_hz": [10e6, 20e6, 40e6, 60e6, 80e6, 100e6, 125e6, 250e6, 500e6, 1e9],
    "antenna_counts": [36, 64, 100, 144, 196],
    "sweep_side": "bs",
}

_SCHEMAS = {
    "cdf": ("protocol", "initiator", "quantile", "peb_m", "oeb_deg",
            "snr_p10_db", "n_unidentifiable"),
    "sweep-bw": ("w_hz", "protocol", "initiator", "peb90_m"),
    "sweep-ant": ("side", "n_antennas", "protocol", "peb90_m"),
    "point": ("px", "py", "pz", "zeta_deg", "chi_deg", "protocol", "initiator",
              "snr_db", "peb_m", "oeb_deg"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: defaults overlaid with file entries."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def scenario(self) -> Scenario:
        try:
            return Scenario.from_config(self.values)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc


def parse_config(path: str | None, seed: int | None = None) -> RunConfig:
    """Read, validate, and default-fill a key-value config file.

    A ``seed`` other than None overrides the file's.
    """
    values = {key: _DEFAULTS[key] for key in _CONFIG_SPEC}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        for update in _parse_lines(text):
            values.update([update])
    if seed is not None:
        values["seed"] = seed
    _validate(values)
    return RunConfig(values=values)


def _parse_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _CONFIG_SPEC:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            value = ast.literal_eval(rhs)
        except (ValueError, SyntaxError):
            value = rhs  # bare string, e.g. sweep_side = bs
        if isinstance(value, tuple):
            value = list(value)
        yield key, value


def _validate(values: dict):
    for key, (check, description) in _CONFIG_SPEC.items():
        if not check(values[key]):
            raise ConfigError(
                f"invalid value for {key} ({description}): {values[key]!r}"
            )
    for key, counts in (("n_beams", [values["n_beams"]]),
                        ("antenna_counts", values["antenna_counts"])):
        for count in counts:
            if round(math.sqrt(count)) ** 2 != count:
                raise ConfigError(f"invalid value for {key}: {count!r} is not a square")
    for key in ("sector_azimuth_deg", "sector_polar_deg"):
        lo, hi = values[key]
        if hi < lo:
            raise ConfigError(f"invalid value for {key}: bounds reversed")
    bw = list(values["bandwidths_hz"])
    if bw != sorted(bw):
        raise ConfigError("invalid value for bandwidths_hz: must be ascending")


def _echo_lines(config: RunConfig):
    for key in _CONFIG_SPEC:
        yield f"{key} = {config.values[key]!r}"


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_csv(fh, subcommand: str, columns, rows, config: RunConfig):
    fh.write(f"## twl {__version__} {subcommand}\n")
    for line in _echo_lines(config):
        fh.write(f"# {line}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")


def _write_json(fh, subcommand: str, columns, rows, config: RunConfig):
    doc = {
        "metadata": {
            "tool_version": __version__,
            "subcommand": subcommand,
            "config": {k: config.values[k] for k in _CONFIG_SPEC},
        },
        "columns": list(columns),
        "rows": [[row[c] for c in columns] for row in rows],
    }
    json.dump(doc, fh, indent=1)
    fh.write("\n")


def _merge_protocol_label(protocol: str, initiator: str) -> str:
    if protocol == "clp":
        return "clp"
    return f"{protocol}-up" if initiator == "bs" else f"{protocol}-down"


def _rows_cdf(config: RunConfig):
    return run_cdf(config.scenario()).quantile_rows


def _rows_sweep_bw(config: RunConfig):
    return sweep_bandwidth(config.scenario(), config["bandwidths_hz"])


def _rows_sweep_ant(config: RunConfig):
    raw = sweep_antennas(
        config.scenario(), config["antenna_counts"], config["sweep_side"]
    )
    rows = []
    seen = set()
    for r in raw:
        label = _merge_protocol_label(r["protocol"], r["initiator"])
        key = (r["n_antennas"], label)
        if key in seen:
            continue  # clp is initiator-symmetric, keep one row
        seen.add(key)
        rows.append({
            "side": r["side"], "n_antennas": r["n_antennas"],
            "protocol": label, "peb90_m": r["peb90_m"],
        })
    return rows


def _rows_point(config: RunConfig):
    scenario = config.scenario()
    point = np.asarray(config["point_m"], dtype=float)
    if not scenario.region.contains(point[None, :])[0]:
        raise ConfigError(f"invalid value for point_m: {config['point_m']!r} "
                          "lies outside the region")
    if np.linalg.norm(point) == 0.0:
        raise ConfigError(f"invalid value for point_m: {config['point_m']!r} "
                          "lies on the anchor")
    tables = position_tables(scenario, positions=point[None, :])
    zeta_deg, chi_deg = (math.degrees(a) for a in scenario.orientation)
    rows = []
    for protocol in scenario.protocols:
        for initiator in scenario.initiators:
            samples = protocol_bounds(tables, protocol, initiator)
            rows.append({
                "px": point[0], "py": point[1], "pz": point[2],
                "zeta_deg": zeta_deg, "chi_deg": chi_deg,
                "protocol": protocol, "initiator": initiator,
                "snr_db": float(tables.snr_db[0]),
                "peb_m": float(samples.peb[0]),
                "oeb_deg": math.degrees(float(samples.oeb[0])),
            })
    return rows


_RUNNERS = {
    "cdf": _rows_cdf,
    "sweep-bw": _rows_sweep_bw,
    "sweep-ant": _rows_sweep_ant,
    "point": _rows_point,
}


def run(subcommand: str, config: RunConfig, out: str | None, fmt: str) -> int:
    """Execute a subcommand and write its table; returns the exit code.

    The code is `EXIT_NUMERICAL` when the table's PEB column holds no finite
    value: the pipeline writes inf wherever a bound is unusable.
    """
    rows = _RUNNERS[subcommand](config)
    columns = _SCHEMAS[subcommand]
    writer = _write_csv if fmt == "csv" else _write_json
    buffer = io.StringIO()
    writer(buffer, subcommand, columns, rows, config)
    if out is None:
        sys.stdout.write(buffer.getvalue())
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(buffer.getvalue())
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc
    peb = next(c for c in columns if c.startswith("peb"))
    return EXIT_OK if any(math.isfinite(row[peb]) for row in rows) else EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twl",
        description="Position/orientation error bounds for two-way mmWave localization",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("cdf", "quantiles of PEB/OEB over the sampled region"),
        ("sweep-bw", "PEB at the 0.9 quantile versus bandwidth"),
        ("sweep-ant", "PEB at the 0.9 quantile versus antenna count"),
        ("point", "bounds at a single position"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, seed=args.seed)
        return run(args.subcommand, config, args.out, args.format)
    except (ConfigError, SingularBeamsError) as exc:
        message = exc
    except MemoryError:
        # The results are the only arrays that grow with a run: n_positions sizes them.
        message = "not enough memory for the results of n_positions positions; lower n_positions"
    print(f"twl: error: {message}", file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
