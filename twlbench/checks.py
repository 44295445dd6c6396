"""Property checks on the tables `twl` writes with ``--format json``.

Every check tests a law the bounds must obey or agreement with a second code
path; none compares against a stored copy of earlier output. A failed check
raises CheckFailed with a message naming the rows involved.
"""

import math

#: Columns of each subcommand's table, as the CLI documents them.
SCHEMAS = {
    "cdf": ["protocol", "initiator", "quantile", "peb_m", "oeb_deg",
            "snr_p10_db", "n_unidentifiable"],
    "sweep-bw": ["w_hz", "protocol", "initiator", "peb90_m"],
    "sweep-ant": ["side", "n_antennas", "protocol", "peb90_m"],
    "point": ["px", "py", "pz", "zeta_deg", "chi_deg", "protocol", "initiator",
              "snr_db", "peb_m", "oeb_deg"],
}

#: Relative slack for inequalities between bounds that come out of separate
#: 5x5 inversions, each accurate to about 1e-12 relative at the condition
#: numbers (up to 2e4) of the default region.
REL_TOL = 1e-9

#: Agreement required between the point table and the single-pose path, in
#: units of eps * cond(EFIM): the two paths sum the beam-space forms in
#: different orders, and the 5x5 inversion amplifies that rounding by the
#: condition number. Over 6840 seeded comparisons the worst ratio was 1.3
#: (a relative 2.2e-12), the median relative gap 6e-15.
SINGLE_POSE_EPS_COND = 16.0
_EPS = 2.0 ** -52


class CheckFailed(AssertionError):
    """An output table broke a property the method guarantees."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def table_rows(doc: dict, subcommand: str, n_rows: int) -> list:
    """Validate schema and row count; return the rows as dicts."""
    _require(doc.get("metadata", {}).get("subcommand") == subcommand,
             f"metadata names {doc.get('metadata', {}).get('subcommand')!r}, "
             f"expected {subcommand!r}")
    _require(doc.get("columns") == SCHEMAS[subcommand],
             f"{subcommand}: columns {doc.get('columns')!r} differ from the schema")
    rows = doc.get("rows", [])
    _require(len(rows) == n_rows, f"{subcommand}: {len(rows)} rows, expected {n_rows}")
    return [dict(zip(doc["columns"], row)) for row in rows]


def finite_positive(rows: list, keys) -> None:
    """Every listed bound is a finite number above zero."""
    for i, row in enumerate(rows):
        for key in keys:
            value = row[key]
            _require(isinstance(value, (int, float)) and math.isfinite(value) and value > 0,
                     f"row {i}: {key} = {value!r} is not finite and positive")


def _not_above(low: float, high: float, what: str) -> None:
    _require(low <= high * (1.0 + REL_TOL), f"{what}: {low!r} > {high!r}")


def check_cdf(rows: list) -> None:
    """cdf quantile table: identifiable, monotone in q, clp <= rlp."""
    finite_positive(rows, ("peb_m", "oeb_deg"))
    table = {}
    for row in rows:
        _require(row["n_unidentifiable"] == 0,
                 f"{row['protocol']}/{row['initiator']}: "
                 f"{row['n_unidentifiable']} unidentifiable positions")
        table[(row["protocol"], row["initiator"], row["quantile"])] = row
    quantiles = sorted({row["quantile"] for row in rows})
    for protocol, initiator in {(r["protocol"], r["initiator"]) for r in rows}:
        for key in ("peb_m", "oeb_deg"):
            series = [table[(protocol, initiator, q)][key] for q in quantiles]
            _require(all(a <= b for a, b in zip(series, series[1:])),
                     f"{protocol}/{initiator} {key} decreases over quantiles "
                     f"{quantiles}: {series}")
        if protocol != "clp":
            continue
        for q in quantiles:
            for key in ("peb_m", "oeb_deg"):
                _not_above(table[("clp", initiator, q)][key],
                           table[("rlp", initiator, q)][key],
                           f"clp above rlp ({initiator}, q={q}, {key})")


def check_sweep_bw(rows: list) -> None:
    """peb90 does not rise with bandwidth: EFIM(s) = S + s*J_tau*d d^T grows with s."""
    finite_positive(rows, ("peb90_m",))
    series = {}
    for row in rows:
        series.setdefault((row["protocol"], row["initiator"]), []).append(
            (row["w_hz"], row["peb90_m"]))
    for (protocol, initiator), points in series.items():
        points.sort()
        for (w0, p0), (w1, p1) in zip(points, points[1:]):
            _not_above(p1, p0, f"{protocol}/{initiator} peb90_m rises from "
                               f"{w0:g} Hz to {w1:g} Hz")


def check_sweep_ant(rows: list) -> None:
    """Every antenna count: clp at or below both rlp rows."""
    finite_positive(rows, ("peb90_m",))
    table = {(row["n_antennas"], row["protocol"]): row["peb90_m"] for row in rows}
    for count in sorted({row["n_antennas"] for row in rows}):
        for label in ("rlp-up", "rlp-down"):
            _not_above(table[(count, "clp")], table[(count, label)],
                       f"clp above {label} at {count} antennas")


def check_sweep_ant_matches_bw(ant_rows: list, bw_rows: list, count: int, w_hz: float):
    """The reference-array rows of sweep-ant equal the reference-bandwidth rows
    of sweep-bw: both evaluate the same scenario on the same positions."""
    bw = {(r["protocol"], r["initiator"]): r["peb90_m"]
          for r in bw_rows if r["w_hz"] == w_hz}
    expected = {"owl-up": bw[("owl", "bs")], "owl-down": bw[("owl", "ue")],
                "rlp-up": bw[("rlp", "bs")], "rlp-down": bw[("rlp", "ue")],
                "clp": bw[("clp", "bs")]}
    got = {r["protocol"]: r["peb90_m"] for r in ant_rows if r["n_antennas"] == count}
    _require(got == expected,
             f"sweep-ant at {count} antennas {got} differs from sweep-bw at "
             f"{w_hz:g} Hz {expected}")


def check_point(rows: list) -> None:
    """Single position: one SNR for every row, clp at or below rlp."""
    finite_positive(rows, ("peb_m", "oeb_deg"))
    snrs = {row["snr_db"] for row in rows}
    _require(len(snrs) == 1, f"rows disagree on snr_db: {sorted(snrs)}")
    table = {(row["protocol"], row["initiator"]): row for row in rows}
    for initiator in {row["initiator"] for row in rows}:
        for key in ("peb_m", "oeb_deg"):
            _not_above(table[("clp", initiator)][key], table[("rlp", initiator)][key],
                       f"clp above rlp ({initiator}, {key})")


def check_point_matches(rows: list, reference: dict) -> None:
    """Rows agree with another path's (peb_m, oeb_deg, EFIM condition number)
    per (protocol, initiator)."""
    for row in rows:
        *want, condition = reference[(row["protocol"], row["initiator"])]
        tol = SINGLE_POSE_EPS_COND * _EPS * condition
        for key, value in zip(("peb_m", "oeb_deg"), want):
            got = row[key]
            _require(abs(got - value) <= tol * abs(value),
                     f"{row['protocol']}/{row['initiator']} {key}: table {got!r}, "
                     f"single-pose path {value!r} (allowed relative gap {tol:.2g})")


def check_power_scaling(base_rows: list, boosted_rows: list) -> None:
    """PEB and OEB scale as power^-1/2: four times the power halves them exactly."""
    for base, boosted in zip(base_rows, boosted_rows):
        for key in ("peb_m", "oeb_deg"):
            _require(2.0 * boosted[key] == base[key],
                     f"{base['protocol']}/{base['initiator']} {key}: "
                     f"{boosted[key]!r} at 4x power is not half of {base[key]!r}")
