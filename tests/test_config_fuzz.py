"""Every config the CLI accepts ends in rows or a documented exit code.

Configs are drawn key by key from `cli._CONFIG_SPEC` (any subset of keys
overridden, the rest at their defaults) with at most 50 positions, and run
through `cli.main` for every subcommand. A run must return 0 with rows
(`inf` allowed), 2 with a `twl: error:` message, or 3 with `inf` rows; an
exception, numpy's `RuntimeWarning`s included, fails the test. A boolean,
which Python counts as an integer, must exit 2 wherever a number is
expected. The position pipeline's chunk is set to 7 positions, so most
runs cross chunk boundaries, and the singular and overflowing cases meet
them per chunk.
`point_m` is drawn as the off-nadir default [0, 25, -10] alone: at the
anchor's nadir, [0, 0, -10], the anchor-frame link angles are degenerate
and `point` still ends in a traceback, which only a change of the angle
coordinates can mend. One `@example` puts `point_m` on the anchor itself,
a config error. Two put the link on the terminal's own z-axis, where its
angles are degenerate too but only its bounds are lost: the default point
under a tilt that turns the terminal's z-axis to the anchor, which leaves
sinθ₂ at 3e-17, and a point where it is exactly 0. Both end in `inf` rows
and exit 3.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twl.scenario
from twl.cli import _CONFIG_SPEC, main
from twl.geometry import SPEED_OF_LIGHT


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _sorted_pair(lo, hi):
    return st.lists(_floats(lo, hi), min_size=2, max_size=2).map(sorted)


@st.composite
def _regions(draw):
    """The default diamond, scaled, rotated and moved, at some height."""
    scale = draw(_floats(0.02, 3.0))
    turn = draw(_floats(-math.pi, math.pi))
    dx, dy = draw(_floats(-40.0, 40.0)), draw(_floats(-40.0, 40.0))
    z = draw(st.one_of(st.just(0.0), _floats(-40.0, 10.0)))
    diamond = [(0.0, 0.0), (25.0 * math.sqrt(3.0), 25.0), (0.0, 50.0),
               (-25.0 * math.sqrt(3.0), 25.0)]
    c, s = math.cos(turn), math.sin(turn)
    return [[scale * (c * x - s * y) + dx, scale * (s * x + c * y) + dy, z]
            for x, y in diamond]


_squares = st.integers(1, 6).map(lambda k: k * k)
_sides = st.integers(1, 16)

#: a value strategy for every config key
VALUES = {
    "carrier_hz": st.one_of(st.just(38e9), _floats(1e8, 1e12)),
    "bandwidth_hz": st.one_of(st.just(125e6), _floats(1e5, 1e10)),
    "n_symbols": st.integers(1, 1024),
    "power_dbm": _floats(-100.0, 100.0),
    "noise_dbm_hz": _floats(-220.0, -120.0),
    "weff2_over_w2": _floats(1e-3, 1.0),
    "c_m_s": st.one_of(st.just(SPEED_OF_LIGHT), _floats(1e3, 1e9)),
    "bs_rows": _sides,
    "bs_cols": _sides,
    "ue_rows": _sides,
    "ue_cols": _sides,
    "spacing_wavelengths": _floats(0.05, 4.0),
    "n_beams": _squares,
    "beam_grid": st.sampled_from(["region", "sector"]),
    "sector_azimuth_deg": _sorted_pair(-360.0, 360.0),
    "sector_polar_deg": _sorted_pair(0.0, 180.0),
    "orientation_deg": st.lists(_floats(-180.0, 180.0), min_size=2, max_size=2),
    "region_vertices_m": _regions(),
    "n_positions": st.integers(1, 50),
    "seed": st.integers(0, 2**64 - 1),
    "protocols": st.lists(st.sampled_from(["owl", "rlp", "clp"]), min_size=1,
                          max_size=3, unique=True),
    "initiators": st.lists(st.sampled_from(["bs", "ue"]), min_size=1, max_size=2,
                           unique=True),
    "point_m": st.just([0.0, 25.0, -10.0]),
    "bandwidths_hz": st.lists(_floats(1e5, 1e10), min_size=1, max_size=4).map(sorted),
    "antenna_counts": st.lists(_sides.map(lambda k: k * k), min_size=1, max_size=3),
    "sweep_side": st.sampled_from(["bs", "ue"]),
}

#: any subset of the keys, with at most 50 positions
configs = st.fixed_dictionaries(
    {"n_positions": st.integers(1, 50)},
    optional={k: v for k, v in VALUES.items() if k != "n_positions"},
)

fuzz = settings(max_examples=20, deadline=None, derandomize=True)

NON_SQUARE = [
    {"n_positions": 30, "bs_rows": 1, "bs_cols": 12, "n_beams": 4},
    {"n_positions": 30, "ue_rows": 3, "ue_cols": 7, "bs_rows": 5, "bs_cols": 9,
     "n_beams": 9},
]

#: a region spot on the anchor, and the anchor as the point
ON_THE_ANCHOR = [
    {"n_positions": 20, "n_beams": 1,
     "region_vertices_m": [[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0],
                           [-1.0, 1.0, 0.0]]},
    {"n_positions": 20, "beam_grid": "sector", "point_m": [0.0, 0.0, 0.0],
     "region_vertices_m": [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 2.0, 0.0],
                           [0.0, 2.0, 0.0]]},
]

#: exactly singular angle EFIMs in every chunk (a zero pivot in the
#: closed-form 2x2 Cholesky factor that `protocols.efim_factors` takes of
#: each angle-EFIM block, elementwise over the positions), a link
#: budget past the float range, and a subnormal smallest EFIM eigenvalue
SINGULAR = [
    {"n_positions": 20, "n_beams": 1, "bs_rows": 1, "bs_cols": 1},
    {"n_positions": 20, "n_beams": 1, "ue_rows": 1, "ue_cols": 12},
    {"n_positions": 20, "power_dbm": 3000.0},
    {"n_positions": 20, "ue_rows": 1, "n_beams": 1,
     "orientation_deg": [-9.745956736650328, -9.224055508374545e-138]},
]


#: the link along the terminal's z-axis: to rounding, and exactly
_EXACT_POLE_Z = -6.123233995736766e-16  # -10·cos(90°): q = (0, 0, 1) at [0, 10, z]
TERMINAL_POLE = [
    {"n_positions": 20, "orientation_deg": [0.0, 68.19859051364818]},
    {"n_positions": 20, "orientation_deg": [0.0, 90.0], "beam_grid": "sector",
     "point_m": [0.0, 10.0, _EXACT_POLE_Z],
     "region_vertices_m": [[-5.0, 5.0, _EXACT_POLE_Z], [5.0, 5.0, _EXACT_POLE_Z],
                           [5.0, 15.0, _EXACT_POLE_Z], [-5.0, 15.0, _EXACT_POLE_Z]]},
]


def test_every_key_has_a_strategy():
    assert set(VALUES) == set(_CONFIG_SPEC)


def _run(tmp_path, subcommand, config):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in config.items()))
    out = tmp_path / "fuzz.csv"
    out.unlink(missing_ok=True)
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2, 3), code
    if any(isinstance(v, bool) for v in config.values()):
        assert code == 2
    if code == 2:
        assert not out.exists()
        return
    rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert len(rows) > 1


@pytest.mark.parametrize("subcommand", ["cdf", "sweep-bw", "sweep-ant", "point"])
@fuzz
@given(config=configs)
@example(config=ON_THE_ANCHOR[0])
@example(config=ON_THE_ANCHOR[1])
@example(config=NON_SQUARE[0])
@example(config=NON_SQUARE[1])
@example(config=SINGULAR[0])
@example(config=SINGULAR[1])
@example(config=SINGULAR[2])
@example(config=SINGULAR[3])
@example(config=TERMINAL_POLE[0])
@example(config=TERMINAL_POLE[1])
@example(config={"n_positions": True})
@example(config={"n_beams": True})
def test_batch_subcommands_end_in_rows_or_an_exit_code(tmp_path_factory, subcommand, config):
    # patched here, not by a fixture: hypothesis runs every example in one
    # call of a function-scoped fixture
    with mock.patch.object(twl.scenario, "_CHUNK", 7):
        _run(tmp_path_factory.mktemp("fuzz"), subcommand, config)
