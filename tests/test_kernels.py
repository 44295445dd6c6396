"""The batched steering-form kernel against the per-pose construction."""

import dataclasses
import itertools

import numpy as np
import pytest

import twl.kernels as kernels
from oracles import orthonormal_basis, quadratic_forms, steering_bundle
from twl.beamforming import directional_beams, gram_inv_sqrt
from twl.fim import channel_fim
from twl.geometry import ArrayGeometry
from twl.pose import channel_geometry, Pose
from twl.scenario import Scenario, position_tables, protocol_bounds, sample_positions

LAMBDA = 299792458.0 / 38e9


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario.reference_defaults(n_samples=200, seed=5)


def _random_separable_tables(rng, geom, n_beams):
    """Random per-beam row and column factors, as `DeviceTables`, and their W.

    Column b of W is sqrt(N)·conj(r_b ⊗ s_b): the kernel's factors carry the
    1/sqrt(N) of the response. Random complex factors keep G = WᴴW complex.
    """
    x, y = geom.offsets()

    def draw(size):
        return rng.standard_normal((n_beams, size)) + 1j * rng.standard_normal((n_beams, size))

    r, s = draw(geom.rows), draw(geom.cols)
    w = np.sqrt(geom.n_elements) * np.stack(
        [np.kron(r[b], s[b]) for b in range(n_beams)], axis=1
    ).conj()
    tables = kernels.DeviceTables(
        rows=np.concatenate([r, r * x]), cols=np.concatenate([s, s * y]),
        whitening=gram_inv_sqrt(w),
    )
    return tables, w


@pytest.mark.parametrize(
    "geom,n_w",
    [
        (ArrayGeometry(6, 6, LAMBDA), 7),
        (ArrayGeometry(12, 12, LAMBDA, plane="yz", center=(0.01, -0.02, 0.03)), 9),
        (ArrayGeometry(3, 5, LAMBDA, plane="xy", center=(-0.02, 0.01, 0.005)), 4),
        (ArrayGeometry(1, 1, LAMBDA), 1),  # one element at the origin: zero partials
    ],
    ids=["6x6-xz", "12x12-offset", "3x5-xy", "1x1"],
)
def test_steering_forms_match_per_pose_reference(geom, n_w):
    """Chunked kernel == the per-pose reference of `oracles`, per direction.

    A random complex separable codebook per case, with F = conj(W) and
    U = orthonormal_basis(W) in the reference, so G^(-1/2) applied without
    its conjugate, a swapped plane axis or offset, or a misaligned row block
    of the stacked factors cannot go unnoticed. n crosses two chunk
    boundaries. Tolerance: 1e-12 relative to the largest entry of each form.
    """
    rng = np.random.default_rng(3)
    n = 2 * kernels._CHUNK + 37
    theta = rng.uniform(0.0, np.pi, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    tables, w = _random_separable_tables(rng, geom, n_w)
    f = w.conj()
    u = orthonormal_basis(w)
    t, r = kernels.steering_forms(geom, tables, theta, phi)
    assert t.shape == r.shape == (n, 3, 3)
    np.testing.assert_array_equal(t, t.conj().transpose(0, 2, 1))
    np.testing.assert_array_equal(r, r.conj().transpose(0, 2, 1))

    for i in range(n):
        bundle = steering_bundle(geom, theta[i], phi[i])
        t_ref, r_ref = quadratic_forms(f, u, (bundle, bundle))
        assert np.abs(t[i] - t_ref).max() <= 1e-12 * np.abs(t_ref).max(), i
        assert np.abs(r[i] - r_ref).max() <= 1e-12 * np.abs(r_ref).max(), i


@pytest.mark.parametrize("plane", ["xz", "xy", "yz"])
def test_beam_factors_rebuild_the_receive_codebook(plane):
    """The pipeline's factors give W as row ⊗ col, and Wᴴdiag(offsets) likewise.

    This pins the element ravel order (row index slowest), the plane axes and
    the folded centre phase and scale.
    """
    geom = ArrayGeometry(4, 3, LAMBDA, plane=plane, center=(0.013, -0.021, 0.034))
    dirs = [(0.4, 0.2), (1.3, -2.0), (2.2, 1.1), (1.7, 2.9), (0.9, -0.6)]
    w = directional_beams(geom, dirs, "receive").matrix
    rows, cols = kernels.beam_factors(geom, dirs)
    n_beams, n = len(dirs), geom.n_elements
    ax0, ax1 = geom.axes
    center = np.asarray(geom.center)
    blocks = (  # (row block, column block, weight on W's rows)
        (0, 0, np.ones(n)),
        (1, 0, geom.elements[ax0] - center[ax0]),
        (0, 1, geom.elements[ax1] - center[ax1]),
    )
    for row_block, col_block, weight in blocks:
        rebuilt = np.sqrt(n) * np.stack([
            np.kron(rows[row_block * n_beams + b], cols[col_block * n_beams + b])
            for b in range(n_beams)
        ], axis=1).conj()
        assert np.abs(rebuilt - w * weight[:, None]).max() <= 1e-14 * np.abs(w).max()


@pytest.mark.parametrize("rows", [1, 2, 7, 12], ids=["1", "2", "odd", "even"])
@pytest.mark.parametrize("spacing", [None, 0.0031], ids=["half-wave", "other"])
def test_mirrored_phases_equal_every_exponential(rows, spacing):
    """Half the exponentials and their conjugates give exp(-j·x·k) bit for bit.

    A row mirrored from the wrong offset, or a 1-element axis whose one row
    is duplicated, changes the bits or the shape.
    """
    x = ArrayGeometry(rows, 3, LAMBDA, spacing=spacing).offsets()[0]
    k = np.random.default_rng(4).uniform(-2.0, 2.0, 257) * 2.0 * np.pi / LAMBDA
    expected = np.exp(-1j * np.outer(x, k))
    phases = kernels._phases(x, k)
    assert phases.shape == expected.shape
    np.testing.assert_array_equal(phases.view(np.uint64), expected.view(np.uint64))


def test_backend_is_deterministic(small_scenario):
    positions = sample_positions(small_scenario.region, 64, 9)
    a = position_tables(small_scenario, positions)
    b = position_tables(small_scenario, positions)
    np.testing.assert_array_equal(a.snr_db, b.snr_db)
    for link in ("bs_to_ue", "ue_to_bs"):
        np.testing.assert_array_equal(a.angle_efim[link], b.angle_efim[link])


def _single_pose_codebooks(scn):
    """(f1, w1, f2, w2): each device's transmit and receive codebook."""
    from twl.beamforming import reverse_direction

    bs_dirs = scn.anchor_beam_directions()
    ue_dirs = [reverse_direction(th, ph) for th, ph in bs_dirs]
    return (directional_beams(scn.bs_array, bs_dirs, "transmit"),
            directional_beams(scn.bs_array, bs_dirs, "receive"),
            directional_beams(scn.ue_array, ue_dirs, "transmit"),
            directional_beams(scn.ue_array, ue_dirs, "receive"))


def _link_fims(scn, codebooks, p):
    f1, w1, f2, w2 = codebooks
    cg = channel_geometry(Pose(p, *scn.orientation), scn.signal.wavelength, c=scn.signal.c)
    return {"bs_to_ue": channel_fim("forward", scn.bs_array, scn.ue_array, f1, w2, cg, scn.signal),
            "ue_to_bs": channel_fim("backward", scn.ue_array, scn.bs_array, f2, w1, cg, scn.signal)}


def test_batched_tables_match_single_pose_path(small_scenario):
    """The pipeline and `channel_fim` run one kernel, 8 directions or one at a time.

    BLAS blocks the kernel's products by their width, so only the last bits
    differ: the largest angle EFIM gap here was 5.2e-16 of the matrix's
    largest entry (2.3e-15 over 500 positions), against 9.0e-16 when
    `channel_fim` ran a per-pose reference of its own.
    """
    from twl.fim import angle_efim, delay_info
    from twl.pose import location_jacobian

    scn = small_scenario
    positions = sample_positions(scn.region, 8, 11)
    tables = position_tables(scn, positions)
    codebooks = _single_pose_codebooks(scn)

    for i, p in enumerate(positions):
        fims = _link_fims(scn, codebooks, p)
        for link, cf in fims.items():
            single = angle_efim(cf).matrix
            np.testing.assert_allclose(tables.angle_efim[link][i], single,
                                       rtol=1e-14, atol=1e-14 * np.abs(single).max())
        fwd, bwd = fims["bs_to_ue"], fims["ue_to_bs"]
        assert tables.delay_info["bs_to_ue"][i] == pytest.approx(delay_info(fwd), rel=1e-12)
        assert tables.delay_info["ue_to_bs"][i] == pytest.approx(delay_info(bwd), rel=1e-12)
        jac = location_jacobian(Pose(p, *scn.orientation), c=scn.signal.c)
        np.testing.assert_array_equal(tables.jacobian[i], jac)


def test_one_position_table_is_channel_fim_bit_for_bit(small_scenario):
    """At one position the pipeline and the single-pose views agree bit for bit.

    `channel_fim` makes the pipeline's kernel calls, `location_jacobian` is
    its Jacobian, and `assemble` runs its factors and inversion, so every
    protocol's bounds at one position equal `protocol_bounds`' exactly.
    """
    from twl.fim import angle_efim, delay_info
    from twl.pose import location_jacobian
    from twl.protocols import PROTOCOLS, assemble

    rotated = dataclasses.replace(small_scenario, orientation=(np.pi / 6, np.pi / 6))
    for scn, p in itertools.product((small_scenario, rotated),
                                    sample_positions(small_scenario.region, 5, 12)):
        tables = position_tables(scn, p[None])
        fims = _link_fims(scn, _single_pose_codebooks(scn), p)
        for link, jm in fims.items():
            np.testing.assert_array_equal(tables.angle_efim[link][0], angle_efim(jm).matrix)
            assert tables.delay_info[link][0] == delay_info(jm)
        jac = location_jacobian(Pose(p, *scn.orientation), c=scn.signal.c)
        np.testing.assert_array_equal(tables.jacobian[0], jac)
        down, up = fims["bs_to_ue"], fims["ue_to_bs"]
        for initiator, fwd, bwd in (("bs", down, up), ("ue", up, down)):
            for protocol in PROTOCOLS:
                single = assemble(protocol, fwd, bwd, jac)
                batched = protocol_bounds(tables, protocol, initiator)
                assert single.identifiable == batched.identifiable[0]
                assert single.peb == batched.peb[0], (protocol, initiator)
                assert single.oeb == batched.oeb[0], (protocol, initiator)


def test_steering_forms_shapes(small_scenario):
    scn = small_scenario
    theta = np.array([1.9, 2.1])
    phi = np.array([0.3, -0.5])
    dirs = [(1.8, 0.2), (2.0, -0.4), (2.2, 0.1), (1.9, 0.6)]
    tables = kernels.DeviceTables(*kernels.beam_factors(scn.bs_array, dirs), np.eye(4))
    t, r = kernels.steering_forms(scn.bs_array, tables, theta, phi)
    assert t.shape == (2, 3, 3) and r.shape == (2, 3, 3)
    # Hermitian form tables
    np.testing.assert_allclose(t, t.conj().transpose(0, 2, 1), atol=1e-15)
    np.testing.assert_allclose(r, r.conj().transpose(0, 2, 1), atol=1e-15)
