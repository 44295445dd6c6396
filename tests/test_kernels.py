"""The batched steering-form kernel against the per-pose construction."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import twl.fim
import twl.kernels as kernels
import twl.scenario
from oracles import orthonormal_basis, quadratic_forms, receive_forms_mp, steering_bundle
from twl.beamforming import directional_beams, gram_inv_sqrt
from twl.fim import channel_fim
from twl.geometry import ArrayGeometry, direction_with_partials, steering
from twl.pose import channel_geometry, Pose
from twl.scenario import Scenario, position_tables, protocol_bounds, sample_positions

LAMBDA = 299792458.0 / 38e9


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario.reference_defaults(n_samples=200, seed=5)


def _random_codebook(rng, geom, n_beams):
    """A receive `directional_beams` codebook over random directions, and its tables."""
    dirs = list(zip(rng.uniform(0.0, np.pi, n_beams), rng.uniform(-np.pi, np.pi, n_beams)))
    beams = directional_beams(geom, dirs, "receive")
    return kernels.codebook_tables(geom, beams), beams.matrix


@pytest.mark.parametrize(
    "geom,n_w",
    [
        (ArrayGeometry(6, 6, LAMBDA, LAMBDA / 2), 7),
        (ArrayGeometry(12, 12, LAMBDA, LAMBDA / 2, plane="yz"), 9),
        (ArrayGeometry(3, 5, LAMBDA, LAMBDA / 2, plane="xy"), 4),
        (ArrayGeometry(1, 1, LAMBDA, LAMBDA / 2), 1),  # one element at the origin: zero partials
    ],
    ids=["6x6-xz", "12x12-yz", "3x5-xy", "1x1"],
)
def test_steering_forms_match_per_pose_reference(geom, n_w):
    """Chunked kernel == the per-pose reference of `oracles`, per direction.

    A codebook over random steering directions per case, with F = conj(W)
    and U = orthonormal_basis(W) in the reference, so a swapped plane axis
    or offset, a misaligned row block of the stacked tables or a mirrored
    pair counted once cannot go unnoticed. n crosses two chunk boundaries.
    The kernel's forms are float64 and exactly symmetric; the complex
    reference of an array centred on its device is real to 1e-12 of its
    largest entry, and the kernel equals its real part to 1e-12 of that
    entry.
    """
    rng = np.random.default_rng(3)
    n = 2 * kernels._CHUNK + 37
    theta = rng.uniform(0.0, np.pi, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    tables, w = _random_codebook(rng, geom, n_w)
    f = w.conj()
    u = orthonormal_basis(w)
    t, r = kernels.steering_forms(geom, tables, theta, phi)
    assert t.shape == r.shape == (3, 3, n)
    assert t.dtype == r.dtype == np.float64
    np.testing.assert_array_equal(t, t.transpose(1, 0, 2))
    np.testing.assert_array_equal(r, r.transpose(1, 0, 2))

    for i in range(n):
        bundle = steering_bundle(geom, theta[i], phi[i])
        for form, ref in zip((t[..., i], r[..., i]), quadratic_forms(f, u, (bundle, bundle))):
            scale = np.abs(ref).max()
            assert np.abs(ref.imag).max() <= 1e-12 * scale, i
            assert np.abs(form - ref.real).max() <= 1e-12 * scale, i


@pytest.mark.parametrize("plane", ["xz", "xy", "yz"])
def test_beam_factors_rebuild_the_receive_codebook(plane):
    """The real tables give the projections of the full codebook.

    Through the receive codebook W, the projection of a is the plane q0, and
    that of a weighted by k0·element along the first or second plane axis is
    j·q_r or j·q_c. This pins the element ravel order (row index slowest),
    the plane axes, the weights of the mirrored pairs and the
    1/(N·sqrt(n_beams)) scale. Tolerance: 1e-14 relative to the largest
    entry of each block.
    """
    geom = ArrayGeometry(4, 3, LAMBDA, LAMBDA / 2, plane=plane)
    dirs = [(0.4, 0.2), (1.3, -2.0), (2.2, 1.1), (1.7, 2.9), (0.9, -0.6)]
    factors = kernels.beam_factors(geom, dirs)
    for table in factors:
        assert table.dtype == np.float64
    tables = kernels.DeviceTables(*factors, np.eye(len(dirs)))
    theta, phi = np.random.default_rng(6).uniform((0.0, -np.pi), (np.pi, np.pi), (40, 2)).T
    q = kernels._planes(geom, tables, direction_with_partials(theta, phi)[0])

    w = directional_beams(geom, dirs, "receive").matrix
    weights = 2.0 * np.pi / LAMBDA * geom.elements
    for i, (th, ph) in enumerate(zip(theta, phi)):
        a = steering(geom, th, ph)
        for plane_q, weight in ((q[0], 1.0), (1j * q[1], weights[geom.axes[0]]),
                                (1j * q[2], weights[geom.axes[1]])):
            expected = w.conj().T @ (weight * a)
            assert np.abs(plane_q[:, i] - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("rows", [1, 2, 7, 12], ids=["1", "2", "odd", "even"])
@pytest.mark.parametrize("spacing", [LAMBDA / 2, 0.0031], ids=["half-wave", "other"])
def test_mirrored_phases_equal_every_exponential(rows, spacing):
    """The powers of one exponential give exp(-j·x·k) along the whole axis.

    The half rows are exp(j·|x|·k) over the non-positive offsets; their
    conjugates, the positive ones. A row taken from the wrong offset, or a
    1-element axis whose one row is duplicated, changes the values or the
    shape. Error bound: the recurrence's row l is the product of at most
    2·l + 2 correctly rounded complex factors, each within 2·eps, and the
    reference rounds its phase x·k by up to eps·|x·k|, so every entry lies
    within eps·(4·rows + 2·max|x·k|) of the other.
    """
    geom = ArrayGeometry(rows, 3, LAMBDA, spacing=spacing)
    x = geom.offsets()[0]
    k = np.random.default_rng(4).uniform(-2.0, 2.0, 257) * 2.0 * np.pi / LAMBDA
    expected = np.exp(-1j * np.outer(x, k)).T
    step = 2.0 * np.pi / LAMBDA * geom.spacing
    half = kernels._half_phases(rows, step, k * LAMBDA / (2.0 * np.pi))
    assert half.shape == (k.shape[0], rows - rows // 2)
    mirrored = np.concatenate([half[:, ::-1], half[:, rows % 2:].conj()], axis=1)
    assert mirrored.shape == expected.shape
    bound = np.finfo(float).eps * (4 * rows + 2 * np.abs(np.outer(x, k)).max())
    assert np.abs(mirrored - expected).max() <= bound


@pytest.mark.parametrize("plane", ["xz", "xy", "yz"])
def test_real_whitening_is_the_centre_rotated_root(plane):
    """The whitening is the real part of G^(-1/2), G = WᴴW, and exactly symmetric.

    An array centred on its device needs no centre rotation: `gram_inv_sqrt`
    of the complex W itself is real to 1e-12 of its largest entry, and the
    kernel's real root equals its real part to the same tolerance.
    """
    geom = ArrayGeometry(5, 4, LAMBDA, LAMBDA / 2, plane=plane)
    dirs = [(0.4, 0.2), (1.3, -2.0), (2.2, 1.1), (1.7, 2.9), (0.9, -0.6), (1.1, 0.7)]
    beams = directional_beams(geom, dirs, "receive")
    whitening = kernels.codebook_tables(geom, beams).whitening
    assert whitening.dtype == np.float64
    np.testing.assert_array_equal(whitening, whitening.T)
    root = gram_inv_sqrt(beams.matrix)
    scale = np.abs(root).max()
    assert np.abs(root.imag).max() <= 1e-12 * scale
    assert np.abs(whitening - root.real).max() <= 1e-12 * scale


def test_ill_conditioned_codebook_keeps_its_receive_forms_accurate():
    """A 6x6 anchor with the 25 region beams: cond(WᴴW) = 2.1e9.

    The whitening comes from the singular values of W's real stack, not
    from WᴴW, whose eigenvalues would carry only ~7 correct digits. The
    receive forms at 12 positions 10 m below the anchor, over ±100 m, agree
    with a 40-digit reference to 1e-11 of each form's largest entry; a root
    taken through WᴴW's eigenbasis misses by 9.5e-10.
    """
    pytest.importorskip("mpmath")
    scn = Scenario.reference_defaults()
    geom = dataclasses.replace(scn.bs_array, rows=6, cols=6)
    directions = scn.anchor_beam_directions()
    beams = directional_beams(geom, directions, "receive")
    stack = np.concatenate([beams.matrix.real, beams.matrix.imag])
    assert np.linalg.cond(stack) ** 2 == pytest.approx(2.1e9, rel=0.01)
    rng = np.random.default_rng(0)
    points = np.column_stack([rng.uniform(-100.0, 100.0, (12, 2)), np.full(12, -10.0)])
    u = points / np.linalg.norm(points, axis=1)[:, None]
    theta, phi = np.arccos(u[:, 2]), np.arctan2(u[:, 1], u[:, 0])
    _, r = kernels.steering_forms(geom, kernels.codebook_tables(geom, beams), theta, phi)
    reference = receive_forms_mp(geom, directions, theta, phi)
    error = np.abs(r - reference).max(axis=(0, 1)) / np.abs(reference).max(axis=(0, 1))
    assert error.max() <= 1e-11, error


@pytest.mark.parametrize("wavelength", [1e300 / 38e9, 1e-300], ids=["huge", "tiny"])
def test_forms_are_finite_at_extreme_wavelengths(wavelength):
    """The kernel works in phase units, so no offset meets a partial in metres.

    With half-wave spacing and the array at the origin, the forms depend on
    the wavelength only through rounding: they equal the reference
    wavelength's to 1e-12 of each form's largest entry, with warnings as
    errors.
    """
    rng = np.random.default_rng(8)
    dirs = list(zip(rng.uniform(0.0, np.pi, 9), rng.uniform(-np.pi, np.pi, 9)))
    theta, phi = rng.uniform(0.0, np.pi, 300), rng.uniform(-np.pi, np.pi, 300)
    forms = {}
    for lam in (wavelength, LAMBDA):
        geom = ArrayGeometry(12, 12, lam, lam / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = kernels.codebook_tables(geom, directional_beams(geom, dirs, "receive"))
            forms[lam] = kernels.steering_forms(geom, tables, theta, phi)
    for extreme, reference in zip(forms[wavelength], forms[LAMBDA]):
        assert np.all(np.isfinite(extreme))
        scale = np.abs(reference).max(axis=(0, 1))
        assert np.all(np.abs(extreme - reference) <= 1e-12 * scale)


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
            single = angle_efim(cf)
            np.testing.assert_allclose(tables.angle_efim[link][..., i], single,
                                       rtol=1e-14, atol=1e-14 * np.abs(single).max())
        fwd, bwd = fims["bs_to_ue"], fims["ue_to_bs"]
        assert tables.delay_info["bs_to_ue"][i] == pytest.approx(delay_info(fwd), rel=1e-12)
        assert tables.delay_info["ue_to_bs"][i] == pytest.approx(delay_info(bwd), rel=1e-12)
        jac = location_jacobian(Pose(p, *scn.orientation), c=scn.signal.c)
        np.testing.assert_array_equal(tables.jacobian[..., i], jac)


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
            np.testing.assert_array_equal(tables.angle_efim[link][..., 0], angle_efim(jm))
            assert tables.delay_info[link][0] == delay_info(jm)
        jac = location_jacobian(Pose(p, *scn.orientation), c=scn.signal.c)
        np.testing.assert_array_equal(tables.jacobian[..., 0], jac)
        down, up = fims["bs_to_ue"], fims["ue_to_bs"]
        for initiator, fwd, bwd in (("bs", down, up), ("ue", up, down)):
            for protocol in PROTOCOLS:
                single = assemble(protocol, fwd, bwd, jac)
                batched = protocol_bounds(tables, protocol, initiator)
                assert single.peb == batched.peb[0], (protocol, initiator)
                assert single.oeb == batched.oeb[0], (protocol, initiator)


def _dark_forms(geom, tables, theta, phi):
    zeros = np.zeros((3, 3, len(theta)))
    return zeros, zeros


@pytest.mark.parametrize("case", ["dark", "no-delay"])
def test_unusable_bound_reads_the_same_in_the_views_and_the_pipeline(
    small_scenario, monkeypatch, case
):
    """A dark link, or a downlink without delay information, at n = 1.

    The single-pose views report an unusable bound as the pipeline does:
    `invert_efim`'s inf, with no exception and no warning. "dark"
    zeroes every beam-space form; "no-delay" zeroes the downlink's delay
    information, which leaves only owl with the uplink as its backward link.
    """
    from twl.pose import location_jacobian
    from twl.protocols import PROTOCOLS, assemble

    scn = small_scenario
    p = sample_positions(scn.region, 1, 12)[0]
    if case == "dark":
        for module in (twl.fim, twl.scenario):
            monkeypatch.setattr(module, "steering_forms", _dark_forms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = position_tables(scn, p[None])
        fims = _link_fims(scn, _single_pose_codebooks(scn), p)
        if case == "no-delay":
            tables.delay_info["bs_to_ue"][:] = 0.0
            fims["bs_to_ue"][6, 6] = 0.0
        jac = location_jacobian(Pose(p, *scn.orientation), c=scn.signal.c)
        down, up = fims["bs_to_ue"], fims["ue_to_bs"]
        finite = []
        for initiator, fwd, bwd in (("bs", down, up), ("ue", up, down)):
            for protocol in PROTOCOLS:
                single = assemble(protocol, fwd, bwd, jac)
                batched = protocol_bounds(tables, protocol, initiator)
                assert single.peb == batched.peb[0], (protocol, initiator)
                assert single.oeb == batched.oeb[0], (protocol, initiator)
                if not math.isfinite(single.peb):
                    assert single.peb == single.oeb == math.inf
                    assert single.condition > 1e12, (protocol, initiator)
                finite.append(math.isfinite(single.peb))
    assert finite == [case == "no-delay"] + [False] * 5


def test_steering_forms_shapes(small_scenario):
    """(3, 3, n) C-contiguous symmetric float64 forms, the directions on the last axis.

    n = 1 is the single-pose views' call, and n one step and 3 more crosses
    a step boundary of the kernel.
    """
    scn = small_scenario
    dirs = [(1.8, 0.2), (2.0, -0.4), (2.2, 0.1), (1.9, 0.6)]
    tables = kernels.DeviceTables(*kernels.beam_factors(scn.bs_array, dirs), np.eye(4))
    for n in (1, 2, kernels._CHUNK + 3):
        theta = np.linspace(1.9, 2.1, n)
        phi = np.linspace(0.3, -0.5, n)
        for forms in kernels.steering_forms(scn.bs_array, tables, theta, phi):
            assert forms.shape == (3, 3, n) and forms.flags.c_contiguous, n
            assert forms.dtype == np.float64, n
            np.testing.assert_array_equal(forms, forms.transpose(1, 0, 2))
