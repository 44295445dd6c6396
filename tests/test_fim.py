import importlib
import pkgutil

import numpy as np
import pytest

import twl
import twl.fim
from oracles import joint_efim_oracle, orthonormal_basis, quadratic_forms, steering_bundle
from twl.beamforming import SignalConfig, directional_beams
from twl.fim import (
    CHANNEL_PARAMS,
    Efim,
    NoIlluminationError,
    NuisanceSingularError,
    angle_efim,
    channel_fim,
    delay_info,
    efim,
    efim_additivity,
)
from twl.geometry import ArrayGeometry
from twl.pose import ChannelGeometry

LAM = 299792458.0 / 38e9


def small_link(rng, n_tx_beams=2, n_rx_beams=2, ns=4):
    """Random 2x2-array link with beams near the true angles."""
    tx_geom = ArrayGeometry(2, 2, LAM)
    rx_geom = ArrayGeometry(2, 2, LAM)
    d = rng.uniform(5.0, 30.0)
    cg = ChannelGeometry(
        theta1=rng.uniform(0.5, 2.6), phi1=rng.uniform(-3.0, 3.0),
        theta2=rng.uniform(0.5, 2.6), phi2=rng.uniform(-3.0, 3.0),
        tau=d / 299792458.0, beta=LAM / (4 * np.pi * d), psi=rng.uniform(-3, 3),
    )
    direction = rng.choice(["forward", "backward"])
    tx_angles = (cg.theta2, cg.phi2) if direction == "backward" else (cg.theta1, cg.phi1)
    rx_angles = (cg.theta1, cg.phi1) if direction == "backward" else (cg.theta2, cg.phi2)
    jitter = lambda a: (a[0] + rng.uniform(-0.3, 0.3), a[1] + rng.uniform(-0.3, 0.3))
    f = directional_beams(tx_geom, [jitter(tx_angles) for _ in range(n_tx_beams)], "transmit")
    w = directional_beams(rx_geom, [jitter(rx_angles) for _ in range(n_rx_beams)], "receive")
    sig = SignalConfig.from_link_budget(
        power_w=1e-3, bandwidth=125e6, ns=ns, n0=1e-20, carrier=38e9
    )
    return direction, tx_geom, rx_geom, f, w, cg, sig


def test_channel_fim_is_symmetric(rng):
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    jm = channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)
    np.testing.assert_array_equal(jm, jm.T)


def test_channel_fim_decoupled_rows(rng):
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    jm = channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)
    for idx in (5, 6):  # psi and tau rows carry no cross terms
        off = np.delete(jm[idx], idx)
        np.testing.assert_array_equal(off, 0.0)


def test_channel_fim_positive_semidefinite(rng):
    for _ in range(20):
        direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
        jm = channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)
        evals = np.linalg.eigvalsh(jm)
        assert evals[0] >= -1e-9 * np.linalg.norm(jm)


def test_backward_fim_is_the_forward_one_with_the_pairs_swapped(rng):
    """The direction only places the two angle pairs, bit for bit."""
    from twl.fim import fim_from_forms

    def hermitian(n):
        x = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
        return x + np.conj(np.swapaxes(x, -1, -2))

    t, r, beta = hermitian(16), hermitian(16), rng.uniform(0.1, 2.0, 16)
    forward = fim_from_forms(t, r, 3.0, beta, 5.0, "forward")
    backward = fim_from_forms(t, r, 3.0, beta, 5.0, "backward")
    swap = [2, 3, 0, 1, 4, 5, 6]
    np.testing.assert_array_equal(backward[:, swap][:, :, swap], forward)


def test_channel_fim_rejects_an_unknown_direction(rng):
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    with pytest.raises(ValueError, match="direction must be one of"):
        channel_fim("sideways", tx_geom, rx_geom, f, w, cg, sig)


def test_delay_entry_plugin_value(ura12, rng):
    # unit gamma/beta/gains: delay entry is 4 pi^2 Weff^2 = 4 pi^2 W^2 / 3
    from twl.fim import fim_from_forms

    forms = np.zeros((3, 3), complex)
    forms[0, 0] = 1.0
    jm = fim_from_forms(forms, forms, gamma=1.0, beta=1.0,
                        weff2=125e6**2 / 3.0, direction="backward")
    assert abs(jm[6, 6] - 2.0562e17) < 1e13
    assert jm[6, 6] == pytest.approx(4 * np.pi**2 * 125e6**2 / 3.0, rel=1e-12)


def test_channel_fim_scaling_in_pilots_energy_and_beta(rng):
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    base = channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)

    doubled_ns = SignalConfig(et=sig.et, ts=sig.ts, ns=2 * sig.ns, n0=sig.n0,
                              bandwidth=sig.bandwidth, weff2=sig.weff2,
                              carrier=sig.carrier, c=sig.c)
    np.testing.assert_allclose(
        channel_fim(direction, tx_geom, rx_geom, f, w, cg, doubled_ns),
        2.0 * base, rtol=1e-12,
    )

    doubled_et = SignalConfig(et=2 * sig.et, ts=sig.ts, ns=sig.ns, n0=sig.n0,
                              bandwidth=sig.bandwidth, weff2=sig.weff2,
                              carrier=sig.carrier, c=sig.c)
    np.testing.assert_allclose(
        channel_fim(direction, tx_geom, rx_geom, f, w, cg, doubled_et),
        2.0 * base, rtol=1e-12,
    )

    cg2 = ChannelGeometry(cg.theta1, cg.phi1, cg.theta2, cg.phi2, cg.tau,
                          2.0 * cg.beta, cg.psi)
    scaled = channel_fim(direction, tx_geom, rx_geom, f, w, cg2, sig)
    np.testing.assert_allclose(scaled[:4, :4], 4.0 * base[:4, :4], rtol=1e-12)
    np.testing.assert_allclose(scaled[:4, 4], 2.0 * base[:4, 4], rtol=1e-12)
    assert scaled[4, 4] == pytest.approx(base[4, 4], rel=1e-12)
    assert scaled[6, 6] == pytest.approx(4.0 * base[6, 6], rel=1e-12)


def test_channel_fim_no_illumination(rng, monkeypatch):
    """All-zero beam-space forms, beams that put no energy on the link, raise."""
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    zeros = np.zeros((1, 3, 3), complex)
    monkeypatch.setattr(twl.fim, "steering_forms", lambda *args: (zeros, zeros))
    with pytest.raises(NoIlluminationError):
        channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)


def test_channel_fim_is_two_kernel_calls_of_one_direction(rng, monkeypatch):
    """The transmitter's forms, then the receiver's, each at n = 1."""
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    calls = []
    steering_forms = twl.fim.steering_forms

    def counted(geometry, tables, theta, phi):
        calls.append((geometry, len(theta), len(phi)))
        return steering_forms(geometry, tables, theta, phi)

    monkeypatch.setattr(twl.fim, "steering_forms", counted)
    channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)
    assert [n for _, *n in calls] == [[1, 1], [1, 1]]
    assert calls[0][0] is tx_geom and calls[1][0] is rx_geom


def test_no_second_beam_space_path():
    """The per-pose reference lives in the tests' oracles, not in `twl`."""
    for info in pkgutil.iter_modules(twl.__path__):
        module = importlib.import_module(f"twl.{info.name}")
        for name in ("quadratic_forms", "orthonormal_basis", "SteeringBundle"):
            assert not hasattr(module, name), (info.name, name)
    for name in ("quadratic_forms", "orthonormal_basis", "SteeringBundle"):
        assert not hasattr(twl, name), name


def test_repeated_transmit_direction_is_valid(rng):
    """Only a receive set needs distinct directions; the FIM matches the reference."""
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng, n_tx_beams=3)
    repeated = directional_beams(
        tx_geom, [f.directions[0], f.directions[0], f.directions[1]], "transmit"
    )
    jm = channel_fim(direction, tx_geom, rx_geom, repeated, w, cg, sig)
    assert np.all(np.isfinite(jm)) and jm[4, 4] > 0.0
    if direction == "backward":
        tx_angles, rx_angles = (cg.theta2, cg.phi2), (cg.theta1, cg.phi1)
    else:
        tx_angles, rx_angles = (cg.theta1, cg.phi1), (cg.theta2, cg.phi2)
    t_ref, r_ref = quadratic_forms(
        repeated.matrix, orthonormal_basis(w.matrix),
        (steering_bundle(tx_geom, *tx_angles), steering_bundle(rx_geom, *rx_angles)),
    )
    gamma = sig.gamma(tx_geom.n_elements, rx_geom.n_elements)
    ref = twl.fim.fim_from_forms(t_ref, r_ref, gamma, cg.beta, sig.weff2, direction)
    np.testing.assert_allclose(jm, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_channel_fim_needs_a_transmit_and_a_receive_codebook(rng):
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    as_receive = directional_beams(tx_geom, f.directions, "receive")
    with pytest.raises(ValueError, match="transmit codebook"):
        channel_fim(direction, tx_geom, rx_geom, as_receive, w, cg, sig)


def test_efim_block_diagonal_returns_kept_block(rng):
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((2, 4))
    jm = np.zeros((5, 5))
    jm[:3, :3] = a @ a.T
    jm[3:, 3:] = b @ b.T
    out = efim(jm, keep=[0, 1, 2])
    np.testing.assert_allclose(out.matrix, jm[:3, :3], atol=1e-12)


def test_efim_two_by_two_example():
    out = efim(np.array([[2.0, 1.0], [1.0, 1.0]]), keep=[0])
    assert out.matrix == pytest.approx(np.array([[1.0]]))
    assert out.kept_parameters == (0,)


def test_efim_never_exceeds_kept_block(rng):
    for _ in range(10):
        a = rng.standard_normal((6, 9))
        jm = a @ a.T
        keep = [0, 2, 5]
        out = efim(jm, keep=keep)
        gap = jm[np.ix_(keep, keep)] - out.matrix
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10 * np.linalg.norm(jm)


def test_efim_singular_nuisance(rng):
    jm = np.zeros((3, 3))
    jm[0, 0] = 1.0
    with pytest.raises(NuisanceSingularError, match="unidentifiable"):
        efim(jm, keep=[0])


def test_angle_efim_matches_generic_schur(rng):
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    jm = channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)
    fast = angle_efim(jm)
    generic = efim(jm[:5, :5], keep=[0, 1, 2, 3], labels=CHANNEL_PARAMS[:5])
    np.testing.assert_allclose(
        fast.matrix, generic.matrix,
        rtol=1e-10, atol=1e-14 * np.linalg.norm(generic.matrix),
    )
    assert fast.kept_parameters == ("theta1", "phi1", "theta2", "phi2")


def test_angle_efim_decoupled_case():
    jm = np.diag([4.0, 3.0, 2.0, 1.0, 5.0, 1.0, 7.0])
    np.testing.assert_array_equal(angle_efim(jm).matrix, np.diag([4.0, 3.0, 2.0, 1.0]))


def test_angle_efim_psd_sweep(rng):
    for _ in range(20):
        direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
        jm = channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)
        evals = np.linalg.eigvalsh(angle_efim(jm).matrix)
        assert evals[0] >= -1e-9 * np.linalg.norm(jm[:4, :4])


def test_delay_info_reads_tau_entry(rng):
    direction, tx_geom, rx_geom, f, w, cg, sig = small_link(rng)
    jm = channel_fim(direction, tx_geom, rx_geom, f, w, cg, sig)
    assert delay_info(jm) == jm[6, 6]
    assert delay_info(np.zeros((7, 7))) == 0.0


def test_efim_additivity_trivial_and_commutative(rng):
    a = rng.standard_normal((3, 4))
    m = a @ a.T
    je1 = Efim(matrix=m, kept_parameters=("x", "y", "z"))
    zero = Efim(matrix=np.zeros((3, 3)), kept_parameters=("x", "y", "z"))
    np.testing.assert_array_equal(efim_additivity(je1, zero).matrix, m)
    je2 = Efim(matrix=2.0 * m, kept_parameters=("x", "y", "z"))
    np.testing.assert_array_equal(
        efim_additivity(je1, je2).matrix, efim_additivity(je2, je1).matrix
    )


def test_efim_additivity_label_mismatch(rng):
    je1 = Efim(matrix=np.eye(2), kept_parameters=("a", "b"))
    je2 = Efim(matrix=np.eye(2), kept_parameters=("a", "c"))
    with pytest.raises(ValueError):
        efim_additivity(je1, je2)


def test_efim_additivity_matches_joint_schur(rng):
    for _ in range(10):
        dim_x = int(rng.integers(1, 5))
        j1, j2, joint = joint_efim_oracle(rng, dim_x, int(rng.integers(1, 4)),
                                          int(rng.integers(1, 4)))
        labels = tuple(range(dim_x))
        je1 = efim(j1, keep=range(dim_x))
        je2 = efim(j2, keep=range(dim_x))
        total = efim_additivity(je1, je2)
        np.testing.assert_allclose(total.matrix, joint, rtol=1e-10, atol=1e-12)


def test_schur_monotonicity(rng):
    # extra nuisance information never raises the kept-block EFIM above the
    # no-nuisance case
    for _ in range(10):
        a = rng.standard_normal((5, 8))
        jm = a @ a.T
        out = efim(jm, keep=[0, 1])
        gap = jm[:2, :2] - out.matrix
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10 * np.linalg.norm(jm)
