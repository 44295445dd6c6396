"""Independent numerical oracles used by the test suite.

The waveform FIM oracle synthesizes the actual pilot signal (time-limited
raised-cosine pulses, orthogonal pilot sequences), forms the noise-whitened
observation mean, and integrates finite-difference derivatives over a dense
time grid. It shares no code with the closed-form FIM path beyond the
unit direction u(theta, phi) and its partials
(`twl.geometry.direction_with_partials`): the kernel
(`twl.kernels.steering_forms`) never calls `twl.geometry.steering`.

The per-pose reference of the kernel builds the steering bundle (the
response a and its two analytic angle partials) of one direction from the
full element coordinates, projects it through F and through an orthonormal
basis U of the receive beam space, and takes the 3x3 forms: no per-axis
factors, no mirrored phases, no chunking.

`efim` is the generic Schur complement of a dense FIM over any kept
parameters, the reference that `twl.fim.angle_efim`'s closed form and the
joint-FIM oracle are checked against.
"""

from dataclasses import dataclass

import numpy as np

from twl.geometry import direction_with_partials, steering

CHANNEL_PARAMS = ("theta1", "phi1", "theta2", "phi2", "beta", "psi", "tau")


def raised_cosine_pulse(t, ts):
    """Unit-energy pulse sqrt(8/(3 ts)) * sin^2(pi t / ts) on [0, ts].

    Vanishes with its value (not slope) at both ends, so pulses at the
    symbol spacing are exactly orthogonal and orthogonal to each other's
    derivatives. Squared effective bandwidth: 1 / (3 ts^2).
    """
    t = np.asarray(t)
    inside = (t >= 0.0) & (t <= ts)
    return np.where(inside, np.sqrt(8.0 / (3.0 * ts)) * np.sin(np.pi * t / ts) ** 2, 0.0)


def pulse_weff2(ts):
    return 1.0 / (3.0 * ts**2)


def pilot_matrix(n_beams, n_symbols):
    """Unit-modulus pilot symbols with exactly orthogonal rows."""
    if n_beams > n_symbols:
        raise ValueError("need n_symbols >= n_beams for orthogonal pilots")
    b = np.arange(n_beams)[:, None]
    ell = np.arange(n_symbols)[None, :]
    return np.exp(-2j * np.pi * b * ell / n_symbols)


def numerical_channel_fim(
    direction,
    tx_geom,
    rx_geom,
    tx_matrix,
    rx_matrix,
    cg,
    et,
    ts,
    ns,
    n0,
    oversample=400,
):
    """Channel FIM by quadrature of the whitened waveform derivatives.

    Parameters are ordered (theta1, phi1, theta2, phi2, beta, psi, tau) as in
    the closed-form path. ``tx_matrix``/``rx_matrix`` are the raw beam
    matrices of the transmitting and receiving device of ``direction``.
    """
    n_tx_beams = tx_matrix.shape[1]
    pilots = pilot_matrix(n_tx_beams, ns)
    gram_inv = np.linalg.inv(rx_matrix.conj().T @ rx_matrix)
    amp = np.sqrt(tx_geom.n_elements * rx_geom.n_elements * et)

    t_lo = cg.tau - 2.0 * ts
    t_hi = cg.tau + (ns + 2.0) * ts
    n_t = int(round((t_hi - t_lo) / ts)) * oversample
    dt = (t_hi - t_lo) / n_t
    t_grid = t_lo + (np.arange(n_t) + 0.5) * dt

    def mean_waveform(params):
        theta1, phi1, theta2, phi2, beta, psi, tau = params
        if direction == "backward":
            tx_angles, rx_angles = (theta2, phi2), (theta1, phi1)
        else:
            tx_angles, rx_angles = (theta1, phi1), (theta2, phi2)
        a_tx = steering(tx_geom, *tx_angles)
        a_rx = steering(rx_geom, *rx_angles)
        rx_gain = rx_matrix.conj().T @ a_rx  # (n_rx_beams,)
        tx_row = a_tx @ tx_matrix  # (n_tx_beams,)
        offsets = t_grid[None, :] - tau - np.arange(ns)[:, None] * ts
        s = pilots @ raised_cosine_pulse(offsets, ts)  # (n_tx_beams, n_t)
        scalar = tx_row @ s  # (n_t,)
        return amp * beta * np.exp(1j * psi) * rx_gain[:, None] * scalar[None, :]

    base = np.array(
        [cg.theta1, cg.phi1, cg.theta2, cg.phi2, cg.beta, cg.psi, cg.tau]
    )
    steps = np.array([1e-5, 1e-5, 1e-5, 1e-5, 1e-6 * cg.beta, 1e-5, 2e-4 * ts])
    grads = []
    for i in range(7):
        hi = base.copy(); hi[i] += steps[i]
        lo = base.copy(); lo[i] -= steps[i]
        grads.append((mean_waveform(hi) - mean_waveform(lo)) / (2.0 * steps[i]))

    fim = np.zeros((7, 7))
    for i in range(7):
        for j in range(i, 7):
            val = dt / n0 * np.sum(
                (grads[i].conj() * (gram_inv @ grads[j])).real
            )
            fim[i, j] = fim[j, i] = val
    return fim


@dataclass(frozen=True)
class SteeringBundle:
    """Steering vector of an array together with its analytic angle partials.

    Attributes:
        a: unit-norm complex array response, shape (N,).
        da_dtheta: elementwise partial of ``a`` w.r.t. the polar angle.
        da_dphi: elementwise partial of ``a`` w.r.t. the azimuth angle.
    """

    a: np.ndarray
    da_dtheta: np.ndarray
    da_dphi: np.ndarray


def steering_bundle(geom, theta, phi) -> SteeringBundle:
    """Array response ``exp(-j * elements^T k) / sqrt(N)`` and its exact angle partials.

    The partials follow by differentiating the phase.
    """
    k0 = 2.0 * np.pi / geom.wavelength
    k, dk_dtheta, dk_dphi = (k0 * d for d in direction_with_partials(theta, phi))
    a = np.exp(-1j * (geom.elements.T @ k)) / np.sqrt(geom.n_elements)
    da_dtheta = -1j * (geom.elements.T @ dk_dtheta) * a
    da_dphi = -1j * (geom.elements.T @ dk_dphi) * a
    return SteeringBundle(a=a, da_dtheta=da_dtheta, da_dphi=da_dphi)


def orthonormal_basis(w):
    """Orthonormal basis U of the column space of w: numpy's QR, not the program's whitening."""
    return np.linalg.qr(w)[0]


def receive_forms_mp(geom, beam_directions, theta, phi, digits=40):
    """Receive forms r[x, y] = Re(xᴴ·W·G⁻¹·Wᴴ·y), (3, 3, n), at ``digits`` digits.

    W holds the steering vector of each beam direction, G = WᴴW, and x, y
    run over the steering bundle (a, da/dtheta, da/dphi) at each (theta,
    phi). Every float input is taken as exact, so the float64 result
    carries only its final rounding.
    """
    import mpmath

    with mpmath.workdps(digits):
        elements = [[mpmath.mpf(float(v)) for v in axis] for axis in geom.elements]
        k0 = 2 * mpmath.pi / mpmath.mpf(geom.wavelength)
        norm = mpmath.sqrt(geom.n_elements)

        def bundle(th, ph):
            st, ct = mpmath.sin(th), mpmath.cos(th)
            sp, cp = mpmath.sin(ph), mpmath.cos(ph)
            u, du_th = (cp * st, sp * st, ct), (cp * ct, sp * ct, -st)
            du_ph = (-sp * st, cp * st, 0)
            out = []
            for e in zip(*elements):
                a = mpmath.expj(-k0 * mpmath.fdot(e, u)) / norm
                out.append((a, -1j * k0 * mpmath.fdot(e, du_th) * a,
                            -1j * k0 * mpmath.fdot(e, du_ph) * a))
            return mpmath.matrix(out)  # (N, 3)

        w = mpmath.matrix([[row[0] for row in bundle(th, ph).tolist()]
                           for th, ph in beam_directions]).T  # (N, n_beams)
        w_h = w.H
        g_inv = mpmath.inverse(w_h * w)
        forms = np.empty((3, 3, len(theta)))
        for m, (th, ph) in enumerate(zip(theta, phi)):
            proj = w_h * bundle(mpmath.mpf(float(th)), mpmath.mpf(float(ph)))  # (n_beams, 3)
            r = proj.H * (g_inv * proj)
            forms[..., m] = [[float(mpmath.re(r[x, y])) for y in range(3)] for x in range(3)]
    return forms


def quadratic_forms(tx_matrix, rx_basis, bundles):
    """Beam-space quadratic-form tables for one device pair.

    Args:
        tx_matrix: transmit beam matrix F of the transmitting device.
        rx_basis: orthonormal basis U of the receive beam space.
        bundles: pair of steering bundles (transmitter's, receiver's).

    Returns:
        (t_forms, r_forms), each 3x3 complex over components (a, da/dtheta,
        da/dphi): t_forms[x, y] = x^T F F^H y*, r_forms[x, y] = x^H U U^H y.
    """
    tx_bundle, rx_bundle = bundles
    xt = np.stack([tx_bundle.a, tx_bundle.da_dtheta, tx_bundle.da_dphi], axis=1)
    xr = np.stack([rx_bundle.a, rx_bundle.da_dtheta, rx_bundle.da_dphi], axis=1)
    ut = tx_matrix.T @ xt  # (n_beams, 3)
    vr = rx_basis.conj().T @ xr
    return ut.T @ ut.conj(), vr.conj().T @ vr


def joint_efim_oracle(rng, dim_x, dim_z1, dim_z2):
    """EFIM of shared parameters from the stacked two-observation FIM.

    Builds two random PSD FIMs over (x, z_i), stacks them into the joint FIM
    over (x, z1, z2), and Schur-eliminates both nuisance blocks at once.
    Returns (per-observation EFIMs, joint-FIM EFIM).
    """

    def random_psd(dim):
        a = rng.standard_normal((dim, dim + 2))
        return a @ a.T

    j1 = random_psd(dim_x + dim_z1)
    j2 = random_psd(dim_x + dim_z2)
    n = dim_x + dim_z1 + dim_z2
    joint = np.zeros((n, n))
    joint[:dim_x, :dim_x] = j1[:dim_x, :dim_x] + j2[:dim_x, :dim_x]
    joint[:dim_x, dim_x:dim_x + dim_z1] = j1[:dim_x, dim_x:]
    joint[dim_x:dim_x + dim_z1, :dim_x] = j1[dim_x:, :dim_x]
    joint[dim_x:dim_x + dim_z1, dim_x:dim_x + dim_z1] = j1[dim_x:, dim_x:]
    joint[:dim_x, dim_x + dim_z1:] = j2[:dim_x, dim_x:]
    joint[dim_x + dim_z1:, :dim_x] = j2[dim_x:, :dim_x]
    joint[dim_x + dim_z1:, dim_x + dim_z1:] = j2[dim_x:, dim_x:]

    nuis = joint[dim_x:, dim_x:]
    cross = joint[:dim_x, dim_x:]
    joint_efim = joint[:dim_x, :dim_x] - cross @ np.linalg.solve(nuis, cross.T)
    return j1, j2, joint_efim


class NuisanceSingularError(np.linalg.LinAlgError):
    """Nuisance block of a FIM is singular: nuisance parameters unidentifiable."""


def efim(jm: np.ndarray, keep) -> np.ndarray:
    """Equivalent FIM of the kept parameters via the Schur complement."""
    jm = np.asarray(jm, dtype=np.float64)
    n = jm.shape[0]
    keep = sorted({int(i) for i in keep})
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices out of range for dimension {n}")
    drop = [i for i in range(n) if i not in keep]
    if not drop:
        raise ValueError("must drop at least one nuisance parameter")
    j11 = jm[np.ix_(keep, keep)]
    j12 = jm[np.ix_(keep, drop)]
    j22 = jm[np.ix_(drop, drop)]
    cond = np.linalg.cond(j22)
    if not np.isfinite(cond) or cond > 1e12:
        raise NuisanceSingularError("nuisance parameters unidentifiable")
    out = j11 - j12 @ np.linalg.solve(j22, j12.T)
    return 0.5 * (out + out.T)
