"""Beam-space steering forms: the per-position kernel of every bound.

For each evaluated direction the bound pipeline needs, per device, the 3x3
quadratic-form tables of the steering bundle (the response a and its two
angle partials) through the device's transmit matrix F and through the
projector U·Uᴴ onto its receive beam space.

A device's transmit codebook is the conjugate of its receive codebook W, so
Fᵀ = Wᴴ, and U·Uᴴ = W·G⁻¹·Wᴴ with G = WᴴW. Both forms are therefore Gram
matrices of the one projection Wᴴ·(a, da/dtheta, da/dphi): the transmit form
as it stands, the receive form after the 25x25 (n_beams x n_beams) G^(-1/2).

Both partials rescale the response elementwise: da/dtheta = -j (E^T dk/dtheta) * a
and da/dphi = -j (E^T dk/dphi) * a, with E the element coordinates. So every
projection is a row block of B @ a, with the stacked matrix

    B = [W^H; W^H diag(e_x); W^H diag(e_y); W^H diag(e_z)]

built once per device. Directions are processed in chunks, one complex
matrix multiply each; the angle projections are then 3-term contractions
with the wavenumber partials, and each Hermitian form is filled from its 6
unique entries.

`fim.quadratic_forms` over `geometry.steering` computes the same tables one
direction at a time and serves as the independent reference.
"""

import numpy as np

_CHUNK = 4096  # directions per matrix multiply, keeps temporaries ~30 MB


def steering_forms(
    elements: np.ndarray,
    wavelength: float,
    beams_h: np.ndarray,
    whitening: np.ndarray,
    theta: np.ndarray,
    phi: np.ndarray,
):
    """Beam-space quadratic forms of one device over a batch of directions.

    Args:
        elements: 3xN element coordinates of the device.
        wavelength: carrier wavelength.
        beams_h: W^H, the receive codebook's conjugate transpose, which is
            also the transposed transmit codebook F^T; (n_beams, N).
        whitening: G^(-1/2) of G = W^H W, (n_beams, n_beams).
        theta, phi: link angles at this device, shape (n,).

    Returns:
        t_forms: (n, 3, 3) complex, t[x, y] = x^T F F^H y* per position;
            t[0, 0] is also the receive gain |W^H a|^2.
        r_forms: (n, 3, 3) complex, r[x, y] = x^H U U^H y per position.
    """
    elements = np.asarray(elements, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    stacked = np.concatenate(
        [beams_h, beams_h * elements[0], beams_h * elements[1], beams_h * elements[2]]
    )

    n = theta.shape[0]
    t_forms = np.empty((n, 3, 3), dtype=np.complex128)
    r_forms = np.empty((n, 3, 3), dtype=np.complex128)
    k0 = 2.0 * np.pi / wavelength
    inv_sqrt_n = 1.0 / np.sqrt(elements.shape[1])
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        st, ct = np.sin(theta[lo:hi]), np.cos(theta[lo:hi])
        sp, cp = np.sin(phi[lo:hi]), np.cos(phi[lo:hi])
        kvec = k0 * np.stack([cp * st, sp * st, ct])  # (3, m)
        dkt = k0 * np.stack([cp * ct, sp * ct, -st])
        dkp = k0 * np.stack([-sp * st, cp * st, np.zeros_like(st)])
        a = np.exp(-1j * (elements.T @ kvec)) * inv_sqrt_n  # (N, m)
        v = _bundle(stacked @ a, dkt, dkp)
        t_forms[lo:hi] = _gram(v).conj()
        r_forms[lo:hi] = _gram(whitening @ v)
    return t_forms, r_forms


def _bundle(proj, dkt, dkp):
    """(3, n_beams, m) v = M (a, j da/dtheta, j da/dphi) from the stacked projection.

    ``proj`` stacks M a over M (e_c * a) for c = x, y, z, so
    M da/dtheta = -j v[1] and M da/dphi = -j v[2] with the contractions below.
    """
    n_beams = proj.shape[0] // 4
    parts = proj[n_beams:].reshape(3, n_beams, -1)
    return np.stack([
        proj[:n_beams],
        np.einsum("cm,cbm->bm", dkt, parts),
        np.einsum("cm,cbm->bm", dkp, parts),
    ])


def _gram(v):
    """(m, 3, 3) g[x, y] = b_x^H b_y over b = M (a, da/dtheta, da/dphi).

    ``v`` is `_bundle`'s (M a, j M da/dtheta, j M da/dphi): the j factors
    cancel on the (1, 2) block and give -j on row 0.
    """
    g = np.empty((v.shape[2], 3, 3), dtype=np.complex128)
    for x in range(3):
        g[:, x, x] = _sq_norms(v[x])
        for y in range(x + 1, 3):
            g[:, x, y] = np.einsum("bm,bm->m", v[x].conj(), v[y])
            if x == 0:
                g[:, x, y] *= -1j
            g[:, y, x] = g[:, x, y].conj()
    return g


def _sq_norms(v):
    """Squared 2-norm of each column of a complex (n_beams, m) block."""
    return np.einsum("bm,bm->m", v.real, v.real) + np.einsum("bm,bm->m", v.imag, v.imag)
