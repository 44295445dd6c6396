"""Beam-space steering forms: the per-position kernel of every bound.

For each evaluated direction the bound pipeline needs, per device, the 3x3
quadratic-form tables of the steering bundle (the response a and its two
angle partials) through the device's transmit matrix F and receive-space
basis U, plus the raw receive combining gain |W^H a|^2.

Both partials rescale the response elementwise: da/dtheta = -j (E^T dk/dtheta) * a
and da/dphi = -j (E^T dk/dphi) * a, with E the element coordinates. So every
projection the forms need is a row block of B @ a, with the stacked matrix

    B = [F^T; F^T diag(e_x); F^T diag(e_y); F^T diag(e_z);
         U^H; U^H diag(e_x); U^H diag(e_y); U^H diag(e_z); W^H]

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
    tx_matrix_t: np.ndarray,
    rx_basis_h: np.ndarray,
    rx_matrix_h: np.ndarray,
    theta: np.ndarray,
    phi: np.ndarray,
):
    """Beam-space quadratic forms of one device over a batch of directions.

    Args:
        elements: 3xN element coordinates of the device.
        wavelength: carrier wavelength.
        tx_matrix_t: F^T, shape (n_beams, N).
        rx_basis_h: U^H with U an orthonormal receive-space basis, (n_beams, N).
        rx_matrix_h: W^H, raw receive matrix, (n_beams, N).
        theta, phi: link angles at this device, shape (n,).

    Returns:
        t_forms: (n, 3, 3) complex, t[x, y] = x^T F F^H y* per position.
        r_forms: (n, 3, 3) complex, r[x, y] = x^H U U^H y per position.
        rx_gain_sq: (n,) float, |W^H a|^2 per position.
    """
    elements = np.asarray(elements, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    tx_rows = 4 * tx_matrix_t.shape[0]
    rx_rows = tx_rows + 4 * rx_basis_h.shape[0]
    stacked = np.concatenate([
        block
        for m in (tx_matrix_t, rx_basis_h)
        for block in (m, m * elements[0], m * elements[1], m * elements[2])
    ] + [rx_matrix_h])

    n = theta.shape[0]
    t_forms = np.empty((n, 3, 3), dtype=np.complex128)
    r_forms = np.empty((n, 3, 3), dtype=np.complex128)
    rx_gain_sq = np.empty(n, dtype=np.float64)
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
        proj = stacked @ a
        t_forms[lo:hi] = _gram(proj[:tx_rows], dkt, dkp).conj()
        r_forms[lo:hi] = _gram(proj[tx_rows:rx_rows], dkt, dkp)
        rx_gain_sq[lo:hi] = _sq_norms(proj[rx_rows:])
    return t_forms, r_forms, rx_gain_sq


def _gram(proj, dkt, dkp):
    """(m, 3, 3) g[x, y] = v_x^H v_y over v = M (a, da/dtheta, da/dphi).

    ``proj`` stacks M a over M (e_c * a) for c = x, y, z, so
    M da/dtheta = -j v[1] and M da/dphi = -j v[2] with the contractions below;
    the -j factors cancel on the (1, 2) block and give -j on row 0.
    """
    n_beams = proj.shape[0] // 4
    parts = proj[n_beams:].reshape(3, n_beams, -1)
    v = (
        proj[:n_beams],
        np.einsum("cm,cbm->bm", dkt, parts),
        np.einsum("cm,cbm->bm", dkp, parts),
    )
    g = np.empty((proj.shape[1], 3, 3), dtype=np.complex128)
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
