"""Beam-space steering forms: the per-position kernel of every bound.

For each evaluated direction the bound pipeline needs, per device, the 3x3
quadratic-form tables of the steering bundle (the response a and its two
angle partials) through the device's transmit matrix F and through the
projector U·Uᴴ onto its receive beam space.

A device's transmit codebook is the conjugate of its receive codebook W, so
Fᵀ = Wᴴ, and U·Uᴴ = W·G⁻¹·Wᴴ with G = WᴴW. Both forms are therefore Gram
matrices of the one projection Wᴴ·(a, da/dtheta, da/dphi): the transmit form
as it stands, the receive form after the n_beams x n_beams G^(-1/2).

Every array is a uniform rectangular array (`geometry.ArrayGeometry`).
Its response factors per plane axis, a = c(k)·(a_row ⊗ a_col)/sqrt(N)
with a unit centre phase c(k), and so does every codebook column. The
projection is then an elementwise product,

    Wᴴa = c(k)·P_row∘P_col,   P_row = R·a_row,  P_col = S·a_col,

with R (n_beams x rows) and S (n_beams x cols) the conjugated per-axis beam
factors, the 1/(N·sqrt(n_beams)) scale and each beam's centre phase folded
into R (`beam_factors`). Both angle partials rescale the response by the
element coordinates along dk, e = centre + (row offset, col offset):

    j Wᴴ da/dx = c(k)·[(centre·dk)·P_row∘P_col
                      + dk_ax0·D_row∘P_col + dk_ax1·P_row∘D_col],

where D_row and D_col project through the offset-weighted copies of R and
S, stacked under them. The offsets along each axis are symmetric about
0, so the phase of offset -x is the conjugate of that of x, and only
ceil(rows/2) + ceil(cols/2) complex exponentials per direction are taken
(`_phases`). A chunk of m directions thus costs those exponentials and the
two products (2·n_beams x rows)·(rows x m) and (2·n_beams x cols)·(cols x
m), where projecting through the full codebook would need N exponentials
per direction and a (4·n_beams x N)·(N x m) product. c(k) multiplies the
whole bundle and cancels in every form; each Hermitian form is filled from
its 6 unique entries.

This is the one place that computes beam-space forms. The position
pipeline (`twl.scenario`) runs it over chunks of positions, and
`fim.channel_fim` at one direction per device; `codebook_tables` builds the
tables of both from a `Beamformer`'s directions. The independent per-pose
reference, from the full element coordinates, lives in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .beamforming import Beamformer, gram_inv_sqrt
from .geometry import ArrayGeometry, wavenumber, wavenumber_with_partials

# Directions per step. One step's temporaries take ~6 MB, so they stay in
# cache: at 10^5 directions on one thread, 1024 ran ~15% faster than 4096.
# The position pipeline's chunk (`scenario._CHUNK`) is a multiple of it.
_CHUNK = 1024


@dataclass(frozen=True)
class DeviceTables:
    """A device's receive codebook W in the per-axis form the kernel takes.

    Column b of W is c_b·(r_b ⊗ s_b)/sqrt(N·n_beams), with r_b and s_b the
    steering factors of beam direction b along the array's two plane axes
    and c_b its centre phase. ``rows`` stacks R, the rows
    conj(c_b·r_b)/(N·sqrt(n_beams)), over R·diag(row offsets):
    (2·n_beams, rows). ``cols`` stacks S, the rows conj(s_b), over
    S·diag(col offsets): (2·n_beams, cols). ``whitening`` is G^(-1/2) of
    G = WᴴW, (n_beams, n_beams).
    """

    rows: np.ndarray
    cols: np.ndarray
    whitening: np.ndarray


def beam_factors(geometry: ArrayGeometry, directions) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of `DeviceTables` for a receive codebook over ``directions``."""
    theta, phi = np.asarray(directions, dtype=np.float64).reshape(-1, 2).T
    k = wavenumber(theta, phi, geometry.wavelength)  # (3, n_beams)
    x, y = geometry.offsets()
    ax0, ax1 = geometry.axes
    scale = np.exp(1j * (np.asarray(geometry.center) @ k)) / (
        geometry.n_elements * np.sqrt(theta.shape[0])
    )
    r = np.exp(1j * np.outer(k[ax0], x)) * scale[:, None]
    s = np.exp(1j * np.outer(k[ax1], y))
    return np.concatenate([r, r * x]), np.concatenate([s, s * y])


def codebook_tables(geometry: ArrayGeometry, beams: Beamformer) -> DeviceTables:
    """`DeviceTables` of a `directional_beams` codebook, from its directions.

    A receive codebook W gives G^(-1/2) of G = WᴴW, which raises
    `SingularBeamsError` for a singular G. A transmit codebook conj(W) is
    read through its t forms alone, which need no G^(-1/2): its tables carry
    the identity there, so a transmit set may repeat a direction.
    """
    whitening = (gram_inv_sqrt(beams.matrix) if beams.role == "receive"
                 else np.eye(beams.n_beams))
    return DeviceTables(*beam_factors(geometry, beams.directions), whitening=whitening)


def steering_forms(
    geometry: ArrayGeometry, tables: DeviceTables, theta: np.ndarray, phi: np.ndarray
):
    """Beam-space quadratic forms of one device over a batch of directions.

    Args:
        geometry: the device's array.
        tables: the device's codebook factors and G^(-1/2).
        theta, phi: link angles at this device, shape (n,).

    Returns:
        t_forms: (n, 3, 3) complex, t[x, y] = x^T F F^H y* per position;
            t[0, 0] is also the receive gain |W^H a|^2.
        r_forms: (n, 3, 3) complex, r[x, y] = x^H U U^H y per position.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    x, y = geometry.offsets()
    ax0, ax1 = geometry.axes
    center = np.asarray(geometry.center)
    n_beams = tables.whitening.shape[0]

    n = theta.shape[0]
    t_forms = np.empty((n, 3, 3), dtype=np.complex128)
    r_forms = np.empty((n, 3, 3), dtype=np.complex128)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        th, ph = theta[lo:hi], phi[lo:hi]
        kvec, dkt, dkp = wavenumber_with_partials(th, ph, geometry.wavelength)  # (3, m) each
        p_row, d_row = (tables.rows @ _phases(x, kvec[ax0])).reshape(2, n_beams, -1)
        p_col, d_col = (tables.cols @ _phases(y, kvec[ax1])).reshape(2, n_beams, -1)
        v0 = p_row * p_col
        along_row = d_row * p_col
        along_col = p_row * d_col
        v = np.stack([
            v0,
            (center @ dkt) * v0 + dkt[ax0] * along_row + dkt[ax1] * along_col,
            (center @ dkp) * v0 + dkp[ax0] * along_row + dkp[ax1] * along_col,
        ])
        t_forms[lo:hi] = _gram(v).conj()
        r_forms[lo:hi] = _gram(tables.whitening @ v)
    return t_forms, r_forms


def _phases(offsets, k):
    """exp(-j·outer(offsets, k)) for offsets symmetric about 0 (`ArrayGeometry.offsets`).

    Offset n-1-i is exactly -offset i, so its row is the conjugate of row
    i: only the first ceil(n/2) rows are exponentiated.
    """
    n = offsets.shape[0]
    half = n - n // 2
    out = np.empty((n, k.shape[0]), dtype=np.complex128)
    np.exp(-1j * np.outer(offsets[:half], k), out=out[:half])
    np.conjugate(out[:n // 2][::-1], out=out[half:])
    return out


def _gram(v):
    """(m, 3, 3) g[x, y] = b_x^H b_y over b = M (a, da/dtheta, da/dphi).

    ``v`` is (M a, j M da/dtheta, j M da/dphi), up to one unit phase per
    direction: the j factors cancel on the (1, 2) block and give -j on row 0.
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
