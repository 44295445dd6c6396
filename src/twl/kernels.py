"""Beam-space steering forms: the per-position kernel of every bound.

For each evaluated direction the bound pipeline needs, per device, the 3x3
quadratic-form tables of the steering bundle (the response a and its two
angle partials) through the device's transmit matrix F and through the
projector U·Uᴴ onto its receive beam space.

A device's transmit codebook is the conjugate of its receive codebook W, so
Fᵀ = Wᴴ, and U·Uᴴ = W·G⁻¹·Wᴴ with G = WᴴW. Both forms are therefore Gram
matrices of the one projection Wᴴ·(a, da/dtheta, da/dphi): the transmit form
as it stands, the receive form through G⁻¹.

Every array is a uniform rectangular array centred on its device
(`geometry.ArrayGeometry`), so its element offsets are symmetric about 0
along each plane axis. Write k = k0·u. Then

    Wᴴa = q0,   q0 = p_r∘p_c / (N·sqrt(n_beams)),

where p_r[b] = Σᵢ cos(ξᵢ·(u_b - u)[ax0]) sums over the row offsets in phase
units, ξᵢ = k0·(row offset i), and p_c likewise over the columns: a real
Dirichlet sum per beam and axis, because the sine terms cancel in mirrored
pairs. Both angle partials rescale the response by k0·element along du, so
with d_r[b] = Σᵢ ξᵢ·sin(ξᵢ·(u_b - u)[ax0]) and d_c likewise,

    Wᴴ·da/dx = du_x[ax0]·q_r + du_x[ax1]·q_c,

with q_r = d_r∘p_c and q_c = p_r∘d_c. The whole projection is real, and so
is G = WᴴW, whose whitening G^(-1/2) is a real symmetric n_beams x n_beams
matrix (`codebook_tables`): every form is a real symmetric 3x3 matrix.

Per step of m directions and per axis, the kernel takes one complex
exponential per direction, exp(j·u·k0·spacing/2), and the other
ceil(n/2) cos/sin rows of the axis as its powers (`_half_phases`), then one
real product (2·n_beams x 2·ceil(n/2))·(2·ceil(n/2) x m) that gives p and d
at once: by cos(a - b) = cos a·cos b + sin a·sin b and the matching sine
rule, the beam side of each product is a table built once (`beam_factors`).
The three real planes (q0, q_r, q_c) go through G^(-1/2) in one broadcast
product, and each 3x3 form is filled in closed form from the 6 real Grams
of its planes and the per-direction coefficients du[ax0] and du[ax1]
(`_fill_forms`). Everything is in phase units, so no metre-sized offset
meets a wavenumber-sized partial: the forms stay finite at any wavelength
the config accepts.

This is the one place that computes beam-space forms. The position
pipeline (`twl.scenario`) runs it over chunks of positions, and
`fim.channel_fim` at one direction per device; `codebook_tables` builds the
tables of both from a `Beamformer`'s directions. The independent per-pose
reference, from the full element coordinates, lives in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .beamforming import Beamformer, gram_inv_sqrt
from .geometry import ArrayGeometry, direction_with_partials

# Directions per step; one step's temporaries take ~2.5 MB at 25 beams.
# `run_cdf` at 10^5 positions, one BLAS thread, 16 alternating in-process
# rounds on a shared 2-vCPU Xeon: best/median 0.41/0.47 s with steps of
# 512, 0.34/0.41 s with 1024 and 0.33/0.40 s with 2048, within the spread
# of rounds. The position pipeline's chunk (`scenario._CHUNK`) is a
# multiple of it.
_CHUNK = 1024


@dataclass(frozen=True)
class DeviceTables:
    """A device's receive codebook W in the per-axis form the kernel takes.

    ``rows`` stacks the beam side of p_r over that of d_r, each
    (n_beams, 2·ceil(rows/2)) with the cos/sin pairs of `_half_phases`
    interleaved and the 1/(N·sqrt(n_beams)) scale folded in; ``cols`` does
    the same for the columns, unscaled. ``whitening`` is the real symmetric
    G^(-1/2) of the Gram matrix G = WᴴW, (n_beams, n_beams).
    """

    rows: np.ndarray
    cols: np.ndarray
    whitening: np.ndarray


def _phase_step(geometry: ArrayGeometry) -> float:
    """k0·spacing: the grid step in radians per unit of u."""
    return 2.0 * np.pi / geometry.wavelength * geometry.spacing


def _half_phases(n: int, step: float, u: np.ndarray) -> np.ndarray:
    """exp(j·ξ_l·u), (len(u), ceil(n/2)), over the offsets ξ_l ≥ 0 of an n-element axis.

    ξ_l = (l + 1/2)·step for even n and l·step for odd n: the mirrored half
    of the axis's offsets in phase units. One exponential e = exp(j·u·step/2)
    is taken per direction; row l is e·(e²)^l for even n and (e²)^l for odd
    n, so its rounding error grows by a few ulps per row.
    """
    half = n - n // 2
    e = np.exp(0.5j * step * u)
    z = e * e
    out = np.empty((u.shape[0], half), dtype=np.complex128)
    out[:, 0] = 1.0 if n % 2 else e
    for l in range(1, half):
        np.multiply(out[:, l - 1], z, out=out[:, l])
    return out


def _axis_table(n: int, step: float, u_beams: np.ndarray, scale: float) -> np.ndarray:
    """Beam side of one axis's product: the p rows over the d rows, (2·n_beams, 2·ceil(n/2)).

    With z = exp(j·ξ·u_b) the beam's and y = exp(j·ξ·u) a direction's
    `_half_phases` row, Re(z·ȳ) = cos(ξ·(u_b − u)) and Re(−j·ξ·z·ȳ) =
    ξ·sin(ξ·(u_b − u)); as interleaved (re, im) pairs each is a real dot
    product. The weight 2 counts each mirrored pair, 1 the zero offset.
    """
    half = n - n // 2
    xi = (np.arange(half) + (1 - n % 2) / 2.0) * step
    weight = np.full(half, 2.0 * scale)
    if n % 2:
        weight[0] = scale
    z = _half_phases(n, step, u_beams) * weight
    return np.concatenate([z, -1j * xi * z]).view(np.float64)


def beam_factors(geometry: ArrayGeometry, directions) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of `DeviceTables` for a receive codebook over ``directions``."""
    theta, phi = np.asarray(directions, dtype=np.float64).reshape(-1, 2).T
    u = direction_with_partials(theta, phi)[0]  # (3, n_beams)
    step = _phase_step(geometry)
    ax0, ax1 = geometry.axes
    scale = 1.0 / (geometry.n_elements * np.sqrt(theta.shape[0]))
    return (_axis_table(geometry.rows, step, u[ax0], scale),
            _axis_table(geometry.cols, step, u[ax1], 1.0))


def codebook_tables(geometry: ArrayGeometry, beams: Beamformer) -> DeviceTables:
    """`DeviceTables` of a `directional_beams` codebook, from its directions.

    A receive codebook W gives G^(-1/2) of its Gram matrix G = WᴴW, real
    because each column of a centred array is conjugate-symmetric about the
    origin, so G is the Gram matrix of the real stack of W's real and
    imaginary parts. `gram_inv_sqrt` raises `SingularBeamsError` for a
    singular G, and its root is symmetrised exactly. A transmit
    codebook conj(W) is read through its t forms alone, which need no
    whitening: its tables carry the identity there, so a transmit set may
    repeat a direction.
    """
    whitening = np.eye(beams.n_beams)
    if beams.role == "receive":
        root = gram_inv_sqrt(np.concatenate([beams.matrix.real, beams.matrix.imag]))
        whitening = 0.5 * (root + root.T)
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
        t_forms: (3, 3, n) float64, C-contiguous and exactly symmetric,
            t[x, y] = x^T F F^H y* per direction; t[0, 0] is also the
            receive gain |W^H a|^2.
        r_forms: (3, 3, n) likewise, r[x, y] = x^H U U^H y per direction.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    ax0, ax1 = geometry.axes
    n = theta.shape[0]
    t_forms = np.empty((3, 3, n))
    r_forms = np.empty((3, 3, n))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        u, *du = direction_with_partials(theta[lo:hi], phi[lo:hi])  # (3, m) each
        du = np.stack(du)  # (2, 3, m): the theta and the phi partial
        q = _planes(geometry, tables, u)
        a, b = du[:, ax0], du[:, ax1]
        x, y = [0, 0, 1], [0, 1, 1]  # `_fill_forms`' (x, y) pairs
        products = a[x] * a[y], a[x] * b[y] + b[x] * a[y], b[x] * b[y]
        _fill_forms(t_forms[..., lo:hi], q, a, b, products)
        _fill_forms(r_forms[..., lo:hi], tables.whitening @ q, a, b, products)
    return t_forms, r_forms


def _planes(geometry: ArrayGeometry, tables: DeviceTables, u: np.ndarray) -> np.ndarray:
    """The real planes (q0, q_r, q_c), (3, n_beams, m), at unit directions ``u`` (3, m)."""
    step = _phase_step(geometry)
    ax0, ax1 = geometry.axes
    n_beams = tables.whitening.shape[0]
    p_r, d_r = (tables.rows @ _half_phases(geometry.rows, step, u[ax0])
                .view(np.float64).T).reshape(2, n_beams, -1)
    p_c, d_c = (tables.cols @ _half_phases(geometry.cols, step, u[ax1])
                .view(np.float64).T).reshape(2, n_beams, -1)
    q = np.empty((3, n_beams, u.shape[1]))  # filled in place: stacking temporaries is slower
    np.multiply(p_r, p_c, out=q[0])
    np.multiply(d_r, p_c, out=q[1])
    np.multiply(p_r, d_c, out=q[2])
    return q


def _fill_forms(out, q, a, b, products):
    """Fill ``out`` (3, 3, m) with g[x, y] = v_x·v_y over the bundle of the planes ``q``.

    ``q`` is (q0, q_r, q_c), (3, n_beams, m); ``a`` and ``b`` are (2, m)
    over the theta and phi partials, with v_0 = q0 and v_x = a_x·q_r + b_x·q_c
    the projection of da/dx. With h_x = q0·v_x, g[0, x] = h_x and g[x, y] =
    a_x·a_y·|q_r|² + (a_x·b_y + b_x·a_y)·q_r·q_c + b_x·b_y·|q_c|², with the
    three ``products`` (3, m) at (x, y) = (0, 0), (0, 1), (1, 1); each
    mirrored entry is the same float.
    """
    aa, ab, bb = products
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    g00, g0r, g0c, grr, grc, gcc = (np.einsum("bm,bm->m", q[x], q[y]) for x, y in pairs)
    out[0, 0] = g00
    out[0, 1:] = out[1:, 0] = a * g0r + b * g0c
    for k, (x, y) in enumerate(((0, 0), (0, 1), (1, 1))):
        out[x + 1, y + 1] = out[y + 1, x + 1] = aa[k] * grr + ab[k] * grc + bb[k] * gcc
