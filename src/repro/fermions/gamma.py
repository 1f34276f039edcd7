"""Euclidean gamma matrices (DeGrand-Rossi basis) and spin algebra.

Conventions: hermitian ``gamma_mu`` with ``{gamma_mu, gamma_nu} = 2
delta_{mu nu}``; ``gamma_5 = gamma_0 gamma_1 gamma_2 gamma_3`` is diagonal
in this basis.  Axis order follows the lattice: ``mu = 0..3`` = x, y, z, t.
"""

from __future__ import annotations

import numpy as np

_I = 1j

#: ``GAMMA[mu]`` is the 4x4 gamma matrix for direction mu (read-only).
GAMMA = np.array(
    [
        # gamma_x
        [
            [0, 0, 0, _I],
            [0, 0, _I, 0],
            [0, -_I, 0, 0],
            [-_I, 0, 0, 0],
        ],
        # gamma_y
        [
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ],
        # gamma_z
        [
            [0, 0, _I, 0],
            [0, 0, 0, -_I],
            [-_I, 0, 0, 0],
            [0, _I, 0, 0],
        ],
        # gamma_t
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
    ],
    dtype=np.complex128,
)
GAMMA.setflags(write=False)

#: ``gamma_5 = gamma_x gamma_y gamma_z gamma_t`` (diagonal +1,+1,-1,-1 here).
GAMMA5 = np.ascontiguousarray(GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])
GAMMA5.setflags(write=False)

#: Chiral projectors ``P_pm = (1 pm gamma_5)/2`` — the domain-wall fermion
#: 5th-dimension hopping matrices.
P_PLUS = np.ascontiguousarray((np.eye(4) + GAMMA5) / 2.0)
P_MINUS = np.ascontiguousarray((np.eye(4) - GAMMA5) / 2.0)
P_PLUS.setflags(write=False)
P_MINUS.setflags(write=False)


def sigma_munu(mu: int, nu: int) -> np.ndarray:
    """``sigma_{mu nu} = (i/2) [gamma_mu, gamma_nu]`` (hermitian for mu != nu).

    The clover term is ``-(c_sw/2) sum_{mu<nu} sigma_{mu nu} F_{mu nu}``.
    """
    return 0.5j * (GAMMA[mu] @ GAMMA[nu] - GAMMA[nu] @ GAMMA[mu])


def apply_spin_matrix(
    m: np.ndarray, psi: np.ndarray, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Apply a 4x4 spin matrix to a field ``(..., 4, 3)``.

    ``out`` (which must not alias ``psi``) makes the call allocation-free;
    the einsum arithmetic is identical.
    """
    if out is None:
        return np.einsum("st,...tc->...sc", m, psi)
    return np.einsum("st,...tc->...sc", m, psi, out=out)


def apply_spin_matrix_site_fastest(
    m: np.ndarray, psi: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """:func:`apply_spin_matrix` on ``(..., 4, 3, V)`` fields, the site
    index fastest (the layout of
    :func:`repro.lattice.gauge.cmatvec_site_fastest`).

    The products and their ``t = 0..3`` accumulation order are those of
    :func:`apply_spin_matrix`, so the result is byte-equal to it; only
    einsum's inner loop changes, from three colours to ``V`` sites.
    ``out`` must not alias ``psi``.
    """
    return np.einsum("st,...tcx->...scx", m, psi, out=out)


#: ``_PARTNER[mu, s]`` — the single column where ``GAMMA[mu]`` row ``s``
#: is nonzero (every DeGrand-Rossi gamma is a signed permutation, one
#: entry per row), and ``_COEFF[mu, s]`` — that entry's value.  Because
#: the basis is chiral, rows 0-1 pair with columns 2-3 and vice versa:
#: every row of ``(1 -+ gamma_mu) psi`` mixes exactly one upper and one
#: lower component, which is what makes the rank-2 half-spinor
#: compression an index + scale operation (no dense 4x4 product).
_PARTNER = np.argmax(GAMMA != 0, axis=2)
_COEFF = np.take_along_axis(GAMMA, _PARTNER[:, :, None], axis=2)[:, :, 0]
_PARTNER.setflags(write=False)
_COEFF.setflags(write=False)

# sanity of the import-time tables: one nonzero per row, involutive
# pairing across chiralities, unit-modulus coefficients.
assert np.count_nonzero(GAMMA) == 16
assert all(
    _PARTNER[mu, _PARTNER[mu, s]] == s for mu in range(4) for s in range(4)
)
assert np.all(_PARTNER[:, :2] >= 2) and np.all(_PARTNER[:, 2:] < 2)
assert np.allclose(np.abs(_COEFF), 1.0)


def _rows(pair) -> slice:
    """Two partner rows as a (possibly descending) slice: a strided view
    where fancy indexing would copy."""
    first, second = (int(row) for row in pair)
    step = second - first
    stop = second + step
    return slice(first, stop if stop >= 0 else None, step)


#: ``HALF_SPINOR[mu, sign]`` — everything the hopping kernels need of
#: ``1 - sign * gamma_mu``: the partner rows of the upper pair and the
#: coefficients :func:`spin_project` scales them by, then the partner rows
#: of the lower pair and :func:`reconstruct_lower`'s coefficients.  The
#: coefficient expressions are written here once; a zero in them carries
#: a sign that reaches the result's bytes.
HALF_SPINOR = {
    (mu, sign): (
        _rows(_PARTNER[mu, :2]),
        sign * _COEFF[mu, :2],
        _rows(_PARTNER[mu, 2:]),
        -(sign * _COEFF[mu, 2:]),
    )
    for mu in range(4)
    for sign in (+1, -1)
}


def spin_project(mu: int, sign: int, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Compress ``(1 - sign * gamma_mu) psi`` to its two independent rows.

    The Wilson hopping projector ``1 -+ gamma_mu`` has rank 2: the lower
    two spin rows of the projected spinor are fixed phase multiples of the
    upper two (see :func:`reconstruct_lower`).  QCDOC's SCU therefore
    never puts a full spinor on the wire — only the **half spinor**
    computed here travels (12 words per face site instead of 24), half
    the naive payload.  Forward hopping uses ``sign=+1``
    (``1 - gamma_mu``), backward ``sign=-1`` (``1 + gamma_mu``).

    ``psi`` is ``(..., 4, 3, V)`` and ``out`` ``(..., 2, 3, V)``: the site
    index fastest, the layout every hopping kernel computes in (DESIGN.md
    §12).  ``out`` may be a strided view (a node-memory stage buffer read
    site-fastest).  Implemented with the import-time :data:`HALF_SPINOR`
    table as a strided row view, a multiply and a subtract — no dense 4x4
    einsum and no partner copy.
    """
    rows, coeff, _, _ = HALF_SPINOR[mu, sign]
    np.multiply(psi[..., rows, :, :], coeff[:, None, None], out=out)
    np.subtract(psi[..., :2, :, :], out, out=out)
    return out


def reconstruct_lower(
    mu: int, sign: int, half: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The lower two rows of the projected spinor, from its half spinor.

    For ``h = (1 - sign * gamma_mu) psi`` the lower rows satisfy
    ``h[j] = -(sign * c_j) h[p_j]`` with ``c_j = GAMMA[mu, j, p_j]`` and
    ``p_j`` the chirality partner of row ``j`` — a consequence of
    ``gamma_mu^2 = 1`` (so ``c_j c_{p_j} = 1``); the upper two rows are
    ``half`` itself.  Reconstruction is thus the receiving node's index +
    scale expansion of the 12 words that arrived on the wire; commuting
    with the SU(3) colour multiply, it lets the sender ship half spinors
    (and half products) with **no** change to the assembled physics.  The
    hopping kernels accumulate ``half`` into the upper rows and this into
    the lower ones, so no reconstructed full spinor is ever stored.

    ``half`` and ``out`` are ``(..., 2, 3, V)``, the site index fastest.
    """
    _, _, rows, coeff = HALF_SPINOR[mu, sign]
    return np.multiply(half[..., rows, :, :], coeff[:, None, None], out=out)


def gamma5_sandwich(psi: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """``gamma_5 psi`` for fields ``(..., 4, 3)``.

    ``gamma_5`` is ``diag(+1, +1, -1, -1)`` in this basis, so the upper
    rows are copied and the lower negated — as ``x + 0`` and ``0 - x``,
    which leave every zero ``+0`` exactly as the dense 4x4 product
    ``apply_spin_matrix(GAMMA5, psi)`` does (a plain ``np.negative``
    would hand back ``-0``: equal values, different bytes).  ``out``
    (which must not alias ``psi``) makes the call allocation-free for the
    zero-copy hot-path ``D^+``.
    """
    if out is None:
        out = np.empty(psi.shape, dtype=np.complex128)
    np.add(psi[..., :2, :], 0.0, out=out[..., :2, :])
    np.subtract(0.0, psi[..., 2:, :], out=out[..., 2:, :])
    return out
