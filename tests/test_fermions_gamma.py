"""Gamma-matrix algebra in the DeGrand-Rossi basis."""

import numpy as np
import pytest

from repro.fermions.gamma import (
    GAMMA,
    GAMMA5,
    P_MINUS,
    P_PLUS,
    apply_spin_matrix,
    apply_spin_matrix_site_fastest,
    gamma5_sandwich,
    reconstruct_lower,
    sigma_munu,
    spin_project,
)
from repro.lattice.gauge import cmatvec_site_fastest


def field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def with_signed_zeros(psi):
    """``psi`` with every fifth element a zero of one sign or the other in
    each part: their bytes show a re-associated or re-ordered sum."""
    flat = psi.reshape(-1)
    flat[0::5] = 0.0
    flat[1::5] = complex(-0.0, -0.0)
    flat[2::5] = complex(-0.0, 1.5)
    return psi


def project(mu, sign, psi):
    return spin_project(mu, sign, psi, out=np.empty_like(psi[..., :2, :, :]))


def reconstruct(mu, sign, half):
    """The full projected spinor from its half spinor: the upper rows are
    the half spinor, the lower its scaled partner rows."""
    lower = reconstruct_lower(mu, sign, half, out=np.empty_like(half))
    return np.concatenate([half, lower], axis=-3)


class TestCliffordAlgebra:
    def test_anticommutators(self):
        for mu in range(4):
            for nu in range(4):
                anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                assert np.allclose(anti, 2 * (mu == nu) * np.eye(4)), (mu, nu)

    def test_hermitian(self):
        for mu in range(4):
            assert np.allclose(GAMMA[mu], GAMMA[mu].conj().T)

    def test_gamma5_squares_to_one(self):
        assert np.allclose(GAMMA5 @ GAMMA5, np.eye(4))

    def test_gamma5_anticommutes_with_all(self):
        for mu in range(4):
            assert np.allclose(GAMMA5 @ GAMMA[mu] + GAMMA[mu] @ GAMMA5, 0)

    def test_gamma5_is_product(self):
        assert np.allclose(GAMMA5, GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])

    def test_gamma5_diagonal_chiral_basis(self):
        # DeGrand-Rossi is a chiral basis: gamma5 diagonal with +-1 pairs.
        assert np.allclose(GAMMA5, np.diag(np.diag(GAMMA5)))
        assert sorted(np.diag(GAMMA5).real) == [-1, -1, 1, 1]

    def test_read_only(self):
        with pytest.raises(ValueError):
            GAMMA[0, 0, 0] = 1


class TestProjectors:
    def test_chiral_projectors_project(self):
        assert np.allclose(P_PLUS @ P_PLUS, P_PLUS)
        assert np.allclose(P_MINUS @ P_MINUS, P_MINUS)
        assert np.allclose(P_PLUS @ P_MINUS, 0)
        assert np.allclose(P_PLUS + P_MINUS, np.eye(4))

    def test_spin_project_rank_two(self):
        # (1 -+ gamma_mu) has rank 2 — the half-spinor compression that
        # halves QCDOC's wire traffic.
        for mu in range(4):
            for sign in (+1, -1):
                m = np.eye(4) - sign * GAMMA[mu]
                assert np.linalg.matrix_rank(m) == 2

    def test_spin_project_field(self):
        # spin_project returns the *half spinor* (the two independent rows
        # of the rank-2 projection) — exactly the 12 words per face site
        # QCDOC puts on the wire.  The upper rows must agree with the dense
        # projector product.  Fields are (spin, colour, site): site fastest.
        rng = np.random.default_rng(3)
        psi = field(rng, (4, 3, 10))
        out = project(1, +1, psi)
        assert out.shape == (2, 3, 10)
        ref = np.einsum("st,tcx->scx", np.eye(4) - GAMMA[1], psi)
        assert np.allclose(out, ref[:2])

    def test_reconstruct_project_roundtrip_all_directions(self):
        # Property test for the satellite contract: for every direction and
        # hop sign, reconstruct(project(psi)) == (1 -+ gamma_mu) psi to
        # 1e-12 — the compression is lossless for Wilson-type hops.
        rng = np.random.default_rng(11)
        psi = field(rng, (4, 3, 32))
        for mu in range(4):
            for sign in (+1, -1):
                full = reconstruct(mu, sign, project(mu, sign, psi))
                ref = np.einsum("st,tcx->scx", np.eye(4) - sign * GAMMA[mu], psi)
                assert np.max(np.abs(full - ref)) < 1e-12, (mu, sign)

    def test_project_reconstruct_out_params_match_fresh(self):
        # The kernels write the half spinor straight into a node-memory
        # stage buffer read site-fastest, a strided view: its bytes must
        # be those of a fresh contiguous buffer, leading axes included.
        rng = np.random.default_rng(12)
        psi = with_signed_zeros(field(rng, (3, 4, 3, 16)))
        stage = np.empty((3, 16, 2, 3), dtype=np.complex128)
        view = np.moveaxis(stage, 1, -1)
        for mu in range(4):
            for sign in (+1, -1):
                half = project(mu, sign, psi)
                assert spin_project(mu, sign, psi, out=view) is view
                assert view.tobytes(order="C") == half.tobytes()
                lower = reconstruct_lower(mu, sign, half, out=view)
                assert lower.tobytes(order="C") == reconstruct(mu, sign, half)[
                    :, 2:
                ].tobytes()

    def test_reconstruct_commutes_with_colour_multiply(self):
        # U (1 -+ gamma) psi == reconstruct(U . project(psi)): the SU(3)
        # multiply acts on colour only, so the sender may ship half
        # products — the theorem behind the compressed SCU exchange.
        rng = np.random.default_rng(13)
        psi = field(rng, (4, 3, 8))
        u = field(rng, (3, 3, 8))
        for mu in range(4):
            for sign in (+1, -1):
                projected = np.einsum("st,tcx->scx", np.eye(4) - sign * GAMMA[mu], psi)
                lhs = cmatvec_site_fastest(u, projected, out=np.empty_like(psi))
                half = project(mu, sign, psi)
                product = cmatvec_site_fastest(u, half, out=np.empty_like(half))
                rhs = reconstruct(mu, sign, product)
                assert np.max(np.abs(lhs - rhs)) < 1e-12, (mu, sign)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_site_fastest_spin_matrix_bytes(self, lead):
        # the domain-wall chiral hops and the r != 1 Wilson merge multiply
        # site-fastest fields: the same products, summed in the same
        # order, so the bytes of the site-slowest product, zeros included
        rng = np.random.default_rng(14)
        psi = with_signed_zeros(field(rng, lead + (9, 4, 3)))
        moved = np.ascontiguousarray(np.moveaxis(psi, len(lead), -1))
        for m in (P_MINUS, P_PLUS, GAMMA5, *GAMMA):
            want = apply_spin_matrix(m, psi)
            got = apply_spin_matrix_site_fastest(m, moved, out=np.empty_like(moved))
            assert np.moveaxis(got, -1, len(lead)).tobytes(order="C") == want.tobytes()


class TestSigma:
    def test_sigma_hermitian(self):
        for mu in range(4):
            for nu in range(4):
                if mu != nu:
                    s = sigma_munu(mu, nu)
                    assert np.allclose(s, s.conj().T)

    def test_sigma_antisymmetric(self):
        assert np.allclose(sigma_munu(0, 1), -sigma_munu(1, 0))

    def test_sigma_diagonal_vanishes(self):
        assert np.allclose(sigma_munu(2, 2), 0)

    def test_sigma_squares_to_identity(self):
        # sigma_{mu nu}^2 = 1 for mu != nu in Euclidean space.
        s = sigma_munu(0, 3)
        assert np.allclose(s @ s, np.eye(4))


class TestFieldHelpers:
    def test_gamma5_sandwich_is_involution(self):
        rng = np.random.default_rng(4)
        psi = rng.standard_normal((7, 4, 3)) + 1j * rng.standard_normal((7, 4, 3))
        assert np.allclose(gamma5_sandwich(gamma5_sandwich(psi)), psi)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_gamma5_sandwich_bytes_are_the_dense_products(self, lead):
        # the dense 4x4 product hands every zero back as +0; a copy with
        # the lower rows negated has the same values and other bytes
        rng = np.random.default_rng(6)
        shape = lead + (11, 4, 3)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = psi.reshape(-1)
        flat[0::5] = 0.0
        flat[1::5] = complex(-0.0, -0.0)
        flat[2::5] = complex(-0.0, 1.5)
        dense = apply_spin_matrix(GAMMA5, psi)
        negated = psi.copy()
        np.negative(negated[..., 2:, :], out=negated[..., 2:, :])
        assert np.array_equal(negated, dense) and negated.tobytes() != dense.tobytes()
        assert gamma5_sandwich(psi).tobytes() == dense.tobytes()
        out = np.full_like(psi, np.nan)
        assert gamma5_sandwich(psi, out=out) is out
        assert out.tobytes() == dense.tobytes()
        # the domain-wall reflection hands in a reversed view
        mirrored = psi[::-1]
        assert (
            gamma5_sandwich(mirrored).tobytes()
            == apply_spin_matrix(GAMMA5, mirrored).tobytes()
        )

    def test_apply_spin_matrix_broadcasts_over_extra_axes(self):
        rng = np.random.default_rng(5)
        psi = rng.standard_normal((2, 7, 4, 3)) + 0j  # e.g. (Ls, V, spin, colour)
        out = apply_spin_matrix(GAMMA5, psi)
        assert out.shape == psi.shape
        assert np.allclose(out[1], apply_spin_matrix(GAMMA5, psi[1]))
