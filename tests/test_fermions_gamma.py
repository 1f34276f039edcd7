"""Gamma-matrix algebra in the DeGrand-Rossi basis."""

import numpy as np
import pytest

from repro.fermions.gamma import (
    GAMMA,
    GAMMA5,
    P_MINUS,
    P_PLUS,
    apply_spin_matrix,
    gamma5_sandwich,
    sigma_munu,
    spin_project,
    spin_reconstruct,
)


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
        # projector product.
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((10, 4, 3)) + 1j * rng.standard_normal((10, 4, 3))
        out = spin_project(1, +1, psi)
        assert out.shape == (10, 2, 3)
        ref = np.einsum("st,xtc->xsc", np.eye(4) - GAMMA[1], psi)
        assert np.allclose(out, ref[:, :2, :])

    def test_reconstruct_project_roundtrip_all_directions(self):
        # Property test for the satellite contract: for every direction and
        # hop sign, reconstruct(project(psi)) == (1 -+ gamma_mu) psi to
        # 1e-12 — the compression is lossless for Wilson-type hops.
        rng = np.random.default_rng(11)
        psi = rng.standard_normal((32, 4, 3)) + 1j * rng.standard_normal((32, 4, 3))
        for mu in range(4):
            for sign in (+1, -1):
                full = spin_reconstruct(mu, sign, spin_project(mu, sign, psi))
                ref = np.einsum(
                    "st,xtc->xsc", np.eye(4) - sign * GAMMA[mu], psi
                )
                assert np.max(np.abs(full - ref)) < 1e-12, (mu, sign)

    def test_project_reconstruct_out_params_match_fresh(self):
        # The out= fast paths used by the allocation-free kernels must be
        # bitwise identical to the allocating paths.
        rng = np.random.default_rng(12)
        psi = rng.standard_normal((16, 4, 3)) + 1j * rng.standard_normal((16, 4, 3))
        half_ws = np.empty((16, 2, 3), dtype=np.complex128)
        full_ws = np.empty((16, 4, 3), dtype=np.complex128)
        for mu in range(4):
            for sign in (+1, -1):
                half = spin_project(mu, sign, psi)
                assert np.array_equal(
                    spin_project(mu, sign, psi, out=half_ws), half
                )
                assert np.array_equal(
                    spin_reconstruct(mu, sign, half, out=full_ws),
                    spin_reconstruct(mu, sign, half),
                )

    def test_reconstruct_commutes_with_colour_multiply(self):
        # U (1 -+ gamma) psi == reconstruct(U . project(psi)): the SU(3)
        # multiply acts on colour only, so the sender may ship half
        # products — the theorem behind the compressed SCU exchange.
        rng = np.random.default_rng(13)
        psi = rng.standard_normal((8, 4, 3)) + 1j * rng.standard_normal((8, 4, 3))
        u = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
        for mu in range(4):
            for sign in (+1, -1):
                lhs = np.einsum(
                    "xab,xsb->xsa",
                    u,
                    np.einsum("st,xtc->xsc", np.eye(4) - sign * GAMMA[mu], psi),
                )
                half = spin_project(mu, sign, psi)
                rhs = spin_reconstruct(
                    mu, sign, np.einsum("xab,xsb->xsa", u, half)
                )
                assert np.max(np.abs(lhs - rhs)) < 1e-12, (mu, sign)


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
