"""Gauge fields: starts, transport, plaquettes, staples, clover leaves."""

import numpy as np
import pytest

from repro.lattice import GaugeField, LatticeGeometry
from repro.lattice.su3 import dagger, is_su3
from repro.util import rng_stream
from repro.util.errors import ConfigError


@pytest.fixture
def geom():
    return LatticeGeometry((4, 4, 4, 4))


@pytest.fixture
def rng():
    return rng_stream(7, "gauge-tests")


class TestConstruction:
    def test_unit_field_is_identity(self, geom):
        u = GaugeField.unit(geom)
        assert np.allclose(u.links, np.eye(3))
        assert u.is_unitary()

    def test_hot_field_is_su3(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        assert u.is_unitary(tol=1e-9)

    def test_weak_field_near_identity(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=1e-3)
        assert u.is_unitary(tol=1e-9)
        assert np.max(np.abs(u.links - np.eye(3))) < 1e-2

    def test_shape_mismatch_rejected(self, geom):
        with pytest.raises(ConfigError):
            GaugeField(geom, np.zeros((4, 2, 3, 3), dtype=complex))

    def test_copy_is_independent(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        v = u.copy()
        v.set_links(0, 0, 0)
        assert not np.allclose(u.links[0, 0], 0)


class TestStaleLayout:
    """The Dirac kernels read a site-fastest ``U`` / ``U^+`` pair the field
    keeps resident; nothing may change the links and leave it behind."""

    def test_in_place_write_raises(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        with pytest.raises(ValueError, match="read-only"):
            u.links[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            u[1][3] = np.eye(3)

    def test_handed_out_links_are_not_adopted_writeable(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        v = GaugeField(geom, u.links)  # a read-only view: copied, not shared
        v.set_links(0, 0, 0)
        assert not np.allclose(u.links[0, 0], 0)

    @pytest.mark.parametrize("change", ["rebind", "set_links", "reunitarise"])
    def test_operator_built_before_a_change_applies_the_new_field(
        self, geom, rng, change
    ):
        from repro.fermions import NaiveStaggeredDirac, WilsonDirac

        u = GaugeField.hot(geom, rng)
        shape = (geom.volume, 4, 3)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wilson, staggered = WilsonDirac(u, mass=0.3), NaiveStaggeredDirac(u, mass=0.2)
        wilson.apply(psi), staggered.apply(psi[:, 0])  # the pair is resident now
        other = GaugeField.hot(geom, rng)
        if change == "rebind":
            u.links = other.links
        elif change == "set_links":
            u.set_links(2, geom.odd_sites, other.links[2][geom.odd_sites])
        else:
            u.links = u.links + 1e-3 * other.links
            u.reunitarise()
        fresh = u.copy()
        for built, psi_ in ((wilson, psi), (staggered, psi[:, 0])):
            again = type(built)(fresh, mass=built.mass)
            assert built.apply(psi_).tobytes() == again.apply(psi_).tobytes()
            assert (
                built.apply_dagger(psi_).tobytes() == again.apply_dagger(psi_).tobytes()
            )


class TestTransport:
    def test_unit_transport_is_shift(self, geom, rng):
        u = GaugeField.unit(geom)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
        fwd = geom.neighbour_fwd(2)
        assert np.allclose(u.transport_fwd(2, psi), psi[fwd])

    def test_bwd_inverts_fwd_on_gauge_field(self, geom, rng):
        # transport_bwd(mu, transport_fwd(mu, psi)) = U+(x-mu)U(x-mu) psi = psi
        u = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
        roundtrip = u.transport_bwd(0, u.transport_fwd(0, psi))
        assert np.allclose(roundtrip, psi, atol=1e-12)

    def test_transport_preserves_norm(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (geom.volume, 4, 3)
        )
        out = u.transport_fwd(1, psi)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi))


class TestPlaquette:
    def test_unit_plaquette_is_one(self, geom):
        assert GaugeField.unit(geom).plaquette() == pytest.approx(1.0)

    def test_hot_plaquette_near_zero(self, geom, rng):
        # Haar-random links: <Re tr P / 3> = 0 with O(1/sqrt(V)) fluctuation.
        p = GaugeField.hot(geom, rng).plaquette()
        assert abs(p) < 0.05

    def test_weak_plaquette_slightly_below_one(self, geom, rng):
        p = GaugeField.weak(geom, rng, eps=0.05).plaquette()
        assert 0.99 < p < 1.0

    def test_plaquette_gauge_invariant(self, geom, rng):
        from repro.lattice.su3 import random_su3

        u = GaugeField.weak(geom, rng, eps=0.3)
        p0 = u.plaquette()
        # Random gauge transformation g(x): U_mu(x) -> g(x) U_mu(x) g(x+mu)+.
        g = random_su3(rng, geom.volume)
        for mu in range(geom.ndim):
            fwd = geom.neighbour_fwd(mu)
            u.set_links(mu, slice(None), g @ u.links[mu] @ dagger(g[fwd]))
        assert u.plaquette() == pytest.approx(p0, abs=1e-12)

    def test_plaquette_field_is_unitary(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        p = u.plaquette_field(0, 3)
        assert is_su3(p, tol=1e-9)


class TestStaple:
    def test_staple_reproduces_plaquette_sum(self, geom, rng):
        # Every unoriented plaquette shows up 4x in sum_mu Re tr[U_mu S_mu]
        # (up+down staple for each of its two link directions), so
        # sum_x sum_{mu<nu} Re tr P = (1/4) sum_mu sum_x Re tr[U_mu S_mu].
        u = GaugeField.weak(geom, rng, eps=0.4)
        lhs = 0.0
        for mu in range(4):
            for nu in range(mu + 1, 4):
                lhs += float(np.einsum("xaa->", u.plaquette_field(mu, nu)).real)
        rhs = 0.0
        for mu in range(4):
            rhs += float(np.einsum("xab,xba->", u.links[mu], u.staple(mu)).real)
        assert rhs / 4.0 == pytest.approx(lhs, rel=1e-12)

    def test_unit_staple_is_six_identities(self, geom):
        s = GaugeField.unit(geom).staple(0)
        assert np.allclose(s, 6 * np.eye(3))


class TestClover:
    def test_unit_leaves_are_four_identities(self, geom):
        q = GaugeField.unit(geom).clover_leaves(0, 1)
        assert np.allclose(q, 4 * np.eye(3))

    def test_field_strength_antihermitian_traceless(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        f = u.field_strength(1, 2)
        assert np.allclose(f, -dagger(f), atol=1e-12)
        assert np.allclose(np.trace(f, axis1=-2, axis2=-1), 0, atol=1e-12)

    def test_field_strength_vanishes_on_unit_field(self, geom):
        f = GaugeField.unit(geom).field_strength(0, 3)
        assert np.allclose(f, 0, atol=1e-14)

    def test_field_strength_antisymmetric_in_indices(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=0.2)
        f01 = u.field_strength(0, 1)
        f10 = u.field_strength(1, 0)
        assert np.allclose(f01, -f10, atol=1e-12)

    def test_weak_field_strength_linear_in_eps(self, rng):
        # |F| should scale ~ eps for small fluctuations.
        geom = LatticeGeometry((4, 4, 4, 4))
        r1 = rng_stream(11, "fs-lin")
        u1 = GaugeField.weak(geom, r1, eps=1e-4)
        r2 = rng_stream(11, "fs-lin")
        u2 = GaugeField.weak(geom, r2, eps=2e-4)
        n1 = np.linalg.norm(u1.field_strength(0, 1))
        n2 = np.linalg.norm(u2.field_strength(0, 1))
        assert n2 / n1 == pytest.approx(2.0, rel=0.05)


class TestReunitarise:
    def test_drifted_field_restored(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        u.links = u.links + 1e-6 * rng.standard_normal(u.links.shape)
        assert not u.is_unitary(tol=1e-8)
        u.reunitarise()
        assert u.is_unitary(tol=1e-10)
