"""Wilson and clover operators: hermiticity structure, free-field dispersion."""

import numpy as np
import pytest

from repro.fermions import CloverDirac, WilsonDirac
from repro.fermions.gamma import GAMMA
from repro.lattice import GaugeField, LatticeGeometry
from repro.util import rng_stream
from repro.util.errors import ConfigError


@pytest.fixture
def geom():
    return LatticeGeometry((4, 4, 4, 4))


@pytest.fixture
def rng():
    return rng_stream(21, "wilson-tests")


def random_spinor(rng, geom):
    shape = (geom.volume, 4, 3)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def plane_wave(geom, k, spinor):
    """psi(x) = e^{i p.x} chi with p = 2 pi k / L."""
    p = 2 * np.pi * np.asarray(k) / np.asarray(geom.shape)
    phase = np.exp(1j * geom.coords @ p)
    return phase[:, None, None] * spinor[None, :, :]


class TestWilsonStructure:
    def test_gamma5_hermiticity(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        d = WilsonDirac(u, mass=0.3)
        psi, phi = random_spinor(rng, geom), random_spinor(rng, geom)
        # <phi, D psi> == <D^+ phi, psi>
        lhs = np.vdot(phi, d.apply(psi))
        rhs = np.vdot(d.apply_dagger(phi), psi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_normal_operator_hermitian_positive(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        d = WilsonDirac(u, mass=0.2)
        psi, phi = random_spinor(rng, geom), random_spinor(rng, geom)
        lhs = np.vdot(phi, d.normal(psi))
        rhs = np.vdot(d.normal(phi), psi)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert np.vdot(psi, d.normal(psi)).real > 0

    def test_hopping_connects_opposite_parity_only(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        d = WilsonDirac(u, mass=0.0)
        psi = np.zeros((geom.volume, 4, 3), dtype=complex)
        psi[geom.even_sites] = 1.0
        out = d.hopping(psi)
        assert np.allclose(out[geom.even_sites], 0)
        assert not np.allclose(out[geom.odd_sites], 0)

    def test_diagonal_coefficient(self, geom):
        d = WilsonDirac(GaugeField.unit(geom), mass=0.25)
        assert d.diag == pytest.approx(4.25)

    def test_shape_validation(self, geom):
        d = WilsonDirac(GaugeField.unit(geom), mass=0.1)
        with pytest.raises(ConfigError):
            d.apply(np.zeros((3, 4, 3), dtype=complex))

    def test_single_precision_field_rejected(self, geom, rng):
        # mixed-precision CG up-casts before every application; a
        # complex64 field reaching the operator is a caller's mistake
        d = WilsonDirac(GaugeField.unit(geom), mass=0.1)
        psi = random_spinor(rng, geom)
        for method in (d.apply, d.apply_dagger, d.hopping):
            with pytest.raises(ConfigError, match="complex128"):
                method(psi.astype(np.complex64))
        assert d.apply(psi).dtype == np.complex128

    def test_results_are_fresh_caller_owned_arrays(self, geom, rng):
        # the Krylov loops hold A p across iterations, so a second call
        # must not write into the array the first one returned
        d = WilsonDirac(GaugeField.hot(geom, rng), mass=0.3)
        psi, phi = random_spinor(rng, geom), random_spinor(rng, geom)
        for method in (d.hopping, d.apply, d.apply_dagger):
            first = method(psi)
            kept = first.copy()
            second = method(phi)
            assert second is not first and not np.shares_memory(first, second)
            assert first.tobytes() == kept.tobytes()
            assert not np.shares_memory(first, psi)


class TestWilsonFreeField:
    def test_zero_momentum_eigenvalue(self, geom, rng):
        # On the unit gauge field, a constant spinor is an eigenvector of D
        # with eigenvalue m (all hopping terms cancel the Wilson term).
        d = WilsonDirac(GaugeField.unit(geom), mass=0.7)
        chi = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        psi = plane_wave(geom, (0, 0, 0, 0), chi)
        assert np.allclose(d.apply(psi), 0.7 * psi, atol=1e-12)

    @pytest.mark.parametrize("k", [(1, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 3)])
    def test_momentum_space_matrix(self, geom, rng, k):
        # D(p) = m + sum_mu [ r (1 - cos p_mu) + i gamma_mu sin p_mu ]
        m = 0.4
        d = WilsonDirac(GaugeField.unit(geom), mass=m)
        chi = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        psi = plane_wave(geom, k, chi)
        p = 2 * np.pi * np.asarray(k) / np.asarray(geom.shape)
        dp = m * np.eye(4) + sum(
            (1 - np.cos(p[mu])) * np.eye(4) + 1j * GAMMA[mu] * np.sin(p[mu])
            for mu in range(4)
        )
        expected = plane_wave(geom, k, np.einsum("st,tc->sc", dp, chi))
        assert np.allclose(d.apply(psi), expected, atol=1e-11)

    def test_doubler_gets_wilson_mass(self, geom, rng):
        # At the corner momentum p = (pi,pi,pi,pi) the naive doubler picks
        # up mass m + 2 r d = m + 8: that's the point of the Wilson term.
        d = WilsonDirac(GaugeField.unit(geom), mass=0.1)
        chi = rng.standard_normal((4, 3)) + 0j
        psi = plane_wave(geom, (2, 2, 2, 2), chi)  # p_mu = pi on L=4
        assert np.allclose(d.apply(psi), (0.1 + 8.0) * psi, atol=1e-11)

    def test_gauge_covariance(self, geom, rng):
        # D[U^g](g psi) = g D[U] psi for gauge transformation g.
        from repro.lattice.su3 import dagger, random_su3

        u = GaugeField.weak(geom, rng, eps=0.5)
        d0 = WilsonDirac(u, mass=0.3)
        psi = random_spinor(rng, geom)
        ref = d0.apply(psi)

        g = random_su3(rng, geom.volume)
        transformed = u.copy()
        for mu in range(4):
            fwd = geom.neighbour_fwd(mu)
            transformed.set_links(mu, slice(None), g @ u.links[mu] @ dagger(g[fwd]))
        dg = WilsonDirac(transformed, mass=0.3)
        rotated = np.einsum("xab,xsb->xsa", g, psi)
        assert np.allclose(
            dg.apply(rotated), np.einsum("xab,xsb->xsa", g, ref), atol=1e-11
        )


class TestClover:
    def test_clover_tensor_hermitian(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        d = CloverDirac(u, mass=0.2, c_sw=1.3)
        assert d.clover_is_hermitian()

    def test_clover_vanishes_on_unit_field(self, geom, rng):
        d = CloverDirac(GaugeField.unit(geom), mass=0.2)
        psi = random_spinor(rng, geom)
        assert np.allclose(d.clover_term(psi), 0, atol=1e-13)
        # ... so the full operator reduces to Wilson.
        w = WilsonDirac(GaugeField.unit(geom), mass=0.2)
        assert np.allclose(d.apply(psi), w.apply(psi), atol=1e-13)

    def test_gamma5_hermiticity(self, geom, rng):
        u = GaugeField.hot(geom, rng)
        d = CloverDirac(u, mass=0.25, c_sw=1.0)
        psi, phi = random_spinor(rng, geom), random_spinor(rng, geom)
        lhs = np.vdot(phi, d.apply(psi))
        rhs = np.vdot(d.apply_dagger(phi), psi)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_c_sw_scales_term(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=0.4)
        psi = random_spinor(rng, geom)
        t1 = CloverDirac(u, mass=0.2, c_sw=1.0).clover_term(psi)
        t2 = CloverDirac(u, mass=0.2, c_sw=2.0).clover_term(psi)
        assert np.allclose(t2, 2 * t1, atol=1e-12)

    def test_clover_term_is_site_local(self, geom, rng):
        # A delta-function source stays a delta function under the clover
        # term — no communication, the reason clover runs at 46.5% vs 40%.
        u = GaugeField.hot(geom, rng)
        d = CloverDirac(u, mass=0.2)
        psi = np.zeros((geom.volume, 4, 3), dtype=complex)
        psi[17, 2, 1] = 1.0
        out = d.clover_term(psi)
        support = np.nonzero(np.abs(out).sum(axis=(1, 2)) > 1e-14)[0]
        assert np.array_equal(support, [17])
