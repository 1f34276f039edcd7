"""HMC: force correctness, reversibility, energy scaling, bitwise re-runs."""

import numpy as np
import pytest

from repro.hmc import HMC, TwoFlavorWilsonHMC, WilsonGaugeAction, leapfrog, omelyan
from repro.hmc.actions import traceless_antihermitian
from repro.hmc.checkpoint import run_with_checkpoints
from repro.hmc.hmc import kinetic_energy
from repro.lattice import GaugeField, LatticeGeometry
from repro.lattice.su3 import dagger, is_su3, random_algebra
from repro.util import rng_stream
from repro.util.errors import ConfigError


@pytest.fixture
def geom():
    return LatticeGeometry((4, 4, 4, 4))


@pytest.fixture
def rng():
    return rng_stream(91, "hmc-tests")


class TestAction:
    def test_unit_field_has_zero_action(self, geom):
        action = WilsonGaugeAction(beta=5.6)
        assert action(GaugeField.unit(geom)) == pytest.approx(0.0, abs=1e-9)

    def test_action_positive_on_rough_field(self, geom, rng):
        action = WilsonGaugeAction(beta=5.6)
        assert action(GaugeField.hot(geom, rng)) > 0

    def test_bad_beta(self):
        with pytest.raises(ConfigError):
            WilsonGaugeAction(0.0)

    def test_force_is_traceless_antihermitian(self, geom, rng):
        action = WilsonGaugeAction(beta=5.6)
        f = action.force(GaugeField.hot(geom, rng))
        assert np.allclose(f, -dagger(f), atol=1e-12)
        assert np.allclose(np.einsum("dxaa->dx", f), 0, atol=1e-12)

    def test_force_vanishes_on_unit_field(self, geom):
        action = WilsonGaugeAction(beta=5.6)
        assert np.allclose(action.force(GaugeField.unit(geom)), 0, atol=1e-12)

    def test_force_matches_numerical_gradient(self, geom, rng):
        # dS/deps for U -> exp(eps Q) U must equal -2 tr(Q * F) ... i.e.
        # the force direction reproduces the action gradient:
        # dS/deps = -(beta/3) Re tr[Q U S] and F = -(beta/6) TA(U S), so
        # dS/deps = 2 Re tr[Q F] (trace of algebra elements).
        u = GaugeField.weak(geom, rng, eps=0.4)
        action = WilsonGaugeAction(beta=5.6)
        f = action.force(u)
        mu, site = 2, 17
        q = random_algebra(rng, 1)[0]
        numerical = action.gradient_check(u, mu, site, q, eps=1e-5)
        analytic = 2.0 * float(np.einsum("ab,ba->", q, f[mu, site]).real)
        assert numerical == pytest.approx(analytic, rel=1e-5)

    def test_traceless_antihermitian_projector(self, rng):
        m = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        ta = traceless_antihermitian(m)
        assert np.allclose(ta, -dagger(ta), atol=1e-12)
        assert np.allclose(np.trace(ta, axis1=-2, axis2=-1), 0, atol=1e-12)
        # idempotent on algebra elements
        assert np.allclose(traceless_antihermitian(ta), ta, atol=1e-12)


class TestIntegrators:
    def setup_system(self, rng, geom, beta=5.6):
        gauge = GaugeField.weak(geom, rng, eps=0.3)
        action = WilsonGaugeAction(beta)
        momenta = random_algebra(rng, geom.ndim * geom.volume).reshape(
            geom.ndim, geom.volume, 3, 3
        )
        return gauge, action, momenta

    def energy(self, gauge, action, momenta):
        return kinetic_energy(momenta) + action(gauge)

    @pytest.mark.parametrize("integrator", [leapfrog, omelyan])
    def test_links_stay_in_su3(self, geom, rng, integrator):
        gauge, action, momenta = self.setup_system(rng, geom)
        integrator(gauge, momenta, action.force, n_steps=5, dt=0.05)
        assert is_su3(gauge.links, tol=1e-8)

    @pytest.mark.parametrize("integrator", [leapfrog, omelyan])
    def test_reversibility(self, geom, rng, integrator):
        gauge, action, momenta = self.setup_system(rng, geom)
        start = gauge.links.copy()
        integrator(gauge, momenta, action.force, n_steps=8, dt=0.05)
        momenta *= -1.0
        integrator(gauge, momenta, action.force, n_steps=8, dt=0.05)
        assert np.allclose(gauge.links, start, atol=1e-9)

    def test_energy_violation_scales_as_dt_squared(self, geom, rng):
        def dh(dt, n):
            r = rng_stream(13, "dh-scaling")
            gauge, action, momenta = self.setup_system(r, geom)
            h0 = self.energy(gauge, action, momenta)
            leapfrog(gauge, momenta, action.force, n_steps=n, dt=dt)
            return abs(self.energy(gauge, action, momenta) - h0)

        # fixed trajectory length tau = 0.4, halve dt -> dH / 4
        coarse = dh(0.1, 4)
        fine = dh(0.05, 8)
        assert coarse / fine == pytest.approx(4.0, rel=0.5)

    def test_omelyan_beats_leapfrog(self, geom):
        def dh(integrator):
            r = rng_stream(14, "omelyan-vs-lf")
            gauge, action, momenta = self.setup_system(r, geom)
            h0 = self.energy(gauge, action, momenta)
            integrator(gauge, momenta, action.force, n_steps=8, dt=0.1)
            return abs(self.energy(gauge, action, momenta) - h0)

        assert dh(omelyan) < dh(leapfrog)


class TestHMCDriver:
    def test_acceptance_high_for_small_steps(self, rng):
        geom = LatticeGeometry((4, 4, 4, 4))
        gauge = GaugeField.unit(geom)
        hmc = HMC(gauge, beta=5.6, seed=5, n_steps=10, dt=0.02)
        results = hmc.run(10)
        assert hmc.acceptance_rate >= 0.8
        assert all(abs(t.delta_h) < 1.0 for t in results)

    def test_thermalisation_from_cold_start(self):
        # From the ordered start, <plaquette> must fall away from 1 toward
        # its equilibrium value — phase-space evolution actually happens.
        geom = LatticeGeometry((4, 4, 4, 4))
        hmc = HMC(GaugeField.unit(geom), beta=5.6, seed=2, n_steps=10, dt=0.05)
        results = hmc.run(15)
        assert results[-1].plaquette < 0.9
        assert results[-1].plaquette > 0.2

    def test_bitwise_reproducible_evolution(self):
        # The paper's verification, in miniature: identical in all bits.
        def evolve():
            geom = LatticeGeometry((4, 4, 2, 2))
            hmc = HMC(GaugeField.unit(geom), beta=5.6, seed=42, n_steps=8, dt=0.05)
            hmc.run(6)
            return hmc.fingerprint(), [t.delta_h for t in hmc.history]

        f1, dh1 = evolve()
        f2, dh2 = evolve()
        assert f1 == f2
        assert dh1 == dh2

    def test_run_in_pieces_is_run_in_one_go(self):
        # run(a); run(b) == run(a + b) once the reunitarisation cadence is
        # crossed: the reprojection keys on the absolute trajectory index,
        # not on each call's loop counter.
        def evolve(*pieces):
            geom = LatticeGeometry((2, 2, 2, 2))
            hmc = HMC(GaugeField.unit(geom), beta=5.6, seed=7, n_steps=4, dt=0.05)
            for n in pieces:
                hmc.run(n, reunitarise_every=4)
            return hmc.fingerprint(), [t.delta_h for t in hmc.history]

        whole = evolve(6)
        assert evolve(3, 3) == whole
        assert evolve(1, 4, 1) == whole

    def test_dynamical_run_in_pieces_is_run_in_one_go(self):
        # The dynamical driver steps through the same chain loop: run(a);
        # run(b) == run(a + b) == run_with_checkpoints(a + b) across a
        # reunitarisation boundary (its own run() never reunitarised, so
        # it agreed with the checkpointed chain only at cadence 0).
        def fresh():
            gauge = GaugeField.hot(
                LatticeGeometry((2, 2, 2, 2)), rng_stream(7, "dynamical-pieces")
            )
            return TwoFlavorWilsonHMC(
                gauge, beta=5.6, mass=0.5, seed=7, n_steps=2, dt=0.05
            )

        def state(hmc):
            deltas = [t.delta_h for t in hmc.history]
            return hmc.fingerprint(), deltas, hmc.cg_iterations

        def evolve(*pieces, every=2):
            hmc = fresh()
            for n in pieces:
                hmc.run(n, reunitarise_every=every)
            return state(hmc)

        whole = evolve(3)
        assert evolve(1, 2) == whole
        assert evolve(2, 1) == whole
        checkpointed = fresh()
        run_with_checkpoints(checkpointed, 3, every=2, reunitarise_every=2)
        assert state(checkpointed) == whole
        # not vacuous: the reprojection at index 2 changes the link bits
        assert evolve(3, every=0)[0] != whole[0]

    def test_different_seeds_diverge(self):
        def evolve(seed):
            geom = LatticeGeometry((4, 4, 2, 2))
            hmc = HMC(GaugeField.unit(geom), beta=5.6, seed=seed, n_steps=8, dt=0.05)
            hmc.run(3)
            return hmc.fingerprint()

        assert evolve(1) != evolve(2)

    def test_rejected_trajectory_keeps_configuration(self):
        geom = LatticeGeometry((2, 2, 2, 2))
        gauge = GaugeField.unit(geom)
        # grossly large steps: guaranteed high dH, frequent rejections
        hmc = HMC(gauge, beta=5.6, seed=3, n_steps=2, dt=0.9, integrator="leapfrog")
        for _ in range(10):
            before = gauge.links.copy()
            t = hmc.trajectory()
            if not t.accepted:
                assert np.array_equal(gauge.links, before)
                break
        else:
            pytest.skip("no rejection observed (statistically unlikely)")

    def test_unknown_integrator_rejected(self):
        geom = LatticeGeometry((2, 2, 2, 2))
        with pytest.raises(ConfigError):
            HMC(GaugeField.unit(geom), beta=5.6, integrator="rk4")

    def test_exp_minus_dh_near_one(self):
        # Creutz equality <exp(-dH)> = 1; with few samples just check the
        # mean is in a sane band around 1.
        geom = LatticeGeometry((4, 4, 2, 2))
        hmc = HMC(GaugeField.unit(geom), beta=5.6, seed=8, n_steps=10, dt=0.05)
        results = hmc.run(12)
        mean = np.mean([np.exp(-t.delta_h) for t in results])
        assert 0.8 < mean < 1.2
