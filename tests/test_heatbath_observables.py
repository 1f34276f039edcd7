"""Heatbath and overrelaxation updates."""

import numpy as np
import pytest

from repro.hmc import HMC
from repro.hmc.heatbath import (
    Heatbath,
    _kennedy_pendleton,
    _random_su2_from_x0,
    _su2_project,
)
from repro.lattice import GaugeField, LatticeGeometry
from repro.lattice.su3 import dagger, is_su3
from repro.util import rng_stream
from repro.util.errors import ConfigError


@pytest.fixture
def geom():
    return LatticeGeometry((4, 4, 4, 4))


@pytest.fixture
def rng():
    return rng_stream(71, "hb-obs-tests")


class TestSU2Machinery:
    def test_su2_project_recovers_scaled_su2(self, rng):
        from repro.lattice.su3 import random_su3

        # build k * V directly and recover it
        n = 50
        x0 = 2 * rng.random(n) - 1
        v = _random_su2_from_x0(x0, rng)
        k_in = rng.random(n) * 5 + 0.1
        k, v_out = _su2_project(k_in[:, None, None] * v)
        assert np.allclose(k, k_in, atol=1e-12)
        assert np.allclose(v_out, v, atol=1e-12)

    def test_random_su2_is_unitary(self, rng):
        x0 = 2 * rng.random(100) - 1
        g2 = _random_su2_from_x0(x0, rng)
        assert np.allclose(g2 @ dagger(g2), np.eye(2), atol=1e-12)
        assert np.allclose(np.linalg.det(g2), 1.0, atol=1e-12)

    def test_kennedy_pendleton_statistics(self):
        # For density sqrt(1-x^2) exp(a x): mean -> 1 as a -> infinity and
        # the samples must stay in [-1, 1].
        rng = rng_stream(3, "kp")
        weak = _kennedy_pendleton(np.full(4000, 0.5), rng)
        strong = _kennedy_pendleton(np.full(4000, 30.0), rng)
        assert np.all(weak >= -1) and np.all(weak <= 1)
        assert strong.mean() > 0.9 > weak.mean()


class TestHeatbath:
    def test_links_stay_su3(self, geom, rng):
        hb = Heatbath(GaugeField.hot(geom, rng), beta=5.6, seed=1)
        hb.run(2)
        assert is_su3(hb.gauge.links, tol=1e-8)

    def test_hot_start_orders_at_strong_beta(self, geom, rng):
        # At large beta the heatbath drives the plaquette up from ~0.
        hb = Heatbath(GaugeField.hot(geom, rng), beta=9.0, seed=2)
        p0 = hb.gauge.plaquette()
        p_final = hb.run(8)[-1]
        assert p0 < 0.1
        assert p_final > 0.6

    def test_cold_start_disorders_at_weak_beta(self, geom):
        hb = Heatbath(GaugeField.unit(geom), beta=1.0, seed=3)
        p_final = hb.run(6)[-1]
        assert p_final < 0.5

    def test_overrelaxation_preserves_action(self, geom, rng):
        hb = Heatbath(GaugeField.weak(geom, rng, eps=0.5), beta=5.6, seed=4)
        s0 = hb.action(hb.gauge)
        hb.sweep(overrelax=True)
        s1 = hb.action(hb.gauge)
        assert s1 == pytest.approx(s0, rel=1e-9)
        # ...but actually moves the configuration
        assert not np.allclose(hb.gauge.links, GaugeField.weak(
            geom, rng_stream(71, "hb-obs-tests"), eps=0.5
        ).links)

    def test_heatbath_and_hmc_agree_on_equilibrium(self):
        # Two independent algorithms, one distribution: thermalised
        # plaquettes at beta=5.6 on 4^4 must agree within a loose band.
        geom = LatticeGeometry((4, 4, 4, 4))
        hb = Heatbath(GaugeField.unit(geom), beta=5.6, seed=11)
        hb.run(20, or_per_hb=1)
        p_hb = np.mean(hb.plaquette_history[-8:])
        hmc = HMC(GaugeField.unit(geom), beta=5.6, seed=12, n_steps=10, dt=0.08)
        hmc.run(25)
        p_hmc = np.mean([t.plaquette for t in hmc.history[-8:]])
        assert p_hb == pytest.approx(p_hmc, abs=0.05)

    def test_bitwise_reproducible(self, geom):
        def run():
            hb = Heatbath(GaugeField.unit(geom), beta=5.6, seed=77)
            hb.run(3, or_per_hb=1)
            return hb.fingerprint()

        assert run() == run()

    def test_bad_beta(self, geom):
        with pytest.raises(ConfigError):
            Heatbath(GaugeField.unit(geom), beta=0)
