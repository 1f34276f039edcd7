"""Heatbath/overrelaxation updates and gauge observables."""

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
from repro.lattice.observables import (
    average_wilson_loops,
    creutz_ratio,
    line_product,
    plaquette_by_plane,
    polyakov_loop,
    wilson_loop,
)
from repro.lattice.su3 import dagger, is_su3, random_su3
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


class TestObservables:
    def test_line_product_on_unit_field(self, geom):
        line = line_product(GaugeField.unit(geom), 0, 3)
        assert np.allclose(line, np.eye(3))

    def test_wilson_1x1_is_plaquette(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=0.4)
        planes = plaquette_by_plane(u)
        assert wilson_loop(u, 0, 1, 1, 1) == pytest.approx(planes[(0, 1)], rel=1e-12)

    def test_wilson_loops_unit_field(self, geom):
        u = GaugeField.unit(geom)
        loops = average_wilson_loops(u, 2, 2)
        assert all(v == pytest.approx(1.0) for v in loops.values())

    def test_loops_decay_with_area(self, geom, rng):
        # Rough field: larger loops are smaller (area-law-ish decay).
        u = GaugeField.weak(geom, rng, eps=0.8)
        loops = average_wilson_loops(u, 2, 2)
        assert loops[(1, 1)] > loops[(1, 2)] > loops[(2, 2)]

    def test_creutz_ratio_positive_on_thermalised_field(self, geom, rng):
        # The string-tension estimator needs a genuinely equilibrated
        # configuration (random near-unit fields have no area law).
        hb = Heatbath(GaugeField.hot(geom, rng), beta=5.5, seed=21)
        hb.run(10)
        loops = average_wilson_loops(hb.gauge, 2, 2)
        assert creutz_ratio(loops, 2, 2) > 0

    def test_gauge_invariance(self, geom, rng):
        u = GaugeField.weak(geom, rng, eps=0.5)
        w0 = wilson_loop(u, 0, 3, 2, 2)
        p0 = polyakov_loop(u)
        g = random_su3(rng, geom.volume)
        for mu in range(4):
            fwd = geom.neighbour_fwd(mu)
            u.set_links(mu, slice(None), g @ u.links[mu] @ dagger(g[fwd]))
        assert wilson_loop(u, 0, 3, 2, 2) == pytest.approx(w0, abs=1e-12)
        assert polyakov_loop(u) == pytest.approx(p0, abs=1e-12)

    def test_polyakov_unit_field(self, geom):
        assert polyakov_loop(GaugeField.unit(geom)) == pytest.approx(1.0)

    def test_polyakov_near_zero_on_hot_field(self, geom, rng):
        assert abs(polyakov_loop(GaugeField.hot(geom, rng))) < 0.2

    def test_bad_inputs(self, geom):
        u = GaugeField.unit(geom)
        with pytest.raises(ConfigError):
            wilson_loop(u, 1, 1, 2, 2)
        with pytest.raises(ConfigError):
            line_product(u, 0, 0)
