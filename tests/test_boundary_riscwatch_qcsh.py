"""Boundary phases and qcsh text commands."""

import numpy as np
import pytest

from repro.fermions import WilsonDirac
from repro.fermions.gamma import GAMMA
from repro.host.qcsh import Qcsh
from repro.host.qdaemon import Qdaemon
from repro.lattice import GaugeField, LatticeGeometry
from repro.lattice.boundary import antiperiodic_in_time, with_boundary_phase
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.util import rng_stream
from repro.util.errors import ConfigError, MachineError


class TestBoundaryPhases:
    @pytest.fixture
    def geom(self):
        return LatticeGeometry((4, 4, 4, 4))

    def test_gauge_observables_unchanged(self, geom):
        rng = rng_stream(3, "bc")
        u = GaugeField.weak(geom, rng, eps=0.3)
        v = antiperiodic_in_time(u)
        # no plaquette wraps the time boundary an odd number of times
        assert v.plaquette() == pytest.approx(u.plaquette(), abs=1e-14)

    def test_only_boundary_links_touched(self, geom):
        u = GaugeField.unit(geom)
        v = with_boundary_phase(u, 3, -1.0)
        boundary = geom.coords[:, 3] == 3
        assert np.allclose(v.links[3][boundary], -np.eye(3))
        assert np.allclose(v.links[3][~boundary], np.eye(3))
        for mu in range(3):
            assert np.allclose(v.links[mu], np.eye(3))

    def test_antiperiodic_momentum_quantisation(self, geom):
        # With antiperiodic time BCs the allowed momenta are half-integer:
        # a plane wave with p_t = pi (2k+1)/L is an exact eigenvector.
        m = 0.4
        d = WilsonDirac(antiperiodic_in_time(GaugeField.unit(geom)), mass=m)
        rng = rng_stream(4, "bc-wave")
        chi = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        p_t = np.pi * 1 / 4  # k=0: p = pi/L with L=4
        phase = np.exp(1j * geom.coords[:, 3] * p_t)
        psi = phase[:, None, None] * chi[None]
        dp = (
            m * np.eye(4)
            + (1 - np.cos(p_t)) * np.eye(4)
            + 1j * GAMMA[3] * np.sin(p_t)
        )
        expected = phase[:, None, None] * np.einsum("st,tc->sc", dp, chi)[None]
        assert np.allclose(d.apply(psi), expected, atol=1e-11)

    def test_periodic_wave_not_eigenvector_when_antiperiodic(self, geom):
        d = WilsonDirac(antiperiodic_in_time(GaugeField.unit(geom)), mass=0.4)
        psi = np.ones((geom.volume, 4, 3), dtype=complex)  # p = 0 wave
        out = d.apply(psi)
        # the boundary phase breaks the constant mode
        assert not np.allclose(out, 0.4 * psi, atol=1e-6)

    def test_twisted_phase(self, geom):
        v = with_boundary_phase(GaugeField.unit(geom), 0, np.exp(0.3j))
        assert v.plaquette() == pytest.approx(1.0, abs=1e-12)

    def test_bad_inputs(self, geom):
        u = GaugeField.unit(geom)
        with pytest.raises(ConfigError):
            with_boundary_phase(u, 9)
        with pytest.raises(ConfigError):
            with_boundary_phase(u, 0, 2.0)  # not a pure phase


class TestQcshTextInterface:
    @pytest.fixture
    def shell(self):
        machine = QCDOCMachine(MachineConfig(dims=(2, 2, 1, 1, 1, 1)), word_batch=8)
        daemon = Qdaemon(machine)
        daemon.boot()
        return Qcsh(daemon, "alice")

    def test_qalloc_and_qstat(self, shell):
        out = shell.execute("qalloc 0 1")
        assert "2x2" in out
        status = shell.execute("qstat")
        assert "4 healthy" in status and "1 active jobs" in status

    def test_qalloc_with_folding(self, shell):
        out = shell.execute("qalloc 0,1")
        assert "4" in out  # 2x2 folded into a 4-ring

    def test_qfree(self, shell):
        shell.execute("qalloc 0 1")
        assert shell.execute("qfree") == "freed"
        assert "0 active jobs" in shell.execute("qstat")

    def test_qhist(self, shell):
        shell.execute("qstat")
        hist = shell.execute("qhist")
        assert "status" in hist

    def test_unknown_command(self, shell):
        with pytest.raises(MachineError, match="unknown command"):
            shell.execute("rm -rf /")

    def test_empty_line(self, shell):
        assert shell.execute("   ") == ""

    def test_qalloc_needs_args(self, shell):
        with pytest.raises(MachineError, match="group specs"):
            shell.execute("qalloc")
