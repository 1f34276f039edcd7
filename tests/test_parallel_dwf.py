"""Distributed domain-wall fermions: 5D fields over the 4D-decomposed mesh."""

import numpy as np
import pytest

from repro.fermions import DomainWallDirac
from repro.lattice import GaugeField, LatticeGeometry
from repro.parallel import solve_dwf_on_machine
from repro.solvers import cgne
from repro.util import rng_stream
from repro.util.errors import ConfigError
from tests.harness import applied, booted

DIMS = (2, 2, 2, 1, 1, 1)


@pytest.fixture
def rng():
    return rng_stream(111, "pdwf-tests")


class TestDistributedDWFApply:
    def test_matches_serial(self, rng):
        machine, partition = booted(DIMS, word_batch=8192)
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.hot(geom, rng)
        Ls = 4
        psi = rng.standard_normal((Ls, geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (Ls, geom.volume, 4, 3)
        )
        got = applied(machine, partition, "dwf", gauge, psi, Ls=Ls)
        want = DomainWallDirac(gauge, Ls=Ls, M5=1.8, mf=0.1).apply(psi)
        assert np.allclose(got, want, atol=1e-12)

    def test_dagger_matches_serial(self, rng):
        machine, partition = booted(DIMS, word_batch=8192)
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.hot(geom, rng)
        Ls = 3
        psi = rng.standard_normal((Ls, geom.volume, 4, 3)) + 0j
        got = applied(machine, partition, "dwf", gauge, psi, dagger=True, Ls=Ls)
        want = DomainWallDirac(gauge, Ls=Ls, M5=1.8, mf=0.1).apply_dagger(psi)
        assert np.allclose(got, want, atol=1e-12)

    def test_one_message_per_direction_carries_all_slices(self, rng):
        # The slice-major layout lets one descriptor cover every s slice:
        # count DMA transfers per apply (4 sends of data + 4 of products).
        machine, partition = booted(DIMS, word_batch=8192)
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.unit(geom)
        Ls = 4
        psi = np.ones((Ls, geom.volume, 4, 3), dtype=complex)
        applied(machine, partition, "dwf", gauge, psi, Ls=Ls)
        # each node has 3 comm axes x 2 signs = 6 active directions, each
        # carrying exactly one send per apply:
        sends = [
            sum(1 for u in node.scu.send_units.values() if u.checksum.words > 0)
            for node in machine.nodes.values()
        ]
        assert all(s == 6 for s in sends)

    def test_bad_ls(self, rng):
        machine, partition = booted(DIMS, word_batch=8192)
        geom = LatticeGeometry((4, 4, 4, 2))
        with pytest.raises(ConfigError, match="source"):
            solve_dwf_on_machine(
                machine, partition, GaugeField.unit(geom),
                np.zeros((2, geom.volume, 4, 3)), Ls=3,
            )


class TestDistributedDWFSolve:
    def test_solve_matches_serial(self, rng):
        machine, partition = booted(DIMS, word_batch=8192)
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.weak(geom, rng, eps=0.25)
        Ls = 4
        b = rng.standard_normal((Ls, geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (Ls, geom.volume, 4, 3)
        )
        dist = solve_dwf_on_machine(
            machine, partition, gauge, b, Ls=Ls, mf=0.2, tol=1e-8,
            maxiter=6000, max_time=1e9,
        )
        assert dist.converged
        assert dist.checksum_mismatches == []
        d = DomainWallDirac(gauge, Ls=Ls, M5=1.8, mf=0.2)
        resid = np.linalg.norm(d.apply(dist.x) - b) / np.linalg.norm(b)
        assert resid < 1e-7
        serial = cgne(d.apply, d.apply_dagger, b, tol=1e-8, maxiter=6000)
        assert abs(dist.iterations - serial.iterations) <= 3

    def test_bitwise_rerun(self):
        def run():
            machine, partition = booted(DIMS, word_batch=8192)
            r = rng_stream(6, "dwf-problem")
            geom = LatticeGeometry((4, 4, 4, 2))
            gauge = GaugeField.weak(geom, r, eps=0.25)
            b = r.standard_normal((3, geom.volume, 4, 3)) + 0j
            res = solve_dwf_on_machine(
                machine, partition, gauge, b, Ls=3, mf=0.3, tol=1e-7,
                maxiter=6000, max_time=1e9,
            )
            return res.x.tobytes(), res.machine_time

        assert run() == run()
