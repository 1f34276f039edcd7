"""Distributed ASQTAD: 3-hop Naik halos over the simulated machine."""

import numpy as np
import pytest

from repro.fermions import AsqtadDirac
from repro.lattice import GaugeField, LatticeGeometry
from repro.parallel import solve_staggered_on_machine
from repro.perfmodel.dirac_perf import (
    DiracPerfModel,
    dirac_flops_per_node,
    halo_payload_words,
)
from repro.solvers import cg
from repro.util import rng_stream
from repro.util.errors import ConfigError
from tests.harness import applied, booted

DIMS = (2, 2, 1, 1, 1, 1)


@pytest.fixture
def rng():
    return rng_stream(99, "pstaggered-tests")


class TestDistributedAsqtadApply:
    def test_matches_serial_on_4_nodes(self, rng):
        # 8x8 in the decomposed plane so the Naik halo has room (>= 3).
        machine, partition = booted(DIMS, word_batch=4096)
        geom = LatticeGeometry((8, 8, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        chi = rng.standard_normal((geom.volume, 3)) + 1j * rng.standard_normal(
            (geom.volume, 3)
        )
        got = applied(machine, partition, "asqtad", gauge, chi, mass=0.3)
        want = AsqtadDirac(gauge, mass=0.3).apply(chi)
        assert np.allclose(got, want, atol=1e-12)

    def test_dagger_matches_serial(self, rng):
        machine, partition = booted(DIMS, word_batch=4096)
        geom = LatticeGeometry((8, 8, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        chi = rng.standard_normal((geom.volume, 3)) + 0j
        got = applied(machine, partition, "asqtad", gauge, chi, dagger=True, mass=0.3)
        want = AsqtadDirac(gauge, mass=0.3).apply_dagger(chi)
        assert np.allclose(got, want, atol=1e-12)

    def test_minimum_local_extent_enforced(self, rng):
        # splitting an extent-4 axis over 2 nodes gives local extent 2 < 3
        machine, partition = booted(DIMS, word_batch=4096)
        geom = LatticeGeometry((4, 4, 2, 2))
        gauge = GaugeField.unit(geom)
        chi = np.zeros((geom.volume, 3), dtype=complex)
        with pytest.raises(Exception, match="Naik"):
            applied(machine, partition, "asqtad", gauge, chi, mass=0.3)

    @pytest.mark.parametrize(
        "shape,axis,extent", [((6, 8, 2, 2), 0, 3), ((8, 10, 2, 2), 1, 5)]
    )
    def test_odd_local_extent_on_a_decomposed_axis_refused(
        self, rng, shape, axis, extent
    ):
        # Kawamoto-Smit phases come from *local* coordinates: an odd local
        # extent flips their sign on odd-coordinate ranks (O(1) error
        # against serial), so it is refused, naming the axis and extent.
        machine, partition = booted(DIMS, word_batch=4096)
        geom = LatticeGeometry(shape)
        chi = np.zeros((geom.volume, 3), dtype=complex)
        with pytest.raises(
            ConfigError, match=f"axis {axis}: odd local extent {extent}"
        ):
            applied(machine, partition, "asqtad", GaugeField.unit(geom), chi, mass=0.3)

    def test_odd_extent_on_an_undecomposed_axis_is_exact(self, rng):
        # an axis that wraps locally sees its global coordinates
        machine, partition = booted(DIMS, word_batch=4096)
        geom = LatticeGeometry((8, 8, 3, 2))
        gauge = GaugeField.hot(geom, rng)
        chi = rng.standard_normal((geom.volume, 3)) + 0j
        got = applied(machine, partition, "asqtad", gauge, chi, mass=0.3)
        want = AsqtadDirac(gauge, mass=0.3).apply(chi)
        assert np.allclose(got, want, atol=1e-12)

    def test_checksums_clean_after_naik_traffic(self, rng):
        machine, partition = booted(DIMS, word_batch=4096)
        geom = LatticeGeometry((8, 8, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        chi = rng.standard_normal((geom.volume, 3)) + 0j
        applied(machine, partition, "asqtad", gauge, chi, mass=0.3)
        assert machine.audit_checksums() == []


class TestModelRefusesWhatTheTwinRefuses:
    """The performance model prices only ASQTAD tiles the twin can run: a
    decomposed axis shallower than the Naik hop is refused by both, with
    one message.  The tiles are even or shallow: an odd extent is the
    twin's own rule, about its Kawamoto-Smit phases, not about cost."""

    @pytest.mark.parametrize("local", [(1, 4), (2, 4), (4, 2), (4, 4), (4, 6), (6, 4)])
    def test_same_tiles_refused(self, local):
        local_shape = local + (2, 2)
        geom = LatticeGeometry(tuple(2 * e for e in local) + (2, 2))
        chi = np.zeros((geom.volume, 3), dtype=complex)
        machine, partition = booted(DIMS, word_batch=4096)
        refusals = []
        for price in (
            lambda: applied(
                machine, partition, "asqtad", GaugeField.unit(geom), chi, mass=0.3
            ),
            lambda: DiracPerfModel().exposed_comm_seconds("asqtad", local_shape, DIMS),
            lambda: halo_payload_words("asqtad", local_shape, DIMS),
            lambda: dirac_flops_per_node("asqtad", local_shape, DIMS),
        ):
            try:
                price()
                refusals.append(None)
            except ConfigError as exc:
                refusals.append(str(exc))
        assert refusals == refusals[:1] * 4
        assert (refusals[0] is None) == (min(local) >= 3), refusals


class TestDistributedAsqtadSolve:
    def test_solve_matches_serial(self, rng):
        machine, partition = booted(DIMS, word_batch=4096)
        geom = LatticeGeometry((8, 8, 2, 2))
        gauge = GaugeField.weak(geom, rng, eps=0.3)
        b = rng.standard_normal((geom.volume, 3)) + 1j * rng.standard_normal(
            (geom.volume, 3)
        )
        dist = solve_staggered_on_machine(
            machine, partition, gauge, b, mass=0.3, tol=1e-9, max_time=1e9
        )
        assert dist.converged
        assert dist.checksum_mismatches == []
        d = AsqtadDirac(gauge, mass=0.3)
        serial = cg(d.normal, d.apply_dagger(b), tol=1e-9)
        assert abs(dist.iterations - serial.iterations) <= 2
        resid = np.linalg.norm(d.apply(dist.x) - b) / np.linalg.norm(b)
        assert resid < 1e-8

    def test_bitwise_rerun(self, rng):
        def run():
            machine, partition = booted(DIMS, word_batch=4096)
            r = rng_stream(5, "stag-problem")
            geom = LatticeGeometry((8, 8, 2, 2))
            gauge = GaugeField.weak(geom, r, eps=0.3)
            b = r.standard_normal((geom.volume, 3)) + 0j
            res = solve_staggered_on_machine(
                machine, partition, gauge, b, mass=0.3, tol=1e-8, max_time=1e9
            )
            return res.x.tobytes(), res.machine_time

        assert run() == run()

    def test_bad_source_shape(self, rng):
        machine, partition = booted(DIMS, word_batch=4096)
        geom = LatticeGeometry((8, 8, 2, 2))
        with pytest.raises(ConfigError, match="source"):
            solve_staggered_on_machine(
                machine, partition, GaugeField.unit(geom), np.zeros((4, 3)), mass=0.3
            )
