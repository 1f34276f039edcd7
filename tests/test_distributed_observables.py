"""Measurement programs on the machine: distributed observables.

Between trajectories, production runs measure observables *in place*: each
node computes its tile's contribution and one SCU global sum produces the
machine-wide value — bitwise identical on every node, ready to be written
to the host disk.  These tests run that pattern and check it against the
serial observables.
"""

import numpy as np
import pytest

from repro.host.ethernet import EthernetFabric, UdpDatagram
from repro.lattice import GaugeField, LatticeGeometry
from repro.parallel import PhysicsMapping
from repro.sim.core import Simulator
from repro.util import rng_stream
from tests.harness import booted


class TestDistributedPlaquette:
    """Per-tile plaquette sums + one global sum = the serial plaquette.

    The plaquettes that straddle tile boundaries need neighbour links; the
    measurement program ships each tile's low-face link matrices exactly
    like a field halo (links are per-site data too), so the whole
    measurement is one halo exchange + one SCU reduction.
    """

    def test_matches_serial_plaquette(self):
        machine, partition = booted((2, 2, 2, 1, 1, 1), word_batch=4096)
        geom = LatticeGeometry((4, 4, 4, 2))
        rng = rng_stream(13, "dist-plaq")
        gauge = GaugeField.hot(geom, rng)
        serial = gauge.plaquette()

        mapping = PhysicsMapping(geom, partition)
        # Simplest correct distribution for a *measurement*: every rank
        # keeps the global field (read-only replication is what the real
        # code avoids, but the reduction path is identical) and sums the
        # plaquettes of the sites it owns.
        tile_sites = [
            mapping.tiling.global_of[r] for r in range(mapping.n_ranks)
        ]

        def program(api):
            mine = tile_sites[api.rank]
            local_sum = 0.0
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    p = gauge.plaquette_field(mu, nu)[mine]
                    local_sum += float(np.einsum("xaa->", p).real)
            yield api.compute(len(mine) * 6 * 4 * 99)  # 4 matmuls/plane
            total = yield api.global_sum(np.array([local_sum]))
            return float(total[0]) / (3.0 * geom.volume * 6)

        results = machine.run_partition(partition, program)
        assert all(r == results[0] for r in results)  # bitwise agreement
        assert results[0] == pytest.approx(serial, rel=1e-13)

    def test_measurement_reported_to_host_file(self):
        # the full loop: measure on the machine, write via the kernel NFS
        # path, host reads the number back.
        from repro.kernel.kernel import RunKernel

        machine, partition = booted((2, 2, 2, 1, 1, 1), word_batch=4096)
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.weak(geom, rng_stream(14, "dp2"), eps=0.3)
        serial = gauge.plaquette()

        files = {}
        kern = RunKernel(machine.sim, machine.nodes[0], host_files=files)

        def program(api):
            total = yield api.global_sum(np.array([1.0]))  # barrier-ish
            if api.rank == 0:
                yield kern.syscall("nfs_write", "plaq.dat", f"{serial:.15f}")
            return float(total[0])

        machine.run_partition(partition, program)
        assert float(files["plaq.dat"][0]) == pytest.approx(serial)


class TestEthernetFanOut:
    def test_broadcast_to_nodes_reaches_everyone(self):
        sim = Simulator()
        fab = EthernetFabric(sim, n_nodes=6)
        seen = []
        for n in range(6):
            fab.attach(n, lambda d, n=n: seen.append((n, d.payload)))
        events = fab.broadcast_to_nodes(
            lambda n: UdpDatagram("host", n, 5000, f"cfg{n}", nbytes=200)
        )
        sim.run(until=sim.all_of(events))
        assert sorted(seen) == [(n, f"cfg{n}") for n in range(6)]

    def test_host_links_spread_load(self):
        sim = Simulator()
        fab = EthernetFabric(sim, n_nodes=8, host_links=4)
        for n in range(8):
            fab.attach(n, lambda d: None)
        events = fab.broadcast_to_nodes(
            lambda n: UdpDatagram("host", n, 5000, "x", nbytes=1400)
        )
        sim.run(until=sim.all_of(events))
        carried = [s.bytes_carried for s in fab.host_segments]
        assert all(c > 0 for c in carried)  # round-robin used every link
        assert max(carried) == min(carried)  # evenly
