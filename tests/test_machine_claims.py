"""Additional paper-claim tests: load balance, error paths, protocol
properties under randomised traffic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.machine.scu import DmaDescriptor
from repro.parallel import solve_on_machine
from repro.util import rng_stream
from repro.util.errors import SimulationError
from tests.harness import applied, booted, system, transfer_counters


class TestPerfectLoadBalance:
    def test_all_nodes_charge_identical_flops(self):
        # Paper section 1: "the solution of the Dirac equation (a linear
        # equation) requires the same number of floating point operations
        # on each processing node.  Thus, no load balancing is needed."
        machine = QCDOCMachine(
            MachineConfig(dims=(2, 2, 2, 1, 1, 1)), word_batch=4096
        )
        machine.bring_up()
        partition = machine.partition(groups=[(0,), (1,), (2,), (3,)])
        rng = rng_stream(9, "balance")
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.weak(geom, rng, eps=0.3)
        b = rng.standard_normal((geom.volume, 4, 3)) + 0j
        solve_on_machine(
            machine, partition, gauge, b, mass=0.4, tol=1e-6, max_time=1e9
        )
        flops = {n.flops_charged for n in machine.nodes.values()}
        assert len(flops) == 1  # bit-identical work on every node


class TestErrorPaths:
    def test_program_exception_surfaces(self):
        machine = QCDOCMachine(MachineConfig(dims=(2, 1, 1, 1, 1, 1)))
        machine.bring_up()
        p = machine.partition(groups=[(0,)])

        def broken(api):
            yield api.compute(10)
            raise RuntimeError("application bug on rank %d" % api.rank)

        with pytest.raises(Exception):
            machine.run_partition(p, broken)

    def test_mismatched_exchange_deadlocks_detectably(self):
        # A receive posted with no matching send: the simulator reports a
        # deadlock rather than hanging (heap drains with the event pending).
        machine = QCDOCMachine(MachineConfig(dims=(2, 1, 1, 1, 1, 1)))
        machine.bring_up()
        machine.nodes[1].memory.alloc("rx", np.zeros(4, dtype=np.uint64))
        arrival = machine.topology.opposite(machine.topology.direction(0, +1))
        ev = machine.nodes[1].scu.recv(arrival, DmaDescriptor("rx", block_len=4))
        with pytest.raises(SimulationError, match="deadlock"):
            machine.sim.run(until=ev)


class TestProtocolProperties:
    @given(
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=16),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_transfer_arrives_intact(self, nwords, batch, recv_first):
        machine = QCDOCMachine(
            MachineConfig(dims=(2, 1, 1, 1, 1, 1)), word_batch=batch
        )
        machine.bring_up()
        data = np.arange(1, nwords + 1, dtype=np.uint64) * 3
        machine.nodes[0].memory.alloc("tx", data)
        machine.nodes[1].memory.alloc("rx", np.zeros(nwords, dtype=np.uint64))
        d = machine.topology.direction(0, +1)
        arrival = machine.topology.opposite(d)
        if recv_first:
            recv = machine.nodes[1].scu.recv(arrival, DmaDescriptor("rx", block_len=nwords))
            send = machine.nodes[0].scu.send(d, DmaDescriptor("tx", block_len=nwords))
        else:
            send = machine.nodes[0].scu.send(d, DmaDescriptor("tx", block_len=nwords))
            recv = machine.nodes[1].scu.recv(arrival, DmaDescriptor("rx", block_len=nwords))
        machine.sim.run(until=machine.sim.all_of([send, recv]), max_time=10.0)
        assert np.array_equal(machine.nodes[1].memory.get("rx"), data)
        assert machine.audit_checksums() == []

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_faulty_links_still_deliver(self, nwords, seed):
        machine = QCDOCMachine(
            MachineConfig(dims=(2, 1, 1, 1, 1, 1)),
            bit_error_rate=3e-3,
            seed=seed,
        )
        machine.bring_up()
        data = np.arange(nwords, dtype=np.uint64) + 7
        machine.nodes[0].memory.alloc("tx", data)
        machine.nodes[1].memory.alloc("rx", np.zeros(nwords, dtype=np.uint64))
        d = machine.topology.direction(0, +1)
        arrival = machine.topology.opposite(d)
        recv = machine.nodes[1].scu.recv(arrival, DmaDescriptor("rx", block_len=nwords))
        send = machine.nodes[0].scu.send(d, DmaDescriptor("tx", block_len=nwords))
        machine.sim.run(until=machine.sim.all_of([send, recv]), max_time=10.0)
        assert np.array_equal(machine.nodes[1].memory.get("rx"), data)
        assert machine.audit_checksums() == []


class TestOverlapClaims:
    """Paper section 4: the published efficiencies need comm/compute
    overlap.  Pin (a) the overlapped timeline strictly beats the
    serialized one on a comm-heavy tile while moving identical payload,
    and (b) the perf-model Wilson efficiency stays inside the paper's
    40--50% band at small local volumes only when overlap is on."""

    @staticmethod
    def _run_wilson(overlap):
        machine, partition = booted((2, 1, 1, 1, 1, 1), word_batch=4096)
        # 2^4 per node on a 1D decomp
        gauge, psi = system((5, "overlap-claims"), (4, 2, 2, 2), imag=False)
        applied(machine, partition, "wilson", gauge, psi, mass=0.3, overlap=overlap)
        return machine.sim.now, transfer_counters(machine, partition)

    def test_overlap_strictly_faster_same_payload(self):
        t_overlap, c_overlap = self._run_wilson(True)
        t_mono, c_mono = self._run_wilson(False)
        # identical words on the wire, strictly less wall-clock:
        assert c_overlap == c_mono
        assert t_overlap < t_mono

    def test_wilson_efficiency_band(self):
        from repro.perfmodel import DiracPerfModel

        model = DiracPerfModel()
        # calibration point, 4^4: the paper's 40% exactly, inside the band
        assert model.efficiency("wilson") == pytest.approx(0.40, abs=1e-9)
        # 2^4 tile (the paper's headline 10 Tflops partitioning): the
        # overlapped model holds near the published band ...
        eff2 = model.efficiency("wilson", local_shape=(2, 2, 2, 2))
        assert 0.39 <= eff2 <= 0.50
        # ... while the serialized model collapses below it.
        ser2 = model.efficiency(
            "wilson", local_shape=(2, 2, 2, 2), overlap=False
        )
        assert ser2 < 0.35 < eff2
