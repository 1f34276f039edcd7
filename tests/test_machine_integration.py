"""Machine-level integration: bring-up, node programs over partitions,
ring shifts, global sums from programs, checksum audit, HSSL training."""

import numpy as np
import pytest

from repro.comms.api import face_descriptor, full_descriptor
from repro.machine.asic import TRAINING_BYTES, MachineConfig
from repro.machine.hssl import SerialLink
from repro.machine.machine import QCDOCMachine
from repro.machine.packets import Frame, PacketType
from repro.machine.scu import DmaDescriptor
from repro.sim.core import Simulator
from repro.util.errors import ConfigError, MachineError, ProtocolError


class TestHSSL:
    def test_transmit_before_training_rejected(self):
        sim = Simulator()
        from repro.machine.asic import ASICConfig

        link = SerialLink(sim, ASICConfig())
        link.set_receiver(lambda f: None)
        with pytest.raises(ProtocolError, match="training"):
            link.transmit(Frame(PacketType.IDLE))

    def test_training_takes_known_sequence_time(self):
        sim = Simulator()
        from repro.machine.asic import ASICConfig

        asic = ASICConfig()
        link = SerialLink(sim, asic)
        ev = link.train()
        sim.run(until=ev)
        assert link.trained
        # the sheet's figure, and the sheet's figure is the byte sequence
        # at the link clock (4.096 us at 500 MHz)
        assert sim.now == asic.training_time
        assert asic.training_time == TRAINING_BYTES * 8 / asic.clock_hz

    def test_machine_bring_up_trains_all_links(self):
        m = QCDOCMachine(MachineConfig(dims=(2, 2, 1, 1, 1, 1)))
        m.bring_up()
        assert all(link.trained for link in m.network.links.values())
        assert m.network.n_links == 4 * 4  # 4 nodes x 2 axes x 2 signs


class TestRunPartition:
    def test_requires_bring_up(self):
        m = QCDOCMachine(MachineConfig(dims=(2, 1, 1, 1, 1, 1)))
        p = m.partition(groups=[(0,)])

        def prog(api):
            yield api.barrier()

        with pytest.raises(MachineError, match="bring_up"):
            m.run_partition(p, prog)

    def test_every_rank_runs_and_returns(self):
        m = QCDOCMachine(MachineConfig(dims=(2, 2, 1, 1, 1, 1)))
        m.bring_up()
        p = m.partition(groups=[(0,), (1,)])

        def prog(api):
            yield api.compute(1000)
            return (api.rank, api.coord)

        results = m.run_partition(p, prog)
        assert [r[0] for r in results] == list(range(4))
        assert results[3][1] == (1, 1)

    def test_ring_shift_program(self):
        # Each rank sends its rank number around a 4-ring; after one shift
        # everyone holds their backward neighbour's value.
        m = QCDOCMachine(MachineConfig(dims=(4, 1, 1, 1, 1, 1)), word_batch=8)
        m.bring_up()
        p = m.partition(groups=[(0,)])

        def prog(api):
            api.alloc("out", np.array([float(api.rank)]))
            api.alloc("in", np.zeros(1))
            recv = api.recv_buffer(0, -1, "in")
            send = api.send_buffer(0, +1, "out")
            yield api.wait([send, recv])
            return float(api.buffer("in")[0])

        results = m.run_partition(p, prog)
        # receiving from the -1 direction: value travels +1, so rank r
        # holds rank (r-1) mod 4... our convention: send(0,+1) goes to the
        # +1 neighbour, who receives it as "from -1".
        assert results == [3.0, 0.0, 1.0, 2.0]

    def test_global_sum_from_programs(self):
        m = QCDOCMachine(MachineConfig(dims=(2, 2, 2, 1, 1, 1)))
        m.bring_up()
        p = m.partition(groups=[(0,), (1,), (2,)])

        def prog(api):
            total = yield api.global_sum(np.array([float(api.rank), 1.0]))
            return (float(total[0]), float(total[1]))

        results = m.run_partition(p, prog)
        assert all(r == (28.0, 8.0) for r in results)

    def test_checksum_audit_clean_after_exchange(self):
        m = QCDOCMachine(MachineConfig(dims=(2, 2, 1, 1, 1, 1)), word_batch=8)
        m.bring_up()
        p = m.partition(groups=[(0,), (1,)])

        def prog(api):
            api.alloc("tx", np.full(6, float(api.rank)))
            api.alloc("rx", np.zeros(6))
            evs = [
                api.send_buffer(0, +1, "tx"),
                api.recv_buffer(0, -1, "rx"),
            ]
            yield api.wait(evs)

        m.run_partition(p, prog)
        assert m.audit_checksums() == []

    def test_supervisor_between_ranks(self):
        m = QCDOCMachine(MachineConfig(dims=(2, 1, 1, 1, 1, 1)))
        m.bring_up()
        p = m.partition(groups=[(0,)])

        def prog(api):
            if api.rank == 0:
                yield api.send_supervisor(0, +1, 0xBEEF)
                return None
            ev = api.wait_supervisor()
            direction, word = yield ev
            return word

        results = m.run_partition(p, prog)
        assert results[1] == 0xBEEF


class TestFaceDescriptor:
    def test_matches_face_indices(self):
        from repro.lattice.stencil import face_sites

        shape = (4, 3, 2)
        wps = 2
        for axis in range(3):
            for side in (-1, +1):
                desc = face_descriptor("b", shape, axis, side, wps)
                sites = face_sites(shape, axis, side)
                expected = (
                    sites[:, None] * wps + np.arange(wps)[None, :]
                ).reshape(-1)
                assert np.array_equal(np.sort(desc.indices()), np.sort(expected))
                # order must agree exactly, not just as sets:
                assert np.array_equal(desc.indices(), expected)

    def test_depth_3_face(self):
        desc = face_descriptor("b", (8, 2), 0, +1, 1, depth=3)
        idx = desc.indices()
        assert idx.min() == (8 - 3) * 2
        assert len(idx) == 6

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigError):
            face_descriptor("b", (4, 4), 2, +1, 1)

    def test_full_descriptor_covers_buffer(self):
        m = QCDOCMachine(MachineConfig(dims=(2, 1, 1, 1, 1, 1)))
        m.nodes[0].memory.alloc("x", np.zeros(7))
        d = full_descriptor(m.nodes[0], "x")
        assert d.total_words == 7
