"""SCU protocol: DMA transfers, latency, windows, idle receive, resends,
supervisor packets, persistent descriptors, checksums."""

import numpy as np
import pytest

from repro.machine.asic import ASICConfig, MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.machine.packets import PacketType, decode_header, encode_header
from repro.machine.scu import DmaDescriptor
from repro.util.errors import ProtocolError
from repro.util.units import NS, US
from tests.harness import applied, assert_same_observables, booted, system


def two_node_machine(**kwargs):
    m = QCDOCMachine(MachineConfig(dims=(2, 1, 1, 1, 1, 1)), **kwargs)
    m.bring_up()
    return m


def send_words(m, n, src=0, dst=1, payload=None, post_recv_first=True):
    """Helper: transfer n words from node src to node dst on axis 0 (+)."""
    data = (
        np.arange(1, n + 1, dtype=np.uint64) if payload is None else payload
    )
    m.nodes[src].memory.alloc("tx", data.astype(np.uint64))
    m.nodes[dst].memory.alloc("rx", np.zeros(n, dtype=np.uint64))
    direction = m.topology.direction(0, +1)
    arrival = m.topology.opposite(direction)
    recv_done = send_done = None
    if post_recv_first:
        recv_done = m.nodes[dst].scu.recv(arrival, DmaDescriptor("rx", block_len=n))
        send_done = m.nodes[src].scu.send(direction, DmaDescriptor("tx", block_len=n))
    else:
        send_done = m.nodes[src].scu.send(direction, DmaDescriptor("tx", block_len=n))
        recv_done = m.nodes[dst].scu.recv(arrival, DmaDescriptor("rx", block_len=n))
    return data, send_done, recv_done


def max_in_flight_until(m, sender, *events):
    """Run until every event has triggered; the sender's widest
    unacknowledged window, looked at after every heap entry."""
    widest = 0

    def watch():
        nonlocal widest
        widest = max(widest, sender.next - sender.base)
        return all(ev.triggered for ev in events)

    m.sim.run(stop=watch)
    return widest


class TestDmaDescriptor:
    def test_contiguous_indices(self):
        d = DmaDescriptor("b", block_len=4, offset=10)
        assert np.array_equal(d.indices(), [10, 11, 12, 13])
        assert d.total_words == 4

    def test_block_strided_indices(self):
        d = DmaDescriptor("b", block_len=2, nblocks=3, stride=5, offset=1)
        assert np.array_equal(d.indices(), [1, 2, 6, 7, 11, 12])

    def test_bad_descriptors_rejected(self):
        with pytest.raises(ProtocolError):
            DmaDescriptor("b", block_len=0)
        with pytest.raises(ProtocolError):
            DmaDescriptor("b", block_len=4, nblocks=2, stride=2)


class TestBasicTransfer:
    def test_data_arrives_intact(self):
        m = two_node_machine()
        data, send_done, recv_done = send_words(m, 24)
        m.sim.run(until=m.sim.all_of([send_done, recv_done]))
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)

    def test_first_word_latency_is_600ns(self):
        m = two_node_machine()
        t0 = m.sim.now
        _data, _send, recv_done = send_words(m, 1)
        m.sim.run(until=recv_done)
        assert m.sim.now - t0 == pytest.approx(600 * NS, rel=1e-9)

    def test_24_word_transfer_matches_paper_arithmetic(self):
        # 600 ns first word + 23 x 144 ns streaming = 3.912 us ~ "600 ns
        # + 3.3 us for the remaining 23 words".
        m = two_node_machine()
        t0 = m.sim.now
        _data, _send, recv_done = send_words(m, 24)
        m.sim.run(until=recv_done)
        asic = m.asic
        expected = asic.neighbour_latency + 23 * asic.word_serialisation_time
        assert m.sim.now - t0 == pytest.approx(expected, rel=1e-9)

    def test_sustained_link_bandwidth(self):
        # A long transfer approaches 64 payload bits / 72 wire bits of the
        # 500 Mbit/s wire = 55.6 MB/s.
        m = two_node_machine()
        n = 2000
        t0 = m.sim.now
        _data, _send, recv_done = send_words(m, n)
        m.sim.run(until=recv_done)
        rate = 8.0 * n / (m.sim.now - t0)
        assert rate == pytest.approx(m.asic.link_bandwidth, rel=0.02)

    def test_block_strided_gather_scatter(self):
        m = two_node_machine()
        src = np.arange(100, dtype=np.uint64)
        m.nodes[0].memory.alloc("tx", src)
        m.nodes[1].memory.alloc("rx", np.zeros(100, dtype=np.uint64))
        d_out = m.topology.direction(0, +1)
        d_in = m.topology.opposite(d_out)
        # send every 10th pair, place them at the start of rx
        send_desc = DmaDescriptor("tx", block_len=2, nblocks=5, stride=10)
        recv_desc = DmaDescriptor("rx", block_len=10)
        recv_done = m.nodes[1].scu.recv(d_in, recv_desc)
        m.nodes[0].scu.send(d_out, send_desc)
        m.sim.run(until=recv_done)
        expected = src[send_desc.indices()]
        assert np.array_equal(m.nodes[1].memory.get("rx")[:10], expected)


class TestIdleReceive:
    def test_send_before_recv_blocks_then_completes(self):
        # "there need be no temporal ordering between software issuing a
        # send on one node and a receive on another"
        m = two_node_machine()
        n = 10
        data = np.arange(1, n + 1, dtype=np.uint64)
        m.nodes[0].memory.alloc("tx", data)
        m.nodes[1].memory.alloc("rx", np.zeros(n, dtype=np.uint64))
        d_out = m.topology.direction(0, +1)
        d_in = m.topology.opposite(d_out)
        send_done = m.nodes[0].scu.send(d_out, DmaDescriptor("tx", block_len=n))

        # run 20 us: sender must be stalled after 3 unacked words
        m.sim.run(max_time=m.sim.now + 20 * US)
        sender = m.nodes[0].scu.send_units[d_out]
        assert not send_done.triggered
        assert sender.next == 3  # exactly the three-in-the-air window
        held = m.nodes[1].scu.recv_units[d_in].held_words
        assert held == 3  # held in SCU registers, unacknowledged

        recv_done = m.nodes[1].scu.recv(d_in, DmaDescriptor("rx", block_len=n))
        m.sim.run(until=m.sim.all_of([send_done, recv_done]))
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)

    def test_window_never_exceeds_three_unacked(self):
        m = two_node_machine(trace=True)
        _data, send_done, recv_done = send_words(m, 50)
        sender = m.nodes[0].scu.send_units[m.topology.direction(0, +1)]
        assert max_in_flight_until(m, sender, send_done, recv_done) <= 3


class TestStaleEntry:
    """A transfer abandoned mid-flight leaves its send unit's next pump on
    the heap, or the unit waiting on its window; neither may clock
    another frame, and the next transfer on the unit, started at once,
    must run exactly as on a fresh unit.  The receiver idles throughout
    the abandoned transfer, so no ACK of it is on the wire either."""

    N_NEXT = 8

    def fresh(self):
        """The next transfer on an unused unit: claim to completion, in
        simulated seconds and in heap entries."""
        m = two_node_machine(word_batch=1)
        t0, before = m.sim.now, m.sim.events_processed
        _data, send_done, _recv_done = send_words(m, self.N_NEXT)
        m.sim.run(until=send_done)
        return m.sim.now - t0, m.sim.events_processed - before

    @pytest.mark.parametrize("how", ["cancel-on-wire", "cancel-on-window", "trip"])
    def test_abandoned_transfer_clocks_nothing(self, how):
        m = two_node_machine(word_batch=1, watchdog=how == "trip")
        d_out = m.topology.direction(0, +1)
        d_in = m.topology.opposite(d_out)
        scu = m.nodes[0].scu
        sender, link = scu.send_units[d_out], scu.out_links[d_out]
        receiver = m.nodes[1].scu.recv_units[d_in]
        m.nodes[0].memory.alloc("tx", np.arange(1, 11, dtype=np.uint64))
        abandoned = scu.send(d_out, DmaDescriptor("tx", block_len=10))
        if how == "cancel-on-wire":
            # the first frame is out: its pump for the wire-free time is due
            m.sim.run(stop=lambda: sender.next == 1)
            assert not sender._waiting
            sender.cancel()
        elif how == "cancel-on-window":
            m.sim.run()  # three words idle-held, no ACK: nothing on the heap
            assert sender._waiting and sender.next == 3
            sender.cancel()
        else:
            m.sim.run(stop=lambda: sender.watchdog_trips == 1)
        assert abandoned.triggered and not abandoned.ok
        assert not sender._waiting  # no ACK of the next transfer pumps for it
        clocked, wire = sender.next, (sender.wire_words, link.frames_sent)

        # the next transfer claims the unit at the same sim.now
        t1 = m.sim.now
        data = np.arange(100, 100 + self.N_NEXT, dtype=np.uint64)
        m.nodes[0].memory.alloc("tx2", data)
        m.nodes[1].memory.alloc("rx", np.zeros(self.N_NEXT, dtype=np.uint64))
        send_done = scu.send(d_out, DmaDescriptor("tx2", self.N_NEXT))
        first_pump = t1 + m.asic.first_word_delay
        m.sim.run(stop=lambda: m.sim.peek() >= first_pump)
        # every abandoned word has landed and is held; nothing more went out
        assert (sender.wire_words, link.frames_sent) == wire
        assert receiver.held_words == clocked

        receiver.cancel()  # the abandoned words go with their transfer
        recv_done = m.nodes[1].scu.recv(d_in, DmaDescriptor("rx", self.N_NEXT))
        before = m.sim.events_processed
        m.sim.run(until=send_done)
        took, entries = m.sim.now - t1, m.sim.events_processed - before
        m.sim.run(until=recv_done)
        assert send_done.value == recv_done.value == self.N_NEXT
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)
        assert sender.wire_words == wire[0] + self.N_NEXT
        fresh_took, fresh_entries = self.fresh()
        assert took == pytest.approx(fresh_took, rel=1e-12)
        assert entries == fresh_entries  # one pump, never a second
        assert m.audit_checksums() == []


class TestFaultInjectionAndResend:
    def test_resends_recover_corrupted_words(self):
        m = two_node_machine(bit_error_rate=2e-3, seed=7, trace=True)
        n = 60
        data, send_done, recv_done = send_words(m, n)
        m.sim.run(until=m.sim.all_of([send_done, recv_done]), max_time=1.0)
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)
        assert m.network.total_faults_injected() > 0
        sender = m.nodes[0].scu.send_units[m.topology.direction(0, +1)]
        assert sender.resends >= 1

    def test_checksums_match_despite_resends(self):
        m = two_node_machine(bit_error_rate=2e-3, seed=11)
        _data, send_done, recv_done = send_words(m, 60)
        m.sim.run(until=m.sim.all_of([send_done, recv_done]), max_time=1.0)
        assert m.audit_checksums() == []

    def test_fault_injection_is_deterministic(self):
        def run(seed):
            m = two_node_machine(bit_error_rate=2e-3, seed=seed)
            _d, s, r = send_words(m, 60)
            m.sim.run(until=m.sim.all_of([s, r]), max_time=1.0)
            return (
                m.network.total_faults_injected(),
                m.sim.now,
                m.nodes[1].memory.get("rx").tobytes(),
            )

        assert run(3) == run(3)
        assert run(3)[0] != run(4)[0] or run(3)[1] != run(4)[1]

    def test_undetected_corruption_caught_by_audit(self):
        # Manually corrupt a word bit-exactly in the receive buffer after
        # checksumming on one side only: the end-of-run audit must flag it.
        m = two_node_machine()
        _data, send_done, recv_done = send_words(m, 5)
        m.sim.run(until=m.sim.all_of([send_done, recv_done]))
        d_in = m.topology.opposite(m.topology.direction(0, +1))
        m.nodes[1].scu.recv_units[d_in].checksum.update(
            np.array([0xBAD], dtype=np.uint64)
        )
        audit = m.audit_checksums()
        assert len(audit) == 1 and "n0.d0->n1" in audit[0]

    #: two flips on the even bit phase: parity passes (see
    #: test_machine_packets.py::test_same_phase_double_flip_evades_parity)
    FLIP = np.uint64((1 << 2) | (1 << 4))

    def flipped_then_aborted(self, rate, seed, after, planted):
        """A 30-word transfer from node 0 completes, word 7 flipped on the
        wire in every copy sent if ``planted``; then a transfer from node
        1 is aborted ``after`` heap entries in: both SCUs cancel, drain and
        boot-reset.  The wires the audit names."""
        m = two_node_machine(bit_error_rate=rate, seed=seed)
        link = m.network.links[(0, m.topology.direction(0, +1))]
        transmit = link.transmit

        def flipping(frame):
            if frame.ptype is PacketType.NORMAL and frame.seq == 7:
                frame.words = frame.words ^ self.FLIP
            return transmit(frame)

        if planted:
            link.transmit = flipping
        data, send_done, recv_done = send_words(m, 30)
        m.sim.run(until=m.sim.all_of([send_done, recv_done]), max_time=1.0)
        link.transmit = transmit
        # the flip landed in the completed transfer, parity none the wiser
        assert np.count_nonzero(m.nodes[1].memory.get("rx") != data) == planted
        assert decode_header(encode_header(PacketType.NORMAL, 7), 7 ^ int(self.FLIP))[1]

        send_words(m, 30, src=1, dst=0)
        first = m.sim.events_processed
        m.sim.run(stop=lambda: m.sim.events_processed - first >= after)
        for node in m.nodes.values():
            node.scu.cancel_active_transfers()
        m.sim.run(max_time=m.sim.now + 1.0)
        for node in m.nodes.values():
            node.boot_reset()
        return [line.split(":")[0] for line in m.audit_checksums()]

    @pytest.mark.parametrize("planted", [True, False])
    def test_parity_evading_flip_on_the_wire_caught_by_audit(self, planted):
        """E14 with the corruption on the wire: under bit errors, with a
        partition abort of another transfer at any point, the audit names
        the link that carried the flip and no other."""
        named = ["link n0.d0->n1"] if planted else []
        for rate, seed in ((1e-3, 3), (2e-3, 7), (5e-3, 11)):
            for after in (5, 20, 40, 80, 120):
                assert self.flipped_then_aborted(rate, seed, after, planted) == named


class TestSupervisorPackets:
    def test_supervisor_raises_neighbour_interrupt(self):
        m = two_node_machine()
        d_out = m.topology.direction(0, +1)
        d_in = m.topology.opposite(d_out)
        m.nodes[0].scu.send_supervisor(d_out, 0xCAFE)
        waiter = m.nodes[1].wait_supervisor()
        m.sim.run(until=waiter)
        direction, word = waiter.value
        assert word == 0xCAFE
        assert direction == d_in
        assert m.nodes[1].scu.supervisor_reg[d_in] == 0xCAFE

    def test_supervisor_interleaves_with_data(self):
        # Supervisor packets share the wire; they must not corrupt an
        # in-flight DMA stream.
        m = two_node_machine()
        data, send_done, recv_done = send_words(m, 30)
        waiter = m.nodes[1].wait_supervisor()
        m.sim.schedule(1 * US, lambda: m.nodes[0].scu.send_supervisor(
            m.topology.direction(0, +1), 42
        ))
        m.sim.run(until=m.sim.all_of([send_done, recv_done, waiter]))
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)
        assert waiter.value[1] == 42


class TestPersistentDescriptors:
    def test_single_start_runs_stored_transfers(self):
        # Paper section 3.3: "only a single write (start transfer) is
        # needed to start up to 24 communications".
        m = two_node_machine()
        n = 8
        data = np.arange(1, n + 1, dtype=np.uint64)
        m.nodes[0].memory.alloc("tx", data)
        m.nodes[1].memory.alloc("rx", np.zeros(n, dtype=np.uint64))
        d_out = m.topology.direction(0, +1)
        d_in = m.topology.opposite(d_out)
        m.nodes[0].scu.store_descriptor("send", d_out, DmaDescriptor("tx", block_len=n))
        m.nodes[1].scu.store_descriptor("recv", d_in, DmaDescriptor("rx", block_len=n))
        ev_rx = m.nodes[1].scu.start_stored()
        ev_tx = m.nodes[0].scu.start_stored()
        m.sim.run(until=m.sim.all_of(list(ev_rx.values()) + list(ev_tx.values())))
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)

    def test_stored_descriptor_reusable_across_rounds(self):
        m = two_node_machine()
        n = 4
        tx = m.nodes[0].memory.alloc("tx", np.zeros(n, dtype=np.uint64))
        m.nodes[1].memory.alloc("rx", np.zeros(n, dtype=np.uint64))
        d_out = m.topology.direction(0, +1)
        d_in = m.topology.opposite(d_out)
        m.nodes[0].scu.store_descriptor("send", d_out, DmaDescriptor("tx", block_len=n))
        m.nodes[1].scu.store_descriptor("recv", d_in, DmaDescriptor("rx", block_len=n))
        for round_ in range(3):
            tx[:] = np.arange(n, dtype=np.uint64) + 100 * round_
            evs = list(m.nodes[1].scu.start_stored().values()) + list(
                m.nodes[0].scu.start_stored().values()
            )
            m.sim.run(until=m.sim.all_of(evs))
            assert np.array_equal(m.nodes[1].memory.get("rx"), tx)


class TestBatchedMode:
    def test_batched_transfer_same_data_amortised_headers(self):
        # word_batch > 1 moves the same payload with one frame header per
        # batch instead of per word (the face-batch wire accounting), so
        # the batched transfer is *faster* by exactly the saved header
        # serialisation time, minus one ack-turnaround gap per window
        # stall (window == one batch, so the sender idles for the ack
        # round trip between consecutive frames).
        nwords, batch = 480, 16
        times = {}
        for wb in (1, batch):
            m = QCDOCMachine(
                MachineConfig(dims=(2, 1, 1, 1, 1, 1)), word_batch=wb
            )
            m.bring_up()
            t0 = m.sim.now
            data, send_done, recv_done = send_words(m, nwords)
            m.sim.run(until=m.sim.all_of([send_done, recv_done]))
            times[wb] = m.sim.now - t0
            assert np.array_equal(m.nodes[1].memory.get("rx"), data)
        asic = m.asic
        header_t = asic.frame_header_bits / asic.clock_hz
        frames = nwords // batch
        saved_headers = (nwords - frames) * header_t
        # per-frame ack turnaround: wire out + ack header back + wire back
        ack_gap = 2 * asic.wire_latency + header_t
        stalls = (frames - 1) * ack_gap
        assert times[batch] < times[1]
        assert times[1] - times[batch] == pytest.approx(
            saved_headers - stalls, rel=1e-9
        )

    def test_face_batch_single_frame_per_transfer(self):
        # word_batch="face" resolves the batch to the whole transfer: one
        # data frame + one EOT on the wire, identical received payload.
        m = QCDOCMachine(
            MachineConfig(dims=(2, 1, 1, 1, 1, 1)), word_batch="face"
        )
        m.bring_up()
        link = m.nodes[0].scu.out_links[m.topology.direction(0, +1)]
        frames_before = link.frames_sent
        data, send_done, recv_done = send_words(m, 480)
        m.sim.run(until=m.sim.all_of([send_done, recv_done]))
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)
        # one NORMAL frame carrying all 480 words, then the EOT marker
        assert link.frames_sent - frames_before == 2
        counters = m.nodes[0].scu.transfer_counters()
        assert counters["payload_words_sent"] == 480
        assert counters["wire_words_sent"] == 480
        assert counters["acks_received"] == 1

    def test_double_start_rejected(self):
        m = two_node_machine()
        m.nodes[0].memory.alloc("tx", np.zeros(500, dtype=np.uint64))
        d_out = m.topology.direction(0, +1)
        m.nodes[0].scu.send(d_out, DmaDescriptor("tx", block_len=500))
        with pytest.raises(ProtocolError, match="active"):
            m.nodes[0].scu.send(d_out, DmaDescriptor("tx", block_len=500))


@pytest.mark.protocol
class TestProtocolRegression:
    """Protocol invariants at ``word_batch=1`` (every wire word simulated).

    The overlap optimisation moves transfer start/completion around on the
    timeline; these tests pin down that the serial-link protocol underneath
    — three-in-the-air window, idle receive, go-back-N resends, low-level
    ack discipline — is unchanged, including under fault injection.
    """

    def test_per_direction_stored_events_complete_under_faults(self):
        # Bidirectional stored transfers (the overlap pipeline's halo
        # exchange pattern): every (kind, direction) event fires
        # individually, both payloads arrive intact despite bit errors.
        m = two_node_machine(word_batch=1, bit_error_rate=1e-3, seed=7,
                             trace=True)
        n = 96
        d_out = m.topology.direction(0, +1)
        d_in = m.topology.opposite(d_out)
        payloads = {}
        for node in (0, 1):
            payloads[node] = np.arange(
                1 + 1000 * node, n + 1 + 1000 * node, dtype=np.uint64
            )
            m.nodes[node].memory.alloc("tx", payloads[node])
            m.nodes[node].memory.alloc("rx", np.zeros(n, dtype=np.uint64))
            m.nodes[node].scu.store_descriptor(
                "send", d_out, DmaDescriptor("tx", block_len=n), group="halo"
            )
            m.nodes[node].scu.store_descriptor(
                "recv", d_in, DmaDescriptor("rx", block_len=n), group="halo"
            )
        evs = {}
        for node in (0, 1):
            for key, ev in m.nodes[node].scu.start_stored(group="halo").items():
                evs[(node,) + key] = ev
        assert len(evs) == 4
        m.sim.run(until=m.sim.all_of(list(evs.values())), max_time=1.0)
        for ev in evs.values():
            assert ev.triggered
        # on a 2-node periodic axis, +1 from node 0 lands on node 1 and
        # vice versa:
        assert np.array_equal(m.nodes[1].memory.get("rx"), payloads[0])
        assert np.array_equal(m.nodes[0].memory.get("rx"), payloads[1])
        assert m.network.total_faults_injected() > 0
        assert m.audit_checksums() == []

    def test_window_never_exceeds_three_under_faults(self):
        # Go-back-N rewinds must never inflate the in-flight window past
        # the paper's three-in-the-air limit.
        m = two_node_machine(word_batch=1, bit_error_rate=2e-3, seed=13,
                             trace=True)
        _data, send_done, recv_done = send_words(m, 80)
        sender = m.nodes[0].scu.send_units[m.topology.direction(0, +1)]
        assert max_in_flight_until(m, sender, send_done, recv_done) <= 3
        assert m.network.total_faults_injected() > 0
        assert sender.resends >= 1

    def test_every_fault_is_resent_and_cleanly_redelivered(self):
        # Go-back-N: a corrupted word triggers at least one rewind of the
        # sender, and the faulted sequence number is delivered again as a
        # NORMAL frame strictly after its last fault.
        m = two_node_machine(word_batch=1, bit_error_rate=1e-3, seed=11,
                             trace=True)
        n = 150
        data, send_done, recv_done = send_words(m, n)
        m.sim.run(until=m.sim.all_of([send_done, recv_done]), max_time=1.0)
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)
        faults = m.trace.tagged("link.fault")
        resends = m.trace.tagged("scu.resend")
        assert len(faults) > 0
        assert len(resends) >= 1
        sender = m.nodes[0].scu.send_units[m.topology.direction(0, +1)]
        assert sender.resends == len(
            [r for r in resends if r.fields["node"] == 0]
        )
        delivers = m.trace.tagged("link.deliver")
        for fault in faults:
            link, seq = fault.fields["link"], fault.fields["seq"]
            clean = [
                d
                for d in delivers
                if d.fields["link"] == link
                and d.fields["ptype"] == "NORMAL"
                and d.fields["seq"] == seq
                and d.time > fault.time
            ]
            assert clean, f"seq {seq} never redelivered after fault at {fault.time}"

    def test_never_acks_out_of_window(self):
        # Receiver acknowledgements advance monotonically and never
        # acknowledge a sequence number beyond the transfer.
        m = two_node_machine(word_batch=1, bit_error_rate=1e-3, seed=13,
                             trace=True)
        n = 120
        _data, send_done, recv_done = send_words(m, n)
        m.sim.run(until=m.sim.all_of([send_done, recv_done]), max_time=1.0)
        per_link = {}
        for rec in m.trace.tagged("link.deliver"):
            if rec.fields["ptype"] == "ACK":
                per_link.setdefault(rec.fields["link"], []).append(
                    rec.fields["seq"]
                )
        assert per_link  # acks flowed
        for link, seqs in per_link.items():
            assert seqs == sorted(seqs), f"acks regressed on {link}"
            assert max(seqs) <= n

    def test_idle_receive_with_stored_descriptors(self):
        # Starting the stored send long before the matching recv must
        # stall the sender at the window, not lose or duplicate words.
        m = two_node_machine(word_batch=1)
        n = 12
        data = np.arange(1, n + 1, dtype=np.uint64)
        m.nodes[0].memory.alloc("tx", data)
        m.nodes[1].memory.alloc("rx", np.zeros(n, dtype=np.uint64))
        d_out = m.topology.direction(0, +1)
        d_in = m.topology.opposite(d_out)
        m.nodes[0].scu.store_descriptor(
            "send", d_out, DmaDescriptor("tx", block_len=n), group="g"
        )
        m.nodes[1].scu.store_descriptor(
            "recv", d_in, DmaDescriptor("rx", block_len=n), group="g"
        )
        send_evs = m.nodes[0].scu.start_stored(group="g")
        m.sim.run(max_time=m.sim.now + 20 * US)
        sender = m.nodes[0].scu.send_units[d_out]
        assert sender.next == 3  # exactly three words in the air
        assert m.nodes[1].scu.recv_units[d_in].held_words == 3
        recv_evs = m.nodes[1].scu.start_stored(group="g")
        m.sim.run(
            until=m.sim.all_of(
                list(send_evs.values()) + list(recv_evs.values())
            )
        )
        assert np.array_equal(m.nodes[1].memory.get("rx"), data)

    def test_wire_word_accounting(self):
        # wire words == payload words on a clean link; strictly greater
        # once go-back-N retransmits anything.
        for rate, seed in ((0.0, 1), (2e-3, 7)):
            kwargs = {"word_batch": 1}
            if rate:
                kwargs.update(bit_error_rate=rate, seed=seed)
            m = two_node_machine(**kwargs)
            _data, send_done, recv_done = send_words(m, 80)
            m.sim.run(until=m.sim.all_of([send_done, recv_done]), max_time=1.0)
            c = m.nodes[0].scu.transfer_counters()
            assert c["payload_words_sent"] == 80
            if rate:
                assert c["wire_words_sent"] > c["payload_words_sent"]
            else:
                assert c["wire_words_sent"] == c["payload_words_sent"]
            assert m.nodes[1].scu.transfer_counters()[
                "payload_words_received"
            ] == 80

    def test_wait_empty_event_list_resolves_immediately(self):
        # CommsAPI.wait([]) — a rank with no communicating axes (pure-0D
        # decomposition) waits on nothing and must resolve at sim.now,
        # not deadlock.  Defined semantics, pinned here.
        m = two_node_machine(word_batch=1)
        partition = m.partition(groups=[(0,), (1,), (2,), (3,)])

        def program(api):
            t0 = api.sim.now
            yield api.wait([])
            return api.sim.now - t0

        results = m.run_partition(partition, program)
        assert results == [0.0, 0.0]


class TestEventBudget:
    """Heap entries of a transfer, interpreted and replayed, pinned exactly:
    the counts are deterministic, so the next engine change has to edit the numbers.
    The clock readings were taken when the same exchange cost 12n + 14 and
    26 entries: an engine change may move the counts, never the time."""

    #: (word_batch, n) -> sim.now once the exchange below has drained
    CLOCK = {
        (1, 1): "0x1.3b24aa6a88704p-18",
        (1, 3): "0x1.4e7877cfb421ap-18",
        (1, 8): "0x1.7ec9f94ca15d1p-18",
        (1, 64): "0x1.cdfa382eb4630p-17",
        ("face", 1): "0x1.3b24aa6a88704p-18",
        ("face", 3): "0x1.4c52b652af46dp-18",
        ("face", 8): "0x1.7745d417105f5p-18",
        ("face", 64): "0x1.ac2790bda7ebcp-17",
    }

    @pytest.mark.parametrize("n", [1, 3, 8, 64])
    @pytest.mark.parametrize("word_batch", [1, "face"])
    def test_two_node_exchange(self, word_batch, n):
        m = two_node_machine(word_batch=word_batch, replay=False)
        before = m.sim.events_processed
        there = send_words(m, n, src=0, dst=1)
        back = send_words(m, n, src=1, dst=0, payload=np.arange(n) + 100)
        m.sim.run()
        for (data, *events), dst in ((there, 1), (back, 0)):
            assert all(ev.ok and ev.value == n for ev in events)
            assert np.array_equal(m.nodes[dst].memory.get("rx"), data)
        # per direction and frame: the sender's pump once the wire is free,
        # the data delivery, the ACK delivery; per direction: the first
        # pump after the DMA fetch, the EOT's sleep and delivery, the
        # receive's completion (the last ACK pumps the EOT out inline)
        frames = n if word_batch == 1 else 1
        assert m.sim.events_processed - before == 2 * (3 * frames + 4)
        assert m.sim.now == float.fromhex(self.CLOCK[word_batch, n])
        assert m.audit_checksums() == []

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 8, 64])
    def test_replayed_exchange(self, n, trace):
        """The same exchange from stored descriptors, twice in a hot epoch:
        interpreted while the engine learns, replayed the second time."""

        def two_epochs(replay):
            m = two_node_machine(word_batch="face", replay=replay, trace=trace)
            direction = m.topology.direction(0, +1)
            arrival = m.topology.opposite(direction)
            scus = [m.nodes[i].scu for i in (0, 1)]
            for i, first in ((0, 1), (1, 100)):
                m.nodes[i].memory.alloc("tx", np.arange(first, first + n, dtype=np.uint64))
                m.nodes[i].memory.alloc("rx", np.zeros(n, dtype=np.uint64))
                scus[i].store_descriptor("recv", arrival, DmaDescriptor("rx", block_len=n))
                scus[i].store_descriptor("send", direction, DmaDescriptor("tx", block_len=n))
            readings = []
            for _ in range(2):
                for scu in scus:
                    scu.replay.begin_epoch("exchange")
                before = m.sim.events_processed
                events = [ev for scu in scus for ev in scu.start_stored().values()]
                m.sim.run()
                assert all(ev.ok and ev.value == n for ev in events)
                for scu in scus:
                    scu.replay.end_epoch("exchange")
                readings.append((m.sim.events_processed - before, m.sim.now))
            assert np.array_equal(m.nodes[1].memory.get("rx"), m.nodes[0].memory.get("tx"))
            assert m.audit_checksums() == []
            return m, readings

        m_int, (first_int, second_int) = two_epochs(replay=False)
        m_rep, (first_rep, second_rep) = two_epochs(replay=True)
        assert m_rep.replay_stats()["replayed_transfers"] == 4  # 2 sends, 2 receives
        # the first exchange reads the interpreted table above on both ...
        assert first_int == (2 * 7, float.fromhex(self.CLOCK["face", n]))
        assert first_rep[1] == first_int[1]
        # ... the second is replayed: per direction the first word's DMA
        # delay, the data landing, the ACK landing, the receive's
        # completion and the send's, at the EOT's last bit.  Nothing reads
        # that EOT at the far end, so it flies only to be traced.
        assert second_rep[0] == 2 * (6 if trace else 5)
        assert second_int[0] == 2 * 7
        assert second_rep[1] == second_int[1]
        assert_same_observables(m_int, m_rep)

    @staticmethod
    def wilson_exchange(dims, word_batch, shards, trace=False):
        """Heap entries per lane of one Wilson application on ``dims``
        (at shards=1 the one heap), and the clock once it has drained."""
        gauge, psi = system((7, "scu-budget"), (4, 4, 2, 2))
        m, part = booted(
            dims, word_batch=word_batch, replay=False, shards=shards, trace=trace
        )
        lanes = m.sim.lanes if shards > 1 else [m.sim]
        before = [lane.events_processed for lane in lanes]
        applied(m, part, "wilson", gauge, psi, mass=0.3)
        m.quiesce()
        spent = [lane.events_processed - was for lane, was in zip(lanes, before)]
        return spent, m.sim.now

    @pytest.mark.parametrize("shards", [1, 4])
    def test_wilson_exchange_2d_per_rank(self, shards):
        # one application = one HaloPipeline.exchange per rank, 8 face
        # transfers each: a drain loop that leaves its AnyOf registered on
        # every pending transfer grows with their number squared (109
        # entries per rank here).  At shards=4 a lane is a rank.
        spent, now = self.wilson_exchange((2, 2, 1, 1, 1, 1), "face", shards)
        # 35: the interior charge outlasts the exchange (the CPU reads the
        # cost sheet), so all eight transfers have landed when the drain
        # loop reaches them and it takes each inline, with no AnyOf and
        # no wake-up — none of them costs an entry of its own (51 while
        # it built an AnyOf for each).
        assert spent == ([35] * 4 if shards > 1 else [4 * 35])
        assert now == float.fromhex("0x1.f7c2ed889920ep-15")

    @pytest.mark.parametrize("shards", [1, 4])
    def test_wilson_exchange_2d_traced(self, shards):
        # tracing costs no entry: a compute charge's cpu.compute span is
        # written by its timeout's first callback, in the timeout's own
        # entry (41 per rank while each of the six charges scheduled an
        # entry of its own for the span)
        spent, now = self.wilson_exchange((2, 2, 1, 1, 1, 1), "face", shards, trace=True)
        assert spent == ([35] * 4 if shards > 1 else [4 * 35])
        assert now == float.fromhex("0x1.f7c2ed889920ep-15")

    @pytest.mark.parametrize("shards", [1, 4])
    def test_wilson_exchange_4d_per_rank(self, shards):
        # a drain that sleeps: on the 16-node 4-d machine a rank's tile is
        # 2x2x1x1, all boundary, so no interior charge covers the exchange.
        # Four times per rank the drain finds nothing landed and waits on
        # what is left (an AnyOf, its child callback, the wake-up); the
        # rest of its sixteen transfers it takes inline.  The clock is the
        # one the drain gave when it built an AnyOf for every transfer
        # (101 entries per rank then).  At shards=4 a lane is four ranks.
        spent, now = self.wilson_exchange((2, 2, 2, 2, 1, 1), 4096, shards)
        assert spent == ([4 * 77] * 4 if shards > 1 else [16 * 77])
        assert now == float.fromhex("0x1.5d9b089e58c16p-16")
