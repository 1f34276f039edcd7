"""Ethernet fabric and the hardware Ethernet/JTAG controller."""

import pytest

from repro.host.ethernet import MAX_PAYLOAD_BYTES, EthernetFabric, UdpDatagram
from repro.host.jtag import (
    JTAG_UDP_PORT,
    EthernetJtagController,
    JtagCommand,
    JtagOp,
)
from repro.sim.core import Simulator
from repro.util.errors import ConfigError, ProtocolError


class TestEthernetFabric:
    def test_datagram_delivered(self):
        sim = Simulator()
        fab = EthernetFabric(sim, n_nodes=4)
        got = []
        fab.attach(2, got.append)
        ev = fab.send(UdpDatagram("host", 2, 5000, "hello", nbytes=100))
        sim.run(until=ev)
        assert len(got) == 1 and got[0].payload == "hello"
        assert fab.packets_delivered == 1

    def test_unknown_destination_drops_silently(self):
        sim = Simulator()
        fab = EthernetFabric(sim, n_nodes=2)
        ev = fab.send(UdpDatagram("host", 1, 5000, "x"))
        assert sim.run(until=ev) is False
        assert fab.packets_dropped == 1

    def test_node_segment_serialisation_dominates(self):
        # 1458 B + overhead at 100 Mbit ~ 120 us; plus switch hops.
        sim = Simulator()
        fab = EthernetFabric(sim, n_nodes=1)
        fab.attach(0, lambda d: None)
        ev = fab.send(UdpDatagram("host", 0, 5000, "x", nbytes=1458))
        sim.run(until=ev)
        assert 100e-6 < sim.now < 200e-6

    def test_concurrent_packets_to_one_node_serialise(self):
        sim = Simulator()
        fab = EthernetFabric(sim, n_nodes=1, host_links=4)
        times = []
        fab.attach(0, lambda d: times.append(sim.now))
        for _ in range(3):
            fab.send(UdpDatagram("host", 0, 5000, "x", nbytes=1400))
        sim.run()
        assert len(times) == 3
        assert times[1] - times[0] > 1e-4  # the 100 Mbit segment is shared

    def test_packets_to_different_nodes_overlap(self):
        sim = Simulator()
        fab = EthernetFabric(sim, n_nodes=8, host_links=8)
        times = {}
        for n in range(8):
            fab.attach(n, lambda d, n=n: times.__setitem__(n, sim.now))
        for n in range(8):
            fab.send(UdpDatagram("host", n, 5000, "x", nbytes=1400))
        sim.run()
        spread = max(times.values()) - min(times.values())
        assert spread < 50e-6  # parallel node segments, separate host links

    def test_mtu_enforced(self):
        sim = Simulator()
        fab = EthernetFabric(sim, n_nodes=1)
        with pytest.raises(ConfigError):
            fab.send(UdpDatagram("host", 0, 5000, "x", nbytes=MAX_PAYLOAD_BYTES + 1))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            EthernetFabric(Simulator(), n_nodes=0)


class TestJtagController:
    def test_ready_from_power_on(self):
        # "the Ethernet/JTAG controller is ready to receive packets after
        # power on" — no boot required before commands work.
        ctrl = EthernetJtagController(0)
        assert ctrl.execute(JtagCommand(JtagOp.READ_STATUS)) == 0x1

    def test_icache_load_and_start(self):
        ctrl = EthernetJtagController(0)
        started = {}
        ctrl.on_start = lambda icache: started.update(icache)
        ctrl.execute(JtagCommand(JtagOp.RESET))
        for i in range(3):
            ctrl.execute(JtagCommand(JtagOp.WRITE_ICACHE, address=i, data=f"code{i}"))
        ctrl.execute(JtagCommand(JtagOp.START))
        assert ctrl.running and not ctrl.in_reset
        assert started == {0: "code0", 1: "code1", 2: "code2"}

    def test_icache_write_requires_reset(self):
        ctrl = EthernetJtagController(0)
        ctrl.execute(JtagCommand(JtagOp.WRITE_ICACHE, 0, "x"))
        ctrl.execute(JtagCommand(JtagOp.START))
        with pytest.raises(ProtocolError, match="while core running"):
            ctrl.execute(JtagCommand(JtagOp.WRITE_ICACHE, 1, "y"))

    def test_start_with_empty_icache_rejected(self):
        ctrl = EthernetJtagController(0)
        with pytest.raises(ProtocolError, match="empty icache"):
            ctrl.execute(JtagCommand(JtagOp.START))

    def test_non_jtag_port_ignored(self):
        ctrl = EthernetJtagController(0)
        before = ctrl.commands_processed
        result = ctrl.handle_datagram(
            UdpDatagram("host", 0, 9999, JtagCommand(JtagOp.RESET))
        )
        assert result is None and ctrl.commands_processed == before

    def test_non_jtag_payload_on_jtag_port_rejected(self):
        ctrl = EthernetJtagController(0)
        with pytest.raises(ProtocolError):
            ctrl.handle_datagram(UdpDatagram("host", 0, JTAG_UDP_PORT, "garbage"))
