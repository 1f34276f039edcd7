"""The Ethernet/JTAG controller: hardware UDP decoding, no software.

Paper section 2.3: "The second connection receives only UDP Ethernet
packets and, in particular, only responds to Ethernet packets which carry
Joint Test Action Group (JTAG) commands as their payload.  This ...
circuitry ... requires no software to do the UDP packet decoding and
manipulate the JTAG controller on the ASIC according to the instructions in
the UDP packet."

That hardware path is what makes a PROM-less machine bootable: code is
written *directly into the PPC 440's instruction cache* over the network,
and the core released from reset.  The same path carries failure
probing (the hardware status word).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict

from repro.host.ethernet import UdpDatagram
from repro.util.errors import ProtocolError

#: the UDP port the hardware decoder answers on
JTAG_UDP_PORT = 7777


class JtagOp(Enum):
    RESET = auto()  # hold the core in reset
    WRITE_ICACHE = auto()  # write a code block into the instruction cache
    START = auto()  # release from reset, begin executing the icache
    READ_STATUS = auto()  # hardware status word


@dataclass
class JtagCommand:
    op: JtagOp
    address: int = 0
    data: object = None


class EthernetJtagController:
    """Per-node hardware JTAG endpoint.

    Ready from power-on (it is pure circuitry): it never needs booting
    itself.  State mutated here models the visible CPU-side effects.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.in_reset = True
        self.running = False
        self.icache: Dict[int, object] = {}  # address -> code block
        self.status_word = 0x1  # bit 0: alive
        self.commands_processed = 0
        #: callback fired on START with the loaded icache contents
        self.on_start = None

    def handle_datagram(self, dgram: UdpDatagram):
        """Decode and execute a UDP-carried JTAG command (no software)."""
        if dgram.port != JTAG_UDP_PORT:
            return None  # hardware ignores other ports entirely
        cmd = dgram.payload
        if not isinstance(cmd, JtagCommand):
            raise ProtocolError(
                f"node {self.node_id}: non-JTAG payload on the JTAG port"
            )
        return self.execute(cmd)

    def execute(self, cmd: JtagCommand):
        self.commands_processed += 1
        if cmd.op == JtagOp.RESET:
            self.in_reset = True
            self.running = False
            self.icache.clear()
            return None
        if cmd.op == JtagOp.WRITE_ICACHE:
            if not self.in_reset:
                raise ProtocolError(
                    f"node {self.node_id}: icache write while core running"
                )
            self.icache[cmd.address] = cmd.data
            return None
        if cmd.op == JtagOp.START:
            if not self.icache:
                raise ProtocolError(f"node {self.node_id}: START with empty icache")
            self.in_reset = False
            self.running = True
            if self.on_start is not None:
                self.on_start(dict(self.icache))
            return None
        if cmd.op == JtagOp.READ_STATUS:
            return self.status_word
        raise ProtocolError(f"unknown JTAG op {cmd.op}")
