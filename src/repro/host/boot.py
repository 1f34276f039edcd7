"""The two-stage, PROM-less boot (paper section 3.1).

"During the initial boot of QCDOC, each node receives about 100 UDP packets
that are handled by the Ethernet/JTAG controller.  These packets contain
code that is written directly into the instruction cache of the PPC 440.
When executed, this code does basic hardware tests of the ASIC and attached
DRAM and initializes the standard Ethernet controller.  Then the run kernel
is loaded down, also taking about 100 UDP packets.  The run kernel
initializes the SCU controllers and the mesh network, checks the
functionality of the partition interrupts and determines the
six-dimensional size of the machine."

Node-side logic lives in :class:`NodeBootAgent`; the host-side orchestration
is :class:`repro.host.qdaemon.Qdaemon`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Dict, List, Optional, Tuple

from repro.host.ethernet import EthernetFabric, UdpDatagram
from repro.host.jtag import JTAG_UDP_PORT, EthernetJtagController, JtagCommand, JtagOp
from repro.sim.core import Event, Simulator
from repro.util.errors import MachineError
from repro.util.units import US

#: boot kernel: RESET + 97 icache blocks + START + READ_STATUS ~ 100 packets
BOOT_KERNEL_BLOCKS = 97
#: run kernel: 98 code blocks + load-complete + status ~ 100 packets
RUN_KERNEL_BLOCKS = 98
#: UDP port of the run-kernel loader (served by boot-kernel software)
LOADER_UDP_PORT = 5001
#: UDP port for node->host status/RPC traffic
STATUS_UDP_PORT = 5002
#: UDP port of the run kernel's RPC endpoint (health pings, job control)
RPC_UDP_PORT = 5003

#: time the boot kernel spends on "basic hardware tests of the ASIC and
#: attached DRAM" (memory march over a test region)
HW_TEST_TIME = 200 * US


class BootState(Enum):
    POWERED_OFF = auto()
    RESET = auto()  # JTAG alive, core held in reset
    BOOT_KERNEL = auto()  # boot kernel running, ethernet controller up
    RUN_KERNEL = auto()  # run kernel running, RPC available
    FAILED = auto()


@dataclass
class BootReport:
    """Per-node boot accounting (experiment E12)."""

    node_id: int
    jtag_packets: int = 0
    run_kernel_packets: int = 0
    hw_test_ok: bool = False
    boot_time: float = 0.0
    state: BootState = BootState.POWERED_OFF


class NodeBootAgent:
    """Node-side boot behaviour: the JTAG endpoint plus the two kernels."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        fabric: EthernetFabric,
        hw_ok: bool = True,
        silent: bool = False,
    ):
        self.sim = sim
        self.node_id = node_id
        self.fabric = fabric
        self.hw_ok = hw_ok  # injectable hardware fault for status tests
        #: a *silent* node is electrically absent (dead daughterboard or a
        #: mid-run power loss): it drops every datagram — even JTAG, which
        #: otherwise works from power-on — and never replies.  The host can
        #: only detect it by timeout, exactly as on the real service network.
        self.silent = silent
        self.jtag = EthernetJtagController(node_id)
        self.jtag.on_start = self._boot_kernel_entry
        self.state = BootState.RESET
        self.report = BootReport(node_id)
        self._run_blocks: Dict[int, object] = {}
        self._boot_done: Optional[Event] = None
        fabric.attach(node_id, self._on_datagram)

    # -- datagram dispatch -----------------------------------------------------
    def _on_datagram(self, dgram: UdpDatagram) -> None:
        if self.silent:
            return  # dead hardware: nothing listens on any port
        if dgram.port == JTAG_UDP_PORT:
            # Hardware path: works from power-on, no software involved.
            self.report.jtag_packets += 1
            self.jtag.handle_datagram(dgram)
        elif dgram.port == LOADER_UDP_PORT:
            self._on_loader_packet(dgram)
        elif dgram.port == RPC_UDP_PORT:
            self._on_rpc(dgram)

    # -- stage 1: boot kernel -----------------------------------------------------
    def _boot_kernel_entry(self, icache: Dict[int, object]) -> None:
        """Executed when JTAG START releases the core: run the boot kernel."""
        self.state = BootState.BOOT_KERNEL

        def finish_hw_test():
            self.report.hw_test_ok = self.hw_ok
            if not self.hw_ok:
                self.state = BootState.FAILED
            self._send_status("boot-kernel-up" if self.hw_ok else "hw-fail")

        self.sim.schedule(HW_TEST_TIME, finish_hw_test)

    # -- stage 2: run kernel ---------------------------------------------------
    def _on_loader_packet(self, dgram: UdpDatagram) -> None:
        if self.state not in (BootState.BOOT_KERNEL, BootState.RUN_KERNEL):
            return  # loader only exists once the boot kernel runs
        self.report.run_kernel_packets += 1
        kind, block_id, data = dgram.payload
        if kind == "block":
            self._run_blocks[block_id] = data
        elif kind == "complete":
            if len(self._run_blocks) == RUN_KERNEL_BLOCKS:
                self.state = BootState.RUN_KERNEL
                self._send_status("run-kernel-up")
            else:
                self._send_status(
                    f"run-kernel-incomplete:{len(self._run_blocks)}"
                )

    # -- run-kernel RPC ---------------------------------------------------------
    def _on_rpc(self, dgram: UdpDatagram) -> None:
        """Health-check RPC: only the run kernel answers (section 3.1 —
        "all communication ... is done via remote procedure calls")."""
        if self.state != BootState.RUN_KERNEL:
            return  # no run kernel, no RPC server
        kind, nonce = dgram.payload
        if kind == "ping":
            self._send_status(f"rpc-ok:{nonce}")

    def _send_status(self, text: str) -> None:
        if self.silent:
            return  # dead hardware transmits nothing
        self.fabric.send(
            UdpDatagram(
                src=self.node_id,
                dst="host",
                port=STATUS_UDP_PORT,
                payload=(self.node_id, text),
                nbytes=64,
            )
        )

    @property
    def rpc_available(self) -> bool:
        """All post-boot host<->node traffic uses RPC (paper section 3.1)."""
        return self.state == BootState.RUN_KERNEL
