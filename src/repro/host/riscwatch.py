"""A RISCWatch-style debug session over the Ethernet/JTAG path.

Paper section 2.3: "We can use the Ethernet/JTAG controller to provide the
physical transport mechanism required for IBM's standard RISCWatch
debugger.  Thus a user can debug and single step code on a given node.
For hardware debugging, this same mechanism offers us an I/O path to
monitor and probe a failing node."

The session drives a node's :class:`~repro.host.jtag.EthernetJtagController`
through the same UDP fabric the boot uses — working even on a node whose
run kernel is dead, which is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.host.ethernet import EthernetFabric, UdpDatagram
from repro.host.jtag import JTAG_UDP_PORT, EthernetJtagController, JtagCommand, JtagOp
from repro.util.errors import MachineError


@dataclass
class DebugEvent:
    """One entry of the session transcript."""

    time: float
    action: str
    detail: str = ""


class RiscWatchSession:
    """An interactive-style debug session bound to one node.

    Commands mirror the debugger's verbs: ``halt``, ``step``, ``resume``,
    ``read_reg``/``write_reg``, breakpoints (implemented host-side: step
    until the program counter register hits the breakpoint address).
    """

    PC_REGISTER = 0  # convention: register 0 models the program counter

    def __init__(self, sim, node_id: int, jtag: EthernetJtagController):
        self.sim = sim
        self.node_id = node_id
        self.jtag = jtag
        self.breakpoints: Set[int] = set()
        self.transcript: List[DebugEvent] = []
        self.halted = False

    def _log(self, action: str, detail: str = "") -> None:
        self.transcript.append(DebugEvent(self.sim.now, action, detail))

    # -- control ------------------------------------------------------------
    def halt(self) -> None:
        if not self.jtag.running:
            raise MachineError(f"node {self.node_id}: core is not running")
        self.halted = True
        self._log("halt")

    def resume(self) -> None:
        if not self.halted:
            raise MachineError("resume without halt")
        self.halted = False
        self._log("resume")

    def step(self, n: int = 1) -> int:
        """Single-step ``n`` instructions; returns the new step count."""
        if not self.halted:
            raise MachineError("step requires a halted core")
        count = 0
        for _ in range(n):
            count = self.jtag.execute(JtagCommand(JtagOp.SINGLE_STEP))
            # model: the PC register advances with each step
            pc = self.jtag.registers.get(self.PC_REGISTER, 0) + 4
            self.jtag.registers[self.PC_REGISTER] = pc
        self._log("step", f"x{n} -> pc={self.read_register(self.PC_REGISTER):#x}")
        return count

    # -- state access ------------------------------------------------------
    def read_register(self, address: int) -> int:
        return self.jtag.execute(JtagCommand(JtagOp.READ_REGISTER, address=address))

    def write_register(self, address: int, value: int) -> None:
        self.jtag.execute(
            JtagCommand(JtagOp.WRITE_REGISTER, address=address, data=value)
        )
        self._log("write_reg", f"r{address} = {value:#x}")

    def hardware_status(self) -> int:
        """Probe a (possibly failing) node: always answered, the JTAG path
        needs no software on the node."""
        status = self.jtag.execute(JtagCommand(JtagOp.READ_STATUS))
        self._log("status", f"{status:#x}")
        return status

    # -- breakpoints ---------------------------------------------------------
    def set_breakpoint(self, address: int) -> None:
        self.breakpoints.add(address)
        self._log("breakpoint", f"{address:#x}")

    def run_to_breakpoint(self, max_steps: int = 10_000) -> Optional[int]:
        """Step until the PC lands on a breakpoint; returns it (or None)."""
        if not self.breakpoints:
            raise MachineError("no breakpoints set")
        for _ in range(max_steps):
            self.step(1)
            pc = self.read_register(self.PC_REGISTER)
            if pc in self.breakpoints:
                self._log("break", f"hit {pc:#x}")
                return pc
        return None
