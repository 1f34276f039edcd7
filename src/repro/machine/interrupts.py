"""Partition interrupts: flood-forwarded 8-bit interrupts under a slow
global clock.

Paper section 2.2, item 3: "If a node receives a partition interrupt packet
its SCU forwards this packet on to all of its neighbors if the packet
contains an interrupt which had not been previously sent.  This forwarding
is done during a time interval controlled by a relatively slow global
clock, which also controls when interrupts are presented to the processor
from the SCU.  This global clock period is set so that during the transmit
window, any node that sets an interrupt will know it has been received by
all other nodes before the sampling of the partition interrupt status is
done."

The guarantee this buys: **every node in a partition observes the same
interrupt bits at the same sample instant** — which is how a single node
can stop a 12,288-node calculation cleanly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.machine.asic import ASICConfig
from repro.machine.scu import SCU
from repro.sim.core import Simulator
from repro.sim.trace import Trace
from repro.util.errors import ConfigError


class GlobalClock:
    """The machine-wide slow clock defining transmit/sample windows.

    ``period`` must exceed the worst-case flood time (diameter x per-hop
    forwarding latency); :func:`safe_period` computes it from the topology.
    """

    def __init__(self, sim: Simulator, period: float):
        if period <= 0:
            raise ConfigError(f"global clock period must be positive: {period}")
        self.sim = sim
        self.period = period

    def next_sample_time(self) -> float:
        """The next window boundary strictly after 'now'."""
        k = int(self.sim.now / self.period) + 1
        return k * self.period

    def delay_to_sample(self) -> float:
        return self.next_sample_time() - self.sim.now


def safe_period(asic: ASICConfig, diameter_hops: int, margin: float = 4.0) -> float:
    """A transmit-window period long enough for any flood to complete.

    Per hop: an 8-bit payload + 8-bit header on the wire, plus the wire
    flight and the SCU forwarding decision (~ one pass-through).
    """
    per_hop = (16 / asic.clock_hz) + asic.wire_latency + asic.passthrough_latency
    return margin * max(1, diameter_hops) * per_hop


class InterruptController:
    """Per-node partition-interrupt logic riding on the SCU."""

    def __init__(
        self,
        sim: Simulator,
        scu: SCU,
        clock: GlobalClock,
        partition_directions: Sequence[int],
        trace: Optional[Trace] = None,
    ):
        self.sim = sim
        self.scu = scu
        self.clock = clock
        #: the physical link directions belonging to this node's partition
        self.partition_directions = list(partition_directions)
        self.trace = trace
        self.seen_bits = 0  # bits already forwarded (dedup)
        self.latched_bits = 0  # bits waiting for the sample instant
        self.presented_bits = 0  # bits the CPU has been shown
        self._presentation_scheduled = False
        #: CPU hook: called as ``callback(bits)`` at the sample instant
        self.on_present: Optional[Callable[[int], None]] = None
        scu.on_partition_irq = self._on_packet

    # -- raising ------------------------------------------------------------
    def raise_irq(self, bits: int) -> None:
        """Set interrupt bits locally; they flood the partition."""
        bits &= 0xFF
        if bits == 0:
            raise ConfigError("raising an empty interrupt")
        self._absorb(bits)

    # -- flood forwarding ---------------------------------------------------
    def _on_packet(self, direction: int, bits: int) -> None:
        self._absorb(bits)

    def _absorb(self, bits: int) -> None:
        new = bits & ~self.seen_bits
        if not new:
            return  # already forwarded: the flood terminates
        self.seen_bits |= new
        self.latched_bits |= new
        self.scu.broadcast_partition_irq(new, self.partition_directions)
        if self.trace is not None:
            self.trace.emit("irq.forward", node=self.scu.node_id, bits=new)
        if not self._presentation_scheduled:
            self._presentation_scheduled = True
            self.sim.schedule(self.clock.delay_to_sample(), self._present)

    # -- presentation ------------------------------------------------------
    def _present(self) -> None:
        self._presentation_scheduled = False
        bits, self.latched_bits = self.latched_bits, 0
        self.presented_bits |= bits
        if self.trace is not None:
            self.trace.emit("irq.present", node=self.scu.node_id, bits=bits)
        if self.on_present is not None:
            self.on_present(bits)

    def clear(self) -> None:
        """Software acknowledgement: allow the same bits to be raised again."""
        self.seen_bits = 0
        self.presented_bits = 0

    #: kept by :meth:`boot_reset`: the flood's state is the whole
    #: machine's, acknowledged by the host (:meth:`clear`), not a job's
    _RESET_KEPT = ("seen_bits", "latched_bits", "_presentation_scheduled")

    def boot_reset(self) -> None:
        """A finalized run's node shows its next CPU no interrupt."""
        self.presented_bits = 0
