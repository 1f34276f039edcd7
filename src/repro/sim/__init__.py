"""A small discrete-event simulation kernel.

The QCDOC machine model (:mod:`repro.machine`) is a timed, functional
simulation: SCU DMA engines, serial links, Ethernet hubs and node programs
are all *processes* — Python generators that yield events to this kernel.
The kernel is deliberately SimPy-shaped (events, generator processes,
timeouts) but written from scratch so the whole stack is
self-contained and deterministic.

Determinism contract: given the same initial processes and the same RNG
streams, event ordering is a pure function of (time, schedule order); ties
are broken by a monotone sequence number, never by hash order or id().
"""

from repro.sim.core import AllOf, AnyOf, Event, Interrupt, Process, Simulator, Timeout
from repro.sim.shard import ShardedSimulator, ShardLane
from repro.sim.sync import CrossShardRouter, Notification, ShardPost
from repro.sim.trace import Trace

__all__ = [
    "Simulator",
    "ShardedSimulator",
    "ShardLane",
    "CrossShardRouter",
    "ShardPost",
    "Notification",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Trace",
]
