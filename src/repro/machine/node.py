"""One QCDOC processing node: CPU + memory + SCU.

A node is "a single custom ASIC ... plus DDR SDRAM" (abstract).  Here it
bundles:

* :class:`NodeMemory` — named buffers with a 64-bit-word view (the SCU DMA
  engines address memory in 64-bit words) and EDRAM/DDR placement
  accounting;
* a CPU represented by whatever node *program* (generator) the kernel
  runs, with :meth:`Node.compute` charging floating-point time by the one
  compute-time rule (:meth:`repro.machine.memory.MemoryModel.compute_cycles`);
* the node's :class:`~repro.machine.scu.SCU`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.machine.asic import ASICConfig
from repro.machine.memory import FPU_BOUND, MemoryModel
from repro.machine.scu import SCU
from repro.sim.core import Event, Process, Simulator
from repro.sim.trace import Trace
from repro.util.errors import ConfigError, MachineError

#: dtypes the word view supports (8-byte items, or complex = 2 x 8 bytes)
_WORD_DTYPES = (np.float64, np.uint64, np.int64, np.complex128)


class NodeMemory:
    """Named buffers with SCU-addressable 64-bit word views."""

    def __init__(self, asic: ASICConfig):
        self.asic = asic
        self.model = MemoryModel(asic)
        self._buffers: Dict[str, np.ndarray] = {}
        self._regions: Dict[str, str] = {}
        #: name -> the buffer's flat uint64 view, made at its first DMA
        self._word_views: Dict[str, np.ndarray] = {}
        #: SCU-DMA traffic by memory region, in bytes (always-on plain
        #: dict counters; `telemetry.counters.sample` reads them on demand)
        self.read_bytes: Dict[str, int] = {"edram": 0, "ddr": 0}
        self.write_bytes: Dict[str, int] = {"edram": 0, "ddr": 0}

    def alloc(
        self, name: str, array: np.ndarray, region: Optional[str] = None
    ) -> np.ndarray:
        """Register (a copy of) an array as a named buffer.

        ``region`` defaults to automatic placement: EDRAM while it fits,
        DDR otherwise (the run kernel's policy).
        """
        if name in self._buffers:
            raise MachineError(f"buffer {name!r} already allocated")
        arr = np.ascontiguousarray(array)
        if arr.dtype not in _WORD_DTYPES:
            raise ConfigError(
                f"buffer dtype {arr.dtype} is not 64-bit-word addressable"
            )
        if region is None:
            region = (
                "edram"
                if self.edram_used + arr.nbytes <= self.asic.edram_bytes
                else "ddr"
            )
        if region == "ddr" and self.ddr_used + arr.nbytes > self.asic.ddr_bytes:
            raise MachineError("node DDR exhausted")
        self._buffers[name] = arr
        self._regions[name] = region
        return arr

    def zeros(
        self, name: str, shape: Tuple[int, ...], dtype=np.complex128, region=None
    ) -> np.ndarray:
        return self.alloc(name, np.zeros(shape, dtype=dtype), region)

    def free(self, name: str) -> None:
        self._buffers.pop(name)
        self._regions.pop(name)
        self._word_views.pop(name, None)

    def buffer_names(self) -> List[str]:
        """Sorted names of every live buffer (abort/cleanup bookkeeping)."""
        return sorted(self._buffers)

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def get(self, name: str) -> np.ndarray:
        try:
            return self._buffers[name]
        except KeyError:
            raise MachineError(f"no buffer named {name!r}") from None

    def region(self, name: str) -> str:
        return self._regions[name]

    @property
    def edram_used(self) -> int:
        return sum(
            b.nbytes for n, b in self._buffers.items() if self._regions[n] == "edram"
        )

    @property
    def ddr_used(self) -> int:
        return sum(
            b.nbytes for n, b in self._buffers.items() if self._regions[n] == "ddr"
        )

    # -- the SCU's word-granular window -------------------------------------
    def words(self, name: str) -> np.ndarray:
        """The buffer as a flat uint64 word array (a view, zero copy)."""
        view = self._word_views.get(name)
        if view is None:
            flat = self.get(name).reshape(-1)
            if flat.dtype == np.complex128:
                flat = flat.view(np.float64)
            view = self._word_views[name] = flat.view(np.uint64)
        return view

    def read_words(self, name: str, indices: np.ndarray) -> np.ndarray:
        self.read_bytes[self._regions[name]] += 8 * len(indices)
        return self.words(name)[indices]

    def write_words(self, name: str, indices: np.ndarray, values: np.ndarray) -> None:
        self.write_bytes[self._regions[name]] += 8 * len(indices)
        self.words(name)[indices] = values

    def word_count(self, name: str) -> int:
        return self.words(name).size


class Node:
    """A processing node of the machine."""

    def __init__(
        self,
        sim: Simulator,
        asic: ASICConfig,
        node_id: int,
        trace: Optional[Trace] = None,
        word_batch=1,
        sanitizer: Optional["HaloRaceSanitizer"] = None,
        replay: bool = True,
    ):
        self.sim = sim
        self.asic = asic
        self.node_id = node_id
        self.memory = NodeMemory(asic)
        self.scu = SCU(
            sim,
            asic,
            node_id,
            memory_read=self.memory.read_words,
            memory_write=self.memory.write_words,
            trace=trace,
            word_batch=word_batch,
            sanitizer=sanitizer,
            replay_enabled=replay,
        )
        self.trace = trace
        #: the halo-buffer race sanitizer shared with :attr:`scu` (``None``
        #: when off — hook sites guard with a single attribute check)
        self.sanitizer = sanitizer
        #: seconds per flop of arithmetic that streams no memory: FPU peak
        self.peak_rate = self.memory.model.seconds_per_flop(FPU_BOUND)
        self.flops_charged = 0.0
        self.compute_time = 0.0
        #: flops charged per kernel tag (untagged work under ``None``)
        self.kernel_flops: Dict[Optional[str], float] = {}
        self.supervisor_events: list = []
        self.scu.on_supervisor = self._on_supervisor
        self._supervisor_waiters: list = []

    # -- CPU time accounting -----------------------------------------------
    def compute(
        self,
        flops: float,
        kernel: Optional[str] = None,
        rate: Optional[float] = None,
    ) -> Event:
        """Charge ``flops`` of floating-point work at ``rate`` seconds per
        flop.

        ``rate`` comes from the one compute-time rule
        (:meth:`~repro.machine.memory.MemoryModel.seconds_per_flop` over
        the kernel's cost-sheet mix and the residency of its operands),
        worked out once by whoever owns the kernel; without one the flops
        stream no memory and run at FPU peak.

        Returns a timeout event the node program yields on; this is how
        numpy-computed physics (instantaneous in wall-clock terms) is
        given its simulated duration.  ``kernel`` optionally attributes the
        flops to a named kernel (``"dslash"``, ``"clover_term"`` ...) in
        :attr:`kernel_flops` and in the emitted ``cpu.compute`` trace span.
        """
        if flops < 0:
            raise ConfigError("negative flop count")
        duration = flops * (self.peak_rate if rate is None else rate)
        self.flops_charged += flops
        self.compute_time += duration
        self.kernel_flops[kernel] = self.kernel_flops.get(kernel, 0.0) + flops
        done = self.sim.timeout(duration)
        if self.trace is not None:
            # A span record: emitted at the *end* time of the charged
            # interval so ``time - dur`` is the start, by the timeout's
            # first callback — in the timeout's own heap entry, before
            # the program that yields on it resumes.
            trace, node_id = self.trace, self.node_id

            def _emit_span(_done: Event) -> None:
                trace.emit(
                    "cpu.compute",
                    node=node_id,
                    flops=flops,
                    kernel=kernel,
                    dur=duration,
                )

            done.add_callback(_emit_span)
        return done

    @property
    def sustained_flops(self) -> float:
        """Average rate over elapsed simulation time (post-run query)."""
        if self.sim.now == 0:
            return 0.0
        return self.flops_charged / self.sim.now

    # -- supervisor interrupts ------------------------------------------------
    def _on_supervisor(self, direction: int, word: int) -> None:
        self.supervisor_events.append((self.sim.now, direction, word))
        waiters, self._supervisor_waiters = self._supervisor_waiters, []
        for ev in waiters:
            ev.succeed((direction, word))

    def wait_supervisor(self) -> Event:
        """Event that fires on the next incoming supervisor packet."""
        ev = self.sim.event()
        self._supervisor_waiters.append(ev)
        return ev

    #: what :meth:`boot_reset` keeps: the CPU's monotone accounting
    _RESET_KEPT = ("flops_charged", "compute_time", "kernel_flops")

    def boot_reset(self) -> None:
        """Hand the node back as a booted one: the SCU, the supervisor
        interrupts a job received or waited for, the sanitizer's shadow
        (what the run allocated, the run frees: it knows what was there)."""
        self.scu.boot_reset()
        self.supervisor_events = []
        self._supervisor_waiters = []
        if self.sanitizer is not None:
            self.sanitizer.forget_node(self.node_id)

    def __repr__(self) -> str:
        return f"Node({self.node_id})"
