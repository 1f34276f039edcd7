"""Published QCDOC ASIC and machine parameters (paper sections 2.1-2.4).

Every number here is taken from the paper:

* PPC 440 core, 32-bit, with a 64-bit IEEE FPU doing one multiply and one
  add per cycle -> **2 flops/cycle**, 1 Gflops peak at 500 MHz;
* 32 kB instruction and data caches;
* 4 MB on-chip EDRAM behind a prefetching controller with **two** streams,
  1024-bit internal rows, a 128-bit processor connection at full clock
  speed -> **8 GB/s** at 500 MHz;
* external DDR SDRAM controller at **2.6 GB/s**, up to **2 GB**/node;
* 12 nearest neighbours in the 6-torus, concurrent sends and receives ->
  **24** independent unidirectional bit-serial links at the processor
  clock; 64-bit payload framed with an 8-bit header (including two parity
  bits) -> 72 bits/word, 1.3 GB/s aggregate at 500 MHz;
* memory-to-memory nearest-neighbour latency ~**600 ns**;
* packaging: 2 nodes/daughterboard (~20 W), 32 daughterboards/motherboard
  (64 nodes as a 2^6 hypercube), 8 motherboards/crate, 2 crates/rack
  (1024 nodes, <10 kW, 1 Tflops peak).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Sequence, Tuple

from repro.util.errors import ConfigError
from repro.util.units import GB, KB, MB, MHZ, NS

#: bytes in the HSSL training sequence (the known pattern a receiver
#: scans for its sampling point and its byte boundaries)
TRAINING_BYTES = 256


@dataclass(frozen=True)
class ASICConfig:
    """Per-node hardware parameters."""

    clock_hz: float = 500 * MHZ
    flops_per_cycle: int = 2  # fused multiply + add units
    icache_bytes: int = int(32 * KB)
    dcache_bytes: int = int(32 * KB)

    # -- memory system ------------------------------------------------------
    edram_bytes: int = int(4 * MB)
    edram_row_bits: int = 1024
    edram_port_bits: int = 128  # processor connection, full clock speed
    edram_prefetch_streams: int = 2
    edram_latency: float = 80 * NS  # first-word access through the controller
    ddr_bandwidth: float = 2.6 * GB
    ddr_bytes: int = int(2 * GB)
    ddr_latency: float = 120 * NS

    # -- serial communications ---------------------------------------------
    n_link_directions: int = 12  # nearest neighbours in the 6-torus
    frame_header_bits: int = 8  # includes the two data-parity bits
    frame_payload_bits: int = 64
    ack_window_words: int = 3  # "three in the air"
    idle_hold_words: int = 3  # idle-receive holding registers
    #: fixed (non-serialisation) components of the first-word latency,
    #: calibrated so the total nearest-neighbour memory-to-memory latency
    #: is the paper's 600 ns at 500 MHz: DMA fetch 120 + SCU inject 96 +
    #: wire 10 + SCU eject 110 + DMA store 120 = 456 ns; + 144 ns to
    #: serialise one 72-bit frame = 600 ns.
    dma_fetch_latency: float = 120 * NS
    scu_inject_latency: float = 96 * NS
    wire_latency: float = 10 * NS
    scu_eject_latency: float = 110 * NS
    dma_store_latency: float = 120 * NS
    #: pass-through cut-through granularity for global operations: only
    #: 8 bits are received before forwarding begins (paper section 2.2)
    passthrough_bits: int = 8

    # -- SCU hard-fault watchdog (companion papers hep-lat/0306023 / 0309096)
    #: consecutive RESEND requests (without intervening ack progress) a
    #: send unit tolerates before declaring the link dead.  One injected
    #: transient costs at most ``ack_window_words`` RESENDs, so a storm of
    #: this length means the same words are failing over and over — a
    #: stuck-at fault, not a bit flip.
    watchdog_resend_limit: int = 24
    #: base no-progress timeout: a send unit with unacknowledged words in
    #: flight (or a recv unit with a posted descriptor) that sees no
    #: progress for this long starts the backoff ladder.
    watchdog_timeout: float = 40e-6
    #: exponential backoff multiplier between successive no-progress probes
    watchdog_backoff_factor: float = 2.0
    #: probes on the backoff ladder before the watchdog trips; bounds
    #: total detection latency (see :attr:`watchdog_detection_budget`)
    watchdog_max_backoffs: int = 5

    # -- derived ------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        return self.clock_hz * self.flops_per_cycle

    @property
    def edram_bandwidth(self) -> float:
        """Port width x clock: 8 GB/s at 500 MHz."""
        return (self.edram_port_bits / 8.0) * self.clock_hz

    @property
    def frame_bits(self) -> int:
        return self.frame_header_bits + self.frame_payload_bits

    @property
    def word_serialisation_time(self) -> float:
        """Time to clock one 72-bit frame onto the bit-serial wire."""
        return self.frame_bits / self.clock_hz

    @property
    def link_bandwidth(self) -> float:
        """Payload bytes/s of one unidirectional link."""
        return (self.frame_payload_bits / 8.0) / self.word_serialisation_time

    @property
    def total_link_bandwidth(self) -> float:
        """All 24 concurrent unidirectional links: 1.3 GB/s at 500 MHz."""
        return 2 * self.n_link_directions * self.link_bandwidth

    @property
    def neighbour_latency(self) -> float:
        """First-word memory-to-memory latency: 600 ns at 500 MHz."""
        return (
            self.dma_fetch_latency
            + self.scu_inject_latency
            + self.word_serialisation_time
            + self.wire_latency
            + self.scu_eject_latency
            + self.dma_store_latency
        )

    @property
    def first_word_delay(self) -> float:
        """A send's DMA fetch + SCU injection, before its first bit."""
        return self.dma_fetch_latency + self.scu_inject_latency

    @property
    def store_delay(self) -> float:
        """SCU eject + DMA store: an accepted word to usable memory."""
        return self.scu_eject_latency + self.dma_store_latency

    @property
    def training_time(self) -> float:
        """One HSSL training sequence at the link clock."""
        return TRAINING_BYTES * 8 / self.clock_hz

    @property
    def passthrough_latency(self) -> float:
        """Per-node forwarding latency in global (cut-through) mode."""
        return self.passthrough_bits / self.clock_hz + self.wire_latency

    def global_sum_time(
        self, dims: Sequence[int], nwords: int = 1, doubled: bool = True
    ) -> float:
        """Cut-through dimension-sequenced ring sum of ``nwords`` words.

        Per axis of extent > 1: one word serialisation to get onto the
        ring, one pass-through per hop (``d // 2`` hops in doubled mode,
        both ring directions on disjoint link sets, else ``d - 1``), then
        the remaining words streaming behind the first.
        """
        t_word = self.word_serialisation_time
        t = 0.0
        for d in dims:
            if d > 1:
                hops = d // 2 if doubled else d - 1
                t += t_word + hops * self.passthrough_latency
                t += (nwords - 1) * t_word
        return t

    @property
    def shard_lookahead(self) -> float:
        """Conservative lookahead bound for the sharded event engine.

        The shortest cross-node influence the mesh can carry is a
        bare-header HSSL frame (an ACK/RESEND/EOT control frame has no
        payload words): header serialisation plus time of flight,
        ``frame_header_bits / clock_hz + wire_latency`` — 26 ns at the
        500 MHz design point.  Any frame transmitted at time ``t``
        arrives at ``>= t + shard_lookahead``, so shards synchronised at
        windows of this width never see traffic from their own window
        (:mod:`repro.sim.sync`).  Global-sum completions clear the same
        bound with margin: one reduction costs at least a full 72-bit
        word serialisation (144 ns).
        """
        return self.frame_header_bits / self.clock_hz + self.wire_latency

    def transfer_times(
        self, sends: Sequence[Tuple[float, int]], word_batch=1
    ) -> Tuple[Tuple[float, float], ...]:
        """When the DMA transfers on one cable pair complete, error free.

        ``sends`` holds up to two ``(start, nwords)`` transfers, one each
        way: transfer ``i`` clocks its frames onto wire ``i``, and the far
        end acknowledges each frame on the other wire, behind whatever that
        wire is clocking — the other transfer's frames among it.  This is
        the protocol of :class:`~repro.machine.scu.SendUnit` and
        :class:`~repro.machine.scu.RecvUnit` over
        :meth:`~repro.machine.hssl.SerialLink.carry` with no bit errors: a
        send waits :attr:`first_word_delay`, clocks frames of ``word_batch``
        words (``"face"``: the whole transfer in one) as its ack window
        allows, and clocks out an EOT once its last word is acknowledged;
        the last word is stored :attr:`store_delay` after it lands.

        Returns ``(stored, sent)`` per transfer: when its last word is in
        the receiver's memory and when its sender has clocked out the EOT —
        the receive's and the send's completion events.
        """
        clock, header = self.clock_hz, self.frame_header_bits
        n = [int(nwords) for _start, nwords in sends]
        batch = [max(1, k if word_batch == "face" else int(word_batch)) for k in n]
        window = [max(self.ack_window_words, b) for b in batch]
        sent, acked, stalled = [0] * len(n), [0] * len(n), [False] * len(n)
        busy = [0.0, 0.0]  # the pair's two wires
        times = [[0.0, 0.0] for _ in n]
        heap: list = []
        order = itertools.count()

        def at(time, kind, i, seq=0):
            heapq.heappush(heap, (time, next(order), kind, i, seq))

        def carry(wire, bits, now):
            busy[wire] = max(now, busy[wire]) + bits / clock
            return busy[wire]

        for i, (start, nwords) in enumerate(sends):
            if nwords:
                at(start + self.first_word_delay, "send", i)
        while heap:
            now, _, kind, i, seq = heapq.heappop(heap)
            if kind == "send":
                in_flight = sent[i] - acked[i]
                if acked[i] == n[i]:
                    times[i][1] = carry(i, header, now)  # the EOT
                elif sent[i] < n[i] and in_flight < window[i]:
                    words = min(batch[i], n[i] - sent[i], window[i] - in_flight)
                    sent[i] += words
                    free = carry(i, header + words * self.frame_payload_bits, now)
                    at(free + self.wire_latency, "land", i, sent[i])
                    at(free, "send", i)
                else:
                    stalled[i] = True
            elif kind == "land":
                ack = carry(1 - i, header, now)
                at(ack + self.wire_latency, "ack", i, seq)
                if seq == n[i]:
                    times[i][0] = now + self.store_delay
            elif seq > acked[i]:
                acked[i] = seq
                if stalled[i]:
                    stalled[i] = False
                    at(now, "send", i)
        return tuple(map(tuple, times))

    def watchdog_wait(self, rung: int) -> float:
        """The no-progress wait on ``rung`` of the backoff ladder (rung 0
        is the base timeout, each further rung a factor longer)."""
        return self.watchdog_timeout * self.watchdog_backoff_factor**rung

    @property
    def watchdog_detection_budget(self) -> float:
        """Worst-case no-progress detection latency of the SCU watchdog:
        every rung of the ladder, base timeout to the last backoff.  A
        permanently dead link is declared down within this budget of the
        last forward progress.
        """
        return sum(
            self.watchdog_wait(rung)
            for rung in range(self.watchdog_max_backoffs + 1)
        )

    def at_clock(self, clock_hz: float) -> "ASICConfig":
        """The same ASIC run at a different clock (360/420/450 MHz tests)."""
        if clock_hz <= 0:
            raise ConfigError(f"bad clock {clock_hz}")
        return replace(self, clock_hz=clock_hz)


@dataclass(frozen=True)
class MachineConfig:
    """Whole-machine packaging and composition parameters."""

    asic: ASICConfig = field(default_factory=ASICConfig)
    dims: Tuple[int, ...] = (2, 2, 2, 2, 2, 2)  # one motherboard

    nodes_per_daughterboard: int = 2
    daughterboards_per_motherboard: int = 32
    motherboards_per_crate: int = 8
    crates_per_rack: int = 2
    #: "about 20 Watts for both nodes, including the DRAMs" (section 2.4);
    #: the rack-level figure ("less than 10,000 watts" for 512 boards plus
    #: motherboard overheads) pins the average slightly below 20.
    daughterboard_power_watts: float = 18.5
    rack_power_budget_watts: float = 10_000.0
    rack_footprint_sqft: float = 6.0  # stacked water-cooled racks, ~60 sqft
    # for 10k+ nodes (paper section 2.4)

    @property
    def n_nodes(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def nodes_per_motherboard(self) -> int:
        return self.nodes_per_daughterboard * self.daughterboards_per_motherboard

    @property
    def nodes_per_rack(self) -> int:
        return (
            self.nodes_per_motherboard
            * self.motherboards_per_crate
            * self.crates_per_rack
        )

    @property
    def peak_flops(self) -> float:
        return self.n_nodes * self.asic.peak_flops

    def power_watts(self) -> float:
        """Machine power from the per-daughterboard figure."""
        return (self.n_nodes / self.nodes_per_daughterboard) * (
            self.daughterboard_power_watts
        )


#: Named configurations used throughout tests and benchmarks.
PRESETS: Dict[str, MachineConfig] = {
    # one motherboard: 64 nodes as a 2^6 hypercube (paper figure 4)
    "motherboard-64": MachineConfig(dims=(2, 2, 2, 2, 2, 2)),
    # the running 128-node benchmark machine (section 4) at 450 MHz
    "benchmark-128": MachineConfig(
        asic=ASICConfig().at_clock(450 * MHZ), dims=(2, 2, 2, 2, 2, 4)
    ),
    # the 512-node machine, validated at 360 MHz (section 4)
    "columbia-512": MachineConfig(
        asic=ASICConfig().at_clock(360 * MHZ), dims=(8, 4, 4, 2, 2, 1)
    ),
    # one water-cooled rack: 1024 nodes as 8x4x4x2x2x2 (section 4)
    "rack-1024": MachineConfig(dims=(8, 4, 4, 2, 2, 2)),
    # the $1.6M 4-rack machine under construction at Columbia
    "columbia-4096": MachineConfig(dims=(8, 8, 4, 4, 2, 2)),
    # the three 12,288-node 10+ Tflops machines (RBRC, UKQCD, US lattice)
    "production-12288": MachineConfig(dims=(8, 8, 8, 6, 2, 2)),
}
