"""The ASIC memory system: prefetching EDRAM controller + DDR controller.

Paper section 2.1: the PPC 440 data-cache connection goes first to a
prefetching EDRAM controller and only then to the PLB.  The controller reads
1024-bit EDRAM rows and feeds the processor 128-bit words at full clock
speed (8 GB/s at 500 MHz), sustaining that bandwidth for up to **two**
concurrent sequential streams ("for an operation a(x) x b(x) ... without
suffering excessive page miss overheads").  More streams than that thrash
rows and degrade toward the page-miss-dominated rate.  Off-chip DDR delivers
2.6 GB/s.

This module holds the analytic timing model of the two regions,
:class:`MemoryModel`, and on it the **one compute-time rule**
(:meth:`MemoryModel.compute_cycles`): how long a node takes over ``F``
flops and ``W`` streamed words whose operands live in a working set of a
given size.  The twin's kernels (:mod:`repro.parallel.halo`, which hands
:meth:`repro.machine.node.Node.compute` the rate) and the analytic model
(:mod:`repro.perfmodel.dirac_perf`) both ask it, with the same fitted
constants (:class:`Calibration`).

Contention for the memory port (the PLB, the EDRAM controller) between
the CPU and the SCU DMA engines is not modelled: the engines read and
write node memory through :class:`repro.machine.node.NodeMemory`
directly and charge their fixed fetch/store latencies off the ASIC sheet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.machine.asic import ASICConfig
from repro.util.errors import ConfigError

Region = Literal["edram", "ddr"]


@dataclass(frozen=True)
class Calibration:
    """The two constants of the compute-time rule
    (:meth:`MemoryModel.compute_cycles`).  The machine does not know
    them: :func:`repro.perfmodel.dirac_perf.calibrate` derives the pair
    from the paper's measured efficiencies and the operator cost sheets,
    and whoever prices a kernel hands it in."""

    cycles_per_word: float
    overhead_cycles_per_site: float


#: a kernel that streams no memory: the FPU is all there is
FPU_BOUND = Calibration(0.0, 0.0)


class MemoryModel:
    """Pure timing model of the two memory regions (no simulator needed)."""

    def __init__(self, asic: ASICConfig):
        self.asic = asic

    def bandwidth(self, region: Region, streams: int = 1) -> float:
        """Sustained bytes/s for ``streams`` concurrent sequential streams.

        EDRAM holds peak for <= ``edram_prefetch_streams`` streams; beyond
        that each extra stream forces a row re-open per row's worth of
        data, modelled as a proportional derating.  DDR is modelled flat
        (its controller pipelines transactions; the 2.6 GB/s figure is the
        sustained one the paper quotes).
        """
        if streams < 1:
            raise ConfigError(f"streams must be >= 1, got {streams}")
        if region == "edram":
            peak = self.asic.edram_bandwidth
            extra = max(0, streams - self.asic.edram_prefetch_streams)
            # each excess stream costs a row-activate per row fetched:
            # derate by row-transfer/(row-transfer + activate) per excess.
            if extra == 0:
                return peak
            activate_penalty = 1.0 + 0.5 * extra
            return peak / activate_penalty
        if region == "ddr":
            return self.asic.ddr_bandwidth
        raise ConfigError(f"unknown memory region {region!r}")

    def latency(self, region: Region) -> float:
        if region == "edram":
            return self.asic.edram_latency
        if region == "ddr":
            return self.asic.ddr_latency
        raise ConfigError(f"unknown memory region {region!r}")

    def access_time(self, nbytes: int, region: Region, streams: int = 1) -> float:
        """First-word latency + streaming transfer time."""
        if nbytes < 0:
            raise ConfigError("negative byte count")
        if nbytes == 0:
            return 0.0
        return self.latency(region) + nbytes / self.bandwidth(region, streams)

    def residency(self, working_set_bytes: int) -> Region:
        """Where a working set of the given size lives.

        Paper section 4: "for most of the fermion formulations, a 6^4 local
        volume still fits in our 4 Megabytes of imbedded memory.  For still
        larger volumes ... performance figures fall to the range of 30%".
        """
        return "edram" if working_set_bytes <= self.asic.edram_bytes else "ddr"

    def spill_fraction(self, working_set_bytes: int) -> float:
        """Fraction of traffic served from DDR once EDRAM overflows.

        The kernel keeps the hottest data (solver vectors) resident and
        streams the overflow (typically the gauge field) from DDR.
        """
        if working_set_bytes <= self.asic.edram_bytes:
            return 0.0
        return 1.0 - self.asic.edram_bytes / working_set_bytes

    # -- the one compute-time rule ---------------------------------------------
    def compute_cycles(
        self,
        fit: Calibration,
        flops: float,
        words: float = 0.0,
        sites: float = 0.0,
        working_set_bytes: int = 0,
    ) -> float:
        """Processor cycles to run ``flops`` over ``words`` streamed
        8-byte words and ``sites`` per-site loop overheads.

        The FPU retires ``flops_per_cycle``; every word costs ``fit``'s
        cycles on the EDRAM path, and the fraction of the working set
        spilled to DDR pays the EDRAM/DDR bandwidth ratio on top (the
        paper's fall "to the range of 30% of peak").
        """
        asic = self.asic
        fpu = flops / asic.flops_per_cycle
        spill = self.spill_fraction(working_set_bytes)
        ratio = asic.edram_bandwidth / asic.ddr_bandwidth
        cpw = fit.cycles_per_word * (1.0 - spill + spill * ratio)
        return fpu + words * cpw + sites * fit.overhead_cycles_per_site

    def seconds_per_flop(
        self,
        fit: Calibration,
        flops: float = 1.0,
        words: float = 0.0,
        sites: float = 0.0,
        working_set_bytes: int = 0,
    ) -> float:
        """The rate of a kernel whose mix is ``flops : words : sites`` on
        operands of this residency — what every flop it charges costs,
        memory traffic and loop overhead apportioned by flops."""
        cycles = self.compute_cycles(fit, flops, words, sites, working_set_bytes)
        return cycles / self.asic.clock_hz / flops
