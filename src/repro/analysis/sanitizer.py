"""The halo-buffer race sanitizer: a TSan-analogue for the simulated SCU.

Hardware contract (paper section 2.2): a DMA receive's data is usable
only after the eject + store pipeline drains (the completion event the
SCU hands back), and a DMA send reads its source buffer until *its*
completion fires.  The overlapped Dirac pipeline (PR 1) leans on both —
interior compute runs while 24 transfers fly — so a misordered read of
``halo_fwd`` is silent corruption: numpy already holds the final values
the instant the simulated transfer *starts*, so nothing crashes and the
physics is simply wrong in a word_batch-dependent way.

The sanitizer keeps **shadow ownership state per (node, buffer)**:

* ``claim`` opens the shadow of every SCU transfer (hooked in
  :meth:`repro.machine.scu.SCU.dma_claim`) and registers its release on
  the transfer's completion event — exactly the interval the hardware
  owns the buffer.  The claim never leaves this module, so no caller
  can leak one;
* ``cpu_read`` / ``cpu_write`` are declared by the compute side
  (:class:`~repro.comms.api.CommsAPI` helpers and the guarded
  checkpoints in ``repro.parallel``).

Race matrix (what real silicon would corrupt):

===========  =============  ==============
CPU access   in-flight send  in-flight recv
===========  =============  ==============
read         ok (read/read)  **race** (data not landed)
write        **race**        **race**
===========  =============  ==============

Off by default: every hook site guards with a single
``is not None`` attribute check, so the hot path cost without the
sanitizer is exactly one attribute load (the same discipline as
tracing).  ``mode="raise"`` (default) throws :class:`HaloRaceError`
with the node, buffer, axis/sign, and direction; ``mode="record"``
accumulates :class:`RaceReport` entries for post-run assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.core import Event
from repro.util.errors import ProtocolError


class HaloRaceError(ProtocolError):
    """A CPU access overlapped an in-flight DMA on the same buffer."""

    def __init__(self, report: "RaceReport"):
        super().__init__(report.describe())
        self.report = report


@dataclass(frozen=True)
class RaceReport:
    """One detected race, with everything needed to find the bad wait."""

    access: str  #: "read" | "write" — the CPU side of the collision
    node: int  #: node id whose CPU touched the buffer
    buffer: str  #: node-memory buffer name (e.g. "halo_fwd0")
    dma_kind: str  #: "send" | "recv" — the in-flight transfer
    direction: int  #: physical SCU link direction of that transfer
    axis: Optional[int]  #: logical lattice axis, when registered
    sign: Optional[int]  #: logical +1/-1 neighbour sign, when registered
    time: float  #: simulation time of the CPU access
    nwords: int  #: words the in-flight descriptor covers

    def describe(self) -> str:
        if self.axis is not None and self.sign is not None:
            logical = f"axis {self.axis} sign {self.sign:+d}"
        else:
            logical = f"direction {self.direction}"
        return (
            f"halo-buffer race: premature CPU {self.access} of buffer "
            f"{self.buffer!r} on node {self.node} while a {self.dma_kind} "
            f"DMA ({logical}, {self.nwords} words) is in flight at "
            f"t={self.time:.3e}s; wait on the transfer's completion event "
            "before touching the buffer"
        )


@dataclass
class _DmaClaim:
    """Shadow ownership of one buffer by one in-flight transfer."""

    node: int
    buffer: str
    kind: str  # "send" | "recv"
    direction: int
    nwords: int


class HaloRaceSanitizer:
    """Shadow-state tracker for SCU buffer ownership.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) — throw :class:`HaloRaceError` at the
        racing access, failing the offending node program's process;
        ``"record"`` — append to :attr:`reports` and keep running
        (post-run assertion style, used by the clean-run tests).
    """

    def __init__(self, mode: str = "raise"):
        if mode not in ("raise", "record"):
            raise ValueError(f"sanitizer mode must be raise/record, got {mode!r}")
        self.mode = mode
        #: (node, buffer) -> in-flight claims (12 links => small lists)
        self._inflight: Dict[Tuple[int, str], List[_DmaClaim]] = {}
        #: (node, direction) -> (axis, sign), registered by CommsAPI
        self._logical: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: every race seen (also populated in "raise" mode, pre-throw)
        self.reports: List[RaceReport] = []
        #: CPU-side checks performed (0 proves the off-path is untouched)
        self.checks = 0
        #: DMA claims opened over the sanitizer's lifetime
        self.claims_opened = 0
        self._now = 0.0

    # -- wiring ------------------------------------------------------------
    def register_logical(
        self, node: int, direction: int, axis: int, sign: int
    ) -> None:
        """Teach the sanitizer the logical name of a physical link, so
        race reports speak in the (axis, sign) coordinates node programs
        think in."""
        self._logical[(node, direction)] = (axis, sign)

    # -- DMA side (hooked in repro.machine.scu.SCU.dma_claim) ---------------
    def claim(
        self,
        done: Event,
        node: int,
        buffer: str,
        kind: str,
        direction: int,
        nwords: int,
    ) -> None:
        """``buffer`` belongs to the DMA engine until ``done`` fires.

        The release is registered on ``done`` now, at start time, so it
        runs before any process that later waits on ``done`` resumes
        (FIFO callbacks)."""
        claim = _DmaClaim(node, buffer, kind, direction, nwords)
        self._inflight.setdefault((node, buffer), []).append(claim)
        self.claims_opened += 1
        done.add_callback(lambda _e: self._release(claim))

    def _release(self, claim: _DmaClaim) -> None:
        key = (claim.node, claim.buffer)
        claims = self._inflight.get(key)
        if claims is not None:  # None: forget_node dropped the shadow
            claims[:] = [c for c in claims if c is not claim]
            if not claims:
                del self._inflight[key]

    def forget_node(self, node: int) -> None:
        """Drop the shadow of ``node``: no claim and no logical link name
        outlives the job a finalized run ends."""
        self._inflight = {k: v for k, v in self._inflight.items() if k[0] != node}
        self._logical = {k: v for k, v in self._logical.items() if k[0] != node}

    @property
    def quiesced(self) -> bool:
        """True when no buffer is DMA-owned (end-of-run invariant)."""
        return not self._inflight

    # -- CPU side (guarded checkpoints in comms/parallel) -------------------
    def cpu_read(self, node: int, buffer: str, now: float = 0.0) -> None:
        """Declare a CPU read; races with any in-flight *recv*."""
        self.checks += 1
        self._now = now
        for claim in self._inflight.get((node, buffer), ()):
            if claim.kind == "recv":
                self._flag("read", claim)

    def cpu_write(self, node: int, buffer: str, now: float = 0.0) -> None:
        """Declare a CPU write; races with *any* in-flight DMA."""
        self.checks += 1
        self._now = now
        for claim in self._inflight.get((node, buffer), ()):
            self._flag("write", claim)

    def _flag(self, access: str, claim: _DmaClaim) -> None:
        axis_sign = self._logical.get((claim.node, claim.direction))
        report = RaceReport(
            access=access,
            node=claim.node,
            buffer=claim.buffer,
            dma_kind=claim.kind,
            direction=claim.direction,
            axis=axis_sign[0] if axis_sign else None,
            sign=axis_sign[1] if axis_sign else None,
            time=self._now,
            nwords=claim.nwords,
        )
        self.reports.append(report)
        if self.mode == "raise":
            raise HaloRaceError(report)

    def __repr__(self) -> str:
        return (
            f"HaloRaceSanitizer(mode={self.mode!r}, "
            f"inflight={len(self._inflight)}, races={len(self.reports)})"
        )
