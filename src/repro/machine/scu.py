"""The Serial Communications Unit (SCU).

Paper section 2.2.  Per node, the SCU manages 24 independent unidirectional
connections (12 send + 12 receive), each with:

* a **DMA engine** with block-strided access to local memory (zero copy:
  "data is not copied to a different memory location before it is sent");
* the **"three in the air"** protocol: up to three 64-bit words may be
  outstanding before an acknowledgement arrives, amortising the round trip
  while bounding receiver buffering;
* **idle receive**: if data arrives before the receiving node has posted a
  descriptor, the first three words are held in SCU registers *without*
  acknowledgement, blocking the sender — so sends and receives need no
  temporal ordering ("self-synchronizing on the individual link level");
* **automatic resend** on any single-bit error (detected by the header
  code / parity bits of :mod:`repro.machine.packets`), go-back-N within
  the window;
* **supervisor packets**: a single 64-bit word written into a register of
  the neighbour's SCU, raising a CPU interrupt there;
* per-end **checksums** compared at the end of a calculation: each end
  sums a word when it is acknowledged, so both sum what the receiver
  accepted;
* **stored-descriptor groups + per-direction completion**: persistent
  descriptors may be tagged with a group name, and ``start_stored`` starts
  one group per register write while returning *one completion event per
  (kind, direction)* rather than a single aggregate.  This is what lets
  the distributed Dirac pipeline overlap interior arithmetic with the 24
  concurrent DMA transfers and begin boundary work for an axis the moment
  that axis's halos land (paper section 4's sustained-efficiency story);
* **transfer counters**: per-unit payload/wire word counts (resends make
  wire > payload) so node programs and tests can audit traffic volumes.

Simulation granularity: protocol-exact behaviour is per 64-bit word.  For
large error-free transfers the unit can batch ``word_batch`` words per
frame; the handshake then operates at batch granularity with the window
scaled to one batch — semantics identical for error-free runs (used by the
distributed-physics layer for speed; protocol tests run with
``word_batch=1``).  ``word_batch="face"`` resolves the batch per transfer
to the full descriptor length, so a whole lattice face moves as one frame
event with vectorised checksum/parity bookkeeping — the hot-path
configuration for the distributed operators, which inherit the machine's
setting by default.  The batch is a property of the *sender's
transfer*: the receive unit is batch-agnostic (it accepts whatever frame
granularity arrives, holding at most one in-flight batch while idle), so a
mismatched send/recv batch is impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.machine.asic import ASICConfig
from repro.machine.faults import encode_link_down
from repro.machine.hssl import SerialLink
from repro.machine.packets import Frame, LinkChecksum, PacketType
from repro.machine.replay import ReplayEngine
from repro.sim.core import Event, Simulator
from repro.sim.trace import Trace
from repro.util.errors import FaultError, LinkDownError, ProtocolError
from repro.util.hotpath import hot_path

#: the frame types of a DMA transfer, bound once: the per-frame dispatch
#: compares identities instead of looking the members up on the enum
_NORMAL, _ACK, _EOT, _RESEND = (
    PacketType.NORMAL,
    PacketType.ACK,
    PacketType.EOT,
    PacketType.RESEND,
)
#: what a draining SCU discards: every transfer frame but the ACK
_DRAINED = (_NORMAL, _EOT, _RESEND)

#: sentinel ``word_batch`` value: resolve the batch per transfer to the
#: whole descriptor length (one frame per face)
FACE_BATCH = "face"


def normalise_word_batch(word_batch) -> "int | str":
    """Validate a ``word_batch`` config value (positive int or ``"face"``)."""
    if word_batch == FACE_BATCH:
        return FACE_BATCH
    batch = int(word_batch)
    if batch < 1:
        raise ProtocolError(f"word_batch must be >= 1 or 'face', got {word_batch!r}")
    return batch


def resolve_word_batch(word_batch, nwords: int) -> int:
    """Concrete frame batch for one transfer of ``nwords`` words."""
    if word_batch == FACE_BATCH:
        return max(1, nwords)
    return max(1, int(word_batch))


#: word addresses ``0, 1, 2, ...``: every contiguous descriptor's
#: addresses are a read-only view of this one array, which grows by
#: doubling (a view keeps the array it was cut from alive)
_ADDRESSES = np.arange(0)


def _contiguous_words(start: int, count: int) -> np.ndarray:
    """Words ``start .. start + count - 1`` as a view of :data:`_ADDRESSES`."""
    global _ADDRESSES
    end = start + count
    if end > len(_ADDRESSES):
        _ADDRESSES = np.arange(max(end, 2 * len(_ADDRESSES)))
        _ADDRESSES.setflags(write=False)
    return _ADDRESSES[start:end]


@dataclass(frozen=True)
class DmaDescriptor:
    """Block-strided access pattern into a named local-memory buffer.

    Words ``offset + b*stride + i`` for ``b in range(nblocks)``,
    ``i in range(block_len)`` — the SCU hardware's native addressing, which
    is exactly what lattice face extraction needs (contiguous runs of sites
    separated by a fixed pitch).  A contiguous descriptor (one block, or
    blocks that abut) shares its addresses with every other one — a view
    of one process-wide range; a strided one owns its array.
    """

    buffer: str
    block_len: int
    nblocks: int = 1
    stride: int = 0
    offset: int = 0

    def __post_init__(self):
        if self.block_len < 1 or self.nblocks < 1 or self.offset < 0:
            raise ProtocolError(f"bad DMA descriptor {self}")
        if self.nblocks > 1 and self.stride < self.block_len:
            raise ProtocolError(
                f"overlapping DMA blocks: stride {self.stride} < block {self.block_len}"
            )
        if self.nblocks == 1 or self.stride == self.block_len:
            words = _contiguous_words(self.offset, self.total_words)
        else:
            starts = self.offset + self.stride * np.arange(self.nblocks)
            words = (starts[:, None] + np.arange(self.block_len)[None, :]).reshape(-1)
            words.setflags(write=False)
        object.__setattr__(self, "_words", words)

    @property
    def total_words(self) -> int:
        return self.block_len * self.nblocks

    def indices(self) -> np.ndarray:
        """The word addresses, in transfer order: built once per
        descriptor (a view of the shared range when contiguous) and
        read-only, so every transfer a stored descriptor starts shares
        one array."""
        return self._words


class _ControlPort:
    """How send/recv units emit link-level control frames (ACK/RESEND).

    Control frames travel on the reverse wire of the pair — i.e. this
    node's *outgoing* link toward the same neighbour — sharing it with any
    data flowing that way (the `SerialLink` busy-time serialises them).
    """

    def __init__(self, scu: "SCU", direction: int):
        self._scu = scu
        self._direction = direction

    def send(self, ptype: PacketType, seq: int) -> None:
        link = self._scu.out_links.get(self._direction)
        if link is None:
            raise ProtocolError("control port has no reverse link attached")
        link.transmit(Frame(ptype, seq=seq))  # queued on the wire, not waited for


class _DmaUnit:
    """What a direction's two DMA engines share: their wiring, their
    completion counters and the hard-fault watchdog ladder.

    A unit tells the ladder what progress is — :meth:`_progress`, the
    cursor it wants to see move (``None`` once there is nothing left to
    watch) — and the reason it trips with when the cursor stays put.
    """

    #: why the ladder declares this unit's direction dead
    _stall_reason = ""

    def __init__(self, sim: Simulator, asic: ASICConfig, scu: "SCU", direction: int):
        self.sim = sim
        self.asic = asic
        self.scu = scu
        self.direction = direction
        self.checksum = LinkChecksum()
        self.done: Optional[Event] = None
        #: unique payload words moved (sum over transfers)
        self.payload_words = 0
        #: DMA transfers run to completion by this unit
        self.transfers_completed = 0
        #: hard-fault watchdog: trips declared by this unit
        self.watchdog_trips = 0
        #: no-progress probes taken on the backoff ladder
        self.backoff_waits = 0
        #: generation counter invalidating in-flight watchdog callbacks
        self._wd_gen = 0

    def _arm_watchdog(self) -> None:
        self._wd_gen += 1
        self.sim.schedule(
            self.asic.watchdog_wait(0), self._wd_check, self._wd_gen, self._progress(), 0
        )

    def _wd_check(self, gen: int, snapshot: int, rung: int) -> None:
        """No-progress probe (bounded exponential backoff ladder)."""
        cursor = self._progress()
        if gen != self._wd_gen or cursor is None:
            return  # transfer finished, tripped, or cancelled
        if cursor > snapshot:
            # Progress since the last probe: back to the foot of the ladder.
            snapshot, rung = cursor, 0
        elif rung < self.asic.watchdog_max_backoffs:
            rung += 1
            self.backoff_waits += 1
            if self.scu.trace is not None:
                self.scu.trace.emit(
                    "scu.backoff",
                    node=self.scu.node_id,
                    direction=self.direction,
                    wait=self.asic.watchdog_wait(rung),
                )
        else:
            self._trip(self._stall_reason)
            return
        self.sim.schedule(
            self.asic.watchdog_wait(rung), self._wd_check, gen, snapshot, rung
        )

    # -- declared state: fork-executor transfer, and the return to boot ------
    #: what the ladder mutates (REPRO504 audits this class too); a unit's
    #: own tuples, the ones ``snapshot_state`` reads, restate these.
    #: ``_RESET_KEPT`` is the part of ``_SNAPSHOT_ATTRS`` :meth:`boot_reset`
    #: leaves alone — monotone counters, the end-of-run checksum, and the
    #: watchdog generation (a stale probe still in the heap must never
    #: match a later transfer's) — and ``_REGISTERS`` the rest of it
    _RESET_KEPT: Tuple[str, ...] = ("backoff_waits", "_wd_gen")
    _REGISTERS: Tuple[str, ...] = ()
    _SNAPSHOT_ATTRS: Tuple[str, ...] = _RESET_KEPT + _REGISTERS
    _SNAPSHOT_TRANSIENT: Tuple[str, ...] = ()

    def snapshot_state(self) -> dict:
        return {name: getattr(self, name) for name in self._SNAPSHOT_ATTRS}

    def restore_state(self, state: dict) -> None:
        for name, value in sorted(state.items()):
            setattr(self, name, value)

    def boot_reset(self) -> None:
        """Registers and transients back to what a freshly built unit
        holds: boot state is whatever ``__init__`` says it is."""
        boot = type(self)(self.sim, self.asic, self.scu, self.direction)
        for name in self._REGISTERS + self._SNAPSHOT_TRANSIENT:
            setattr(self, name, getattr(boot, name))


class SendUnit(_DmaUnit):
    """One direction's transmit DMA engine."""

    _stall_reason = "no-ack-progress"

    def __init__(self, sim: Simulator, asic: ASICConfig, scu: "SCU", direction: int):
        super().__init__(sim, asic, scu, direction)
        #: resolved frame batch of the *active* transfer (words per frame)
        self._batch = 1
        self.active = False
        self.words: Optional[np.ndarray] = None
        self.base = 0  # oldest unacknowledged word
        self.next = 0  # next word to transmit
        #: the window is full: the next ACK or RESEND pumps (no entry pending)
        self._waiting = False
        #: the most words of the active transfer clocked out so far
        self._clocked = 0
        self.resends = 0
        #: words actually clocked onto the wire (>= payload under resends)
        self.wire_words = 0
        #: ACK control frames seen from the neighbour's receive unit
        self.acks_received = 0
        self._t_start = 0.0
        self._consec_resends = 0

    @property
    def link(self) -> SerialLink:
        link = self.scu.out_links.get(self.direction)
        if link is None:
            raise ProtocolError(
                f"node {self.scu.node_id}: no link in direction {self.direction}"
            )
        return link

    @property
    def window(self) -> int:
        return max(self.asic.ack_window_words, self._batch)

    def start(self, words: np.ndarray, word_batch=None) -> Event:
        """Begin a DMA transfer of ``words`` (uint64) to the neighbour.

        ``word_batch`` overrides the SCU-wide batch for this one transfer
        (``"face"`` resolves to the whole transfer in a single frame).
        """
        done = self.claim(words)
        self._batch = resolve_word_batch(
            self.scu.word_batch if word_batch is None else word_batch,
            len(self.words),
        )
        # the first word's path: DMA fetch from local memory + SCU injection
        self.sim.schedule(self.asic.first_word_delay, self._pump, done)
        if self.scu.watchdog_enabled:
            self._arm_watchdog()
        return done

    def claim(self, words: np.ndarray) -> Event:
        """Take the unit for one transfer of ``words``; its completion event.

        Where every transfer begins: the interpreter's :meth:`start` goes
        on to run the protocol, compiled replay to clock the one frame out
        itself (:mod:`repro.machine.replay`).
        """
        if self.active:
            raise ProtocolError(
                f"send unit {self.direction} already has an active transfer"
            )
        self.active = True
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        self.base = 0
        self.next = 0
        self._clocked = 0
        self.resends = 0
        self._consec_resends = 0
        self._t_start = self.sim.now
        self.done = self.sim.event()
        return self.done

    @hot_path
    def _pump(self, done: Event) -> None:
        """Clock out the frame the window allows and come back when the wire
        is free (window full: :meth:`_wakeup` calls again); once the window
        has drained, the EOT.  An entry of a transfer since finished,
        tripped or cancelled finds ``done`` gone and does nothing."""
        if self.done is not done:
            return
        sim, n = self.sim, len(self.words)
        if self.base < n:
            in_flight = self.next - self.base
            if self.next < n and in_flight < self.window:
                seq = self.next
                batch = min(self._batch, n - seq, self.window - in_flight)
                chunk = self.words[seq : seq + batch]
                self.next += batch
                self.wire_words += batch
                if self.next > self._clocked:
                    self._clocked = self.next
                # the wire carries one frame at a time: come back when free
                free_at = self.link.transmit(Frame(_NORMAL, chunk, seq))
                sim.schedule(free_at - sim.now, self._pump, done)
            else:
                self._waiting = True
            return
        free_at = self.link.transmit(Frame(PacketType.EOT, seq=n))
        sim.schedule(free_at - sim.now, self.finish, done)

    def finish(self, done: Event) -> None:
        """The EOT is clocked out: the transfer ``done`` stands for is
        complete.  (:meth:`_pump` or replay schedules this for the time the
        EOT leaves the wire; if the transfer was cancelled meanwhile the unit
        no longer holds ``done`` and the stale entry does nothing.)"""
        if self.done is not done:
            return
        n = len(self.words)
        self.words = None  # a gathered face is a copy: let it go with the transfer
        self.active = False
        self._wd_gen += 1  # disarm the watchdog: transfer complete
        self.payload_words += n
        self.transfers_completed += 1
        if self.scu.trace is not None:
            self.scu.trace.emit(
                "scu.send",
                node=self.scu.node_id,
                direction=self.direction,
                words=n,
                resends=self.resends,
                dur=self.sim.now - self._t_start,
            )
        done.succeed(n)

    # -- control-frame handlers (called by the SCU dispatcher) -------------
    @hot_path
    def on_ack(self, seq: int) -> None:
        self.acks_received += 1
        # ``_clocked`` is the most this transfer has clocked out: an ACK
        # beyond it is stale.  A receive that drains idle-held frames
        # acks each one, and the last ACK can land after a back-to-back
        # next transfer claimed the unit (protocol enumeration case
        # ``Case(n=3, batch=1, window=3, post=3, transfers=2)``).  The
        # words an ACK acknowledges are the ones the receive end summed
        # as it accepted them: both ends sum them now, and only now.
        if self.base < seq <= self._clocked:
            self.checksum.update(self.words[self.base : seq])
            self.base = seq
            self._consec_resends = 0  # forward progress: not a storm
            self._wakeup()

    def on_resend(self, seq: int) -> None:
        """Receiver saw a corrupt word at ``seq``: go back and retransmit."""
        if seq < self.next:
            self.next = max(seq, self.base)
            self.resends += 1
            if self.scu.trace is not None:
                self.scu.trace.emit(
                    "scu.resend",
                    node=self.scu.node_id,
                    direction=self.direction,
                    seq=seq,
                )
            if self.scu.watchdog_enabled and self.active:
                self._consec_resends += 1
                if self._consec_resends > self.asic.watchdog_resend_limit:
                    # A transient flip costs at most a window's worth of
                    # RESENDs before the retransmission clears it; this
                    # many in a row without ack progress is a stuck link.
                    self._trip("resend-storm")
                    return
            self._wakeup()

    def _wakeup(self) -> None:
        if self._waiting:
            self._waiting = False
            self._pump(self.done)

    # -- hard-fault watchdog ------------------------------------------------
    def _progress(self) -> Optional[int]:
        """Acknowledged words, while a transfer is active."""
        return self.base if self.active else None

    def _trip(self, reason: str) -> None:
        """Declare this direction dead: stop spinning, escalate."""
        self.watchdog_trips += 1
        self._wd_gen += 1
        self.active = False
        self._waiting = False
        done, self.done = self.done, None
        self.scu._escalate_link_down(self.direction, reason)
        if done is not None and not done.triggered:
            done.fail(LinkDownError(self.scu.node_id, self.direction, reason))

    def cancel(self, reason: str = "partition abort") -> None:
        """Abandon any active transfer without declaring the link dead."""
        if not self.active and self.done is None:
            return
        self._wd_gen += 1
        self.active = False
        self._waiting = False
        done, self.done = self.done, None
        if done is not None and not done.triggered:
            done.fail(FaultError(f"send transfer cancelled: {reason}"))

    # -- declared state (see :class:`_DmaUnit`) --------------------------------
    #: plain-value attributes a forked shard worker owns and ships home
    #: (transfer-transient state — ``words``/``done``/``_waiting`` — is not
    #: carried: the fork coordinator only snapshots quiesced shards)
    _RESET_KEPT = (
        "checksum",
        "resends",
        "payload_words",
        "wire_words",
        "acks_received",
        "transfers_completed",
        "watchdog_trips",
        "backoff_waits",
        "_wd_gen",
    )
    _REGISTERS = ("base", "next", "active", "_consec_resends")
    _SNAPSHOT_ATTRS = _RESET_KEPT + _REGISTERS

    #: live-heap-only state (REPRO504 audit): the completion event, the
    #: in-flight payload view and the pump's window-wait and clock-out
    #: marks are rebuilt per transfer — the fork coordinator only
    #: snapshots quiesced shards
    _SNAPSHOT_TRANSIENT = (
        "words", "_batch", "done", "_t_start", "_waiting", "_clocked"
    )


class RecvUnit(_DmaUnit):
    """One direction's receive DMA engine, with idle-receive holding."""

    _stall_reason = "recv-stall"

    def __init__(self, sim: Simulator, asic: ASICConfig, scu: "SCU", direction: int):
        super().__init__(sim, asic, scu, direction)
        self.control = _ControlPort(scu, direction)
        self.expected = 0  # next word sequence number we will accept
        self.held: List[np.ndarray] = []  # idle-receive holding registers
        self.held_words = 0
        self.descriptor: Optional[DmaDescriptor] = None
        self._indices: Optional[np.ndarray] = None
        self.total = 0
        self.write_cursor = 0
        #: corrupt data frames detected (header code / parity bits)
        self.parity_errors = 0
        #: RESEND control frames emitted (parity failures + window gaps)
        self.resend_requests = 0
        #: ACK control frames emitted (window credit returns)
        self.acks_sent = 0
        #: cumulative words parked in the idle-receive holding registers
        self.idle_held_words_total = 0
        #: frames that arrived before a descriptor was posted
        self.idle_hold_events = 0
        #: stale resend duplicates of a finished transfer, discarded
        #: because its trailing EOT had not yet arrived (FIFO wire)
        self.stale_frames_discarded = 0
        #: duplicates seen during idle receive, dropped without re-ack
        #: (held words must not return window credit)
        self.idle_dups_discarded = 0
        self._t_post = 0.0
        #: expected EOT sequence numbers of transfers whose wire side has
        #: completed (FIFO: the EOT frame trails the final data word)
        self._eot_due: List[int] = []

    def post(self, descriptor: DmaDescriptor) -> Event:
        """Give the unit a destination; drains any idle-held words."""
        for chunk in self.claim(descriptor, descriptor.indices()):
            self._accept(chunk)
        return self.done

    def claim(self, descriptor: DmaDescriptor, indices: np.ndarray) -> List[np.ndarray]:
        """Take the unit for one receive into ``descriptor`` (``indices``
        its word addresses); hands back what idle receive was holding for
        it.  The caller accepts those chunks its own way — :meth:`post`
        through the interpreted protocol, compiled replay through its
        legs — and finds the completion event in :attr:`done`."""
        if self.descriptor is not None or self.done is not None:
            raise ProtocolError(
                f"recv unit {self.direction} already has an active descriptor"
            )
        self.descriptor = descriptor
        self._indices = indices
        self.total = descriptor.total_words
        self.write_cursor = 0
        self.done = self.sim.event()
        self._t_post = self.sim.now
        if self.scu.watchdog_enabled:
            self._arm_watchdog()
        held = self.held
        if held:
            self.held, self.held_words = [], 0
        return held

    def park(self, words: np.ndarray) -> None:
        """Idle receive: hold ``words`` unacknowledged until a descriptor
        is posted (the sender's window stalls it meanwhile)."""
        self.held.append(words)
        self.held_words += len(words)
        self.idle_hold_events += 1
        self.idle_held_words_total += len(words)

    @hot_path
    def on_data(self, frame: Frame) -> None:
        if self._eot_due:
            # A finished transfer's trailing EOT is still in flight, and
            # the wire is FIFO: this frame was queued *before* that EOT,
            # so it is a stale resend duplicate of the finished transfer
            # (a late RESEND can rewind the sender past words whose ACKs
            # were still on the control wire, making it retransmit words
            # the receiver already accepted).  Without this filter the
            # duplicate matches the rearmed ``expected == 0`` sequence
            # space and is idle-held — to be drained into the *next*
            # transfer's buffer by a later post(): protocol enumeration
            # case ``Case(n=2, batch=1, window=3, post=2, faults=(0, 3),
            # transfers=2)`` (DESIGN.md section 14).
            self.stale_frames_discarded += 1
            return
        if frame.is_corrupt():
            # Hardware detects the flip via header code or parity and
            # requests a resend of the failed word ("automatic resend").
            # No dedup: a duplicate RESEND only rewinds the sender within
            # its (3-word) window, and suppression could deadlock when the
            # same word is corrupted twice in a row.
            self.parity_errors += 1
            self.resend_requests += 1
            if self.scu.trace is not None:
                self.scu.trace.emit(
                    "scu.parity_error",
                    node=self.scu.node_id,
                    direction=self.direction,
                    seq=frame.seq,
                )
            self.control.send(PacketType.RESEND, frame.seq)
            return
        if frame.seq != self.expected:
            if frame.seq > self.expected:
                # Gap: an earlier word was rejected; re-request it.
                self.resend_requests += 1
                self.control.send(PacketType.RESEND, self.expected)
            else:
                if self.descriptor is None:
                    # Idle receive holds *without acknowledging*: here
                    # ``expected`` counts words that are only held, so a
                    # re-ack would return window credit for them — the
                    # sender could then finish and EOT a transfer the
                    # receiver never began accepting, tripping on_eot.
                    # Stay silent; post() drains the held words and acks
                    # then.  Enumeration case ``Case(n=4, batch=1,
                    # window=3, post='stall', faults=(0,))``.
                    self.idle_dups_discarded += 1
                    return
                # Duplicate: re-ack so the sender's window advances.
                self.acks_sent += 1
                self.control.send(PacketType.ACK, self.expected)
            return
        self.expected += frame.nwords
        if self.descriptor is None:
            # Idle receive: hold without acknowledging; the sender's
            # unacknowledged window stalls it until a descriptor is
            # posted.  Batch-agnostic invariant: the first held frame of
            # any size is legal (the sender's window is exactly one batch,
            # so at most one unacked batch can be in flight); beyond that,
            # holding is capped at the idle_hold_words registers — which
            # for single-word frames reproduces the paper's "first three
            # words held" rule exactly.
            if (
                self.held_words
                and self.held_words + frame.nwords > self.asic.idle_hold_words
            ):
                raise ProtocolError(
                    f"idle-receive overflow on direction {self.direction}: "
                    f"{self.held_words + frame.nwords} > "
                    f"{self.asic.idle_hold_words} words; "
                    "the sender violated the ack window"
                )
            self.park(frame.words)
        else:
            self._accept(frame.words)

    def on_eot(self, seq: int) -> None:
        """End-of-transfer marker from the sender.

        A transfer *owes* exactly one EOT once its wire side has completed
        (tracked in :attr:`_eot_due` — a FIFO, since a back-to-back next
        transfer can overlap the previous transfer's trailing EOT).  Any
        EOT that is not owed is a protocol violation: either the sender
        truncated a DMA (descriptor still has outstanding words — caught
        here *regardless* of whether ``seq`` happens to equal the posted
        total, the escape hatch of the old ``seq != total`` check), or it
        sent an EOT with no transfer in progress at all (idle receive /
        after completion).
        """
        if self._eot_due:
            expected = self._eot_due.pop(0)
            if seq != expected:
                raise ProtocolError(
                    f"EOT at {seq} but completed transfer carried {expected} words"
                )
            return
        if self.descriptor is not None:
            raise ProtocolError(
                f"truncated DMA: EOT at {seq} with "
                f"{self.total - self.write_cursor} of {self.total} descriptor "
                "words outstanding"
            )
        raise ProtocolError(
            f"unexpected EOT at {seq}: no transfer in progress on direction "
            f"{self.direction} (idle receive or already-completed descriptor)"
        )

    @hot_path
    def _accept(self, words: np.ndarray) -> None:
        idx = self._indices[self.write_cursor : self.write_cursor + len(words)]
        if len(idx) < len(words):
            raise ProtocolError(
                f"recv overrun: {len(words)} words but descriptor has "
                f"{self.total - self.write_cursor} slots left"
            )
        self.scu.memory_write(self.descriptor.buffer, idx, words)
        self.write_cursor += len(words)
        self.payload_words += len(words)
        # Acknowledge acceptance (returns window credit to the sender);
        # what is acknowledged is what each end of the link sums.
        self.checksum.update(words)
        self.acks_sent += 1
        self.control.send(_ACK, self.expected)
        if self.write_cursor >= self.total:
            # The sender still owes this transfer its trailing EOT frame.
            self._eot_due.append(self.total)
            self.wire_done()

    def wire_done(self) -> None:
        """The last word is accepted: the wire side of the transfer is
        finished.  Rearm the sequence space so a back-to-back next
        transfer idle-receives correctly while the last words drain
        through the eject + DMA store pipe — they store in arrival order,
        so only the last needs the heap."""
        self._wd_gen += 1  # disarm the watchdog
        self.descriptor = None
        self.expected = 0
        self.sim.schedule(self.asic.store_delay, self._complete, self.done)

    def _complete(self, done: Event) -> None:
        if self.done is not done:
            return  # cancelled while the last words were in the pipe
        self.done = None
        self.transfers_completed += 1
        if self.scu.trace is not None:
            self.scu.trace.emit(
                "scu.recv",
                node=self.scu.node_id,
                direction=self.direction,
                words=self.total,
                dur=self.sim.now - self._t_post,
            )
        done.succeed(self.total)

    # -- hard-fault watchdog ------------------------------------------------
    def _progress(self) -> Optional[int]:
        """Words accepted, while a descriptor is posted."""
        return self.write_cursor if self.descriptor is not None else None

    def _trip(self, reason: str) -> None:
        self.watchdog_trips += 1
        self._reset(LinkDownError(self.scu.node_id, self.direction, reason))
        self.scu._escalate_link_down(self.direction, reason)

    def cancel(self, reason: str = "partition abort") -> None:
        """Abandon any posted receive without declaring the link dead."""
        if self.descriptor is None and self.done is None and not self.held:
            self.expected = 0
            self._eot_due = []
            return
        self._reset(FaultError(f"recv transfer cancelled: {reason}"))

    def _reset(self, exc: BaseException) -> None:
        self._wd_gen += 1
        self.descriptor = None
        self.expected = 0
        self.total = 0
        self.write_cursor = 0
        self.held = []
        self.held_words = 0
        self._eot_due = []
        done, self.done = self.done, None
        if done is not None and not done.triggered:
            done.fail(exc)

    # -- declared state (see :class:`_DmaUnit`) --------------------------------
    _RESET_KEPT = (
        "checksum",
        "payload_words",
        "parity_errors",
        "resend_requests",
        "acks_sent",
        "idle_held_words_total",
        "idle_hold_events",
        "stale_frames_discarded",
        "idle_dups_discarded",
        "transfers_completed",
        "watchdog_trips",
        "backoff_waits",
        "_wd_gen",
    )
    _REGISTERS = ("expected", "held_words", "total", "write_cursor")
    _SNAPSHOT_ATTRS = _RESET_KEPT + _REGISTERS

    #: live-heap-only state (REPRO504 audit): the active descriptor,
    #: its resolved destination view, the completion event, idle-held
    #: frames and the EOT FIFO exist only while a transfer is in
    #: flight on the worker's heap; quiesced-shard snapshots never
    #: carry them
    _SNAPSHOT_TRANSIENT = (
        "descriptor",
        "_indices",
        "done",
        "_t_post",
        "held",
        "_eot_due",
    )


class SCU:
    """A node's full Serial Communications Unit."""

    def __init__(
        self,
        sim: Simulator,
        asic: ASICConfig,
        node_id: int,
        memory_read: Callable[[str, np.ndarray], np.ndarray],
        memory_write: Callable[[str, np.ndarray, np.ndarray], None],
        trace: Optional[Trace] = None,
        word_batch=1,
        sanitizer: Optional["HaloRaceSanitizer"] = None,
        replay_enabled: bool = True,
    ):
        self.sim = sim
        self.asic = asic
        self.node_id = node_id
        self.memory_read = memory_read
        self.memory_write = memory_write
        self.trace = trace
        #: optional :class:`repro.analysis.sanitizer.HaloRaceSanitizer`;
        #: ``None`` keeps the hot path to a single attribute check.
        self.sanitizer = sanitizer
        self.out_links: Dict[int, SerialLink] = {}
        self.send_units: Dict[int, SendUnit] = {}
        self.recv_units: Dict[int, RecvUnit] = {}
        #: node-wide frame batch: positive int, or ``"face"`` to resolve
        #: per transfer to the whole descriptor (one frame per face)
        self.word_batch = normalise_word_batch(word_batch)
        self.supervisor_reg: Dict[int, int] = {}
        self.on_supervisor: Optional[Callable[[int, int], None]] = None
        self.on_partition_irq: Optional[Callable[[int, int], None]] = None
        #: hard-fault watchdog master enable (off: protocol identical to
        #: the seed — idle receive may legitimately stall a sender forever)
        self.watchdog_enabled = False
        #: direction -> watchdog reason, for every link declared dead here
        self.links_down: Dict[int, str] = {}
        #: machine hook called as ``on_link_down(node, direction, reason)``
        self.on_link_down: Optional[Callable[[int, int, str], None]] = None
        #: abort-drain mode: stale data, EOT and RESEND frames of a
        #: cancelled run are discarded instead of dispatched (counted here)
        self.drained_frames = 0
        self._draining = False
        #: stored ("persistent") descriptors:
        #: (kind, direction) -> (descriptor, start-group, word_batch or None)
        self._stored: Dict[Tuple[str, int], Tuple] = {}
        #: direction -> (neighbour SCU, arrival direction there), wired by
        #: :class:`repro.machine.network.MeshNetwork` for replay delivery
        self.peers: Dict[int, Tuple["SCU", int]] = {}
        #: hot-epoch learn/replay engine (see :mod:`repro.machine.replay`)
        self.replay = ReplayEngine(self, enabled=replay_enabled)

    # -- wiring ---------------------------------------------------------------
    def attach_link(self, direction: int, link: SerialLink) -> None:
        self.out_links[direction] = link
        # Units read ``word_batch`` off the SCU when a transfer starts, so
        # there is no per-unit copy to fall out of sync.
        if direction not in self.send_units:
            self.send_units[direction] = SendUnit(self.sim, self.asic, self, direction)
        if direction not in self.recv_units:
            self.recv_units[direction] = RecvUnit(self.sim, self.asic, self, direction)

    def attach_peer(self, direction: int, peer: "SCU", arrival: int) -> None:
        """Register the neighbour SCU behind ``direction`` (replay wiring)."""
        self.peers[direction] = (peer, arrival)

    @hot_path
    def on_frame(self, direction: int, frame: Frame) -> None:
        """Dispatch a frame arriving from the neighbour in ``direction``."""
        ptype = frame.ptype
        if self._draining and ptype in _DRAINED:
            # Partition-abort drain: in-flight frames of cancelled
            # transfers are discarded so they cannot poison reset units.
            # An ACK still credits its cancelled send unit: the receive
            # end summed the words it acknowledges.
            self.drained_frames += 1
        elif ptype is _NORMAL:
            self._recv(direction).on_data(frame)
        elif ptype is _ACK:
            self._send(direction).on_ack(frame.seq)
        elif ptype is _EOT:
            self._recv(direction).on_eot(frame.seq)
        elif ptype is _RESEND:
            self._send(direction).on_resend(frame.seq)
        elif ptype is PacketType.SUPERVISOR:
            self._on_supervisor(direction, frame)
        elif ptype is PacketType.PARTITION_IRQ:
            if self.on_partition_irq is not None:
                self.on_partition_irq(direction, int(frame.words[0]) & 0xFF)
        elif ptype is not PacketType.IDLE:
            raise ProtocolError(f"unhandled frame type {ptype}")

    def _send(self, direction: int) -> SendUnit:
        unit = self.send_units.get(direction)
        if unit is None:
            raise ProtocolError(f"no send unit for direction {direction}")
        return unit

    def _recv(self, direction: int) -> RecvUnit:
        unit = self.recv_units.get(direction)
        if unit is None:
            raise ProtocolError(f"no recv unit for direction {direction}")
        return unit

    # -- data transfers -----------------------------------------------------
    def send(self, direction: int, descriptor: DmaDescriptor, word_batch=None) -> Event:
        """Start a zero-copy DMA send of the described local memory.

        ``word_batch`` overrides the SCU-wide batch for this transfer
        (``"face"`` ships the whole descriptor as one frame).
        """
        words = self.memory_read(descriptor.buffer, descriptor.indices())
        done = self._send(direction).start(words, word_batch=word_batch)
        return self.dma_claim(done, "send", direction, descriptor)

    def recv(self, direction: int, descriptor: DmaDescriptor) -> Event:
        """Post a receive destination (may be before or after the send)."""
        done = self._recv(direction).post(descriptor)
        return self.dma_claim(done, "recv", direction, descriptor)

    def dma_claim(
        self, done: Event, kind: str, direction: int, descriptor: DmaDescriptor
    ) -> Event:
        """Tell the race sanitizer (if any) that ``descriptor``'s buffer
        belongs to the DMA engine until ``done``; returns ``done``."""
        san = self.sanitizer
        if san is not None:
            san.claim(
                done,
                self.node_id,
                descriptor.buffer,
                kind,
                direction,
                descriptor.total_words,
            )
        return done

    # -- persistent descriptors (paper section 3.3) ---------------------------
    def store_descriptor(
        self,
        kind: str,
        direction: int,
        descriptor: DmaDescriptor,
        group: str = "default",
        word_batch=None,
    ) -> None:
        """Store a DMA instruction in the SCU for repeated reuse.

        ``group`` tags the descriptor with a start-group: ``start_stored``
        can launch one group at a time (still a single register write per
        group — the start register has per-unit enable bits), which the
        overlapped Dirac pipeline uses to fire its raw-face transfers
        before the sender-side products are staged.

        ``word_batch`` (send descriptors only) overrides the SCU-wide
        batch every time this descriptor starts — the distributed
        operators store their halo sends with ``word_batch="face"``.
        """
        if kind not in ("send", "recv"):
            raise ProtocolError(f"descriptor kind must be send/recv, got {kind!r}")
        if word_batch is not None:
            word_batch = normalise_word_batch(word_batch)
        self._stored[(kind, direction)] = (descriptor, group, word_batch)
        # A (re)stored descriptor changes the hot-epoch schedule: any
        # compiled replay trace is stale, so the next epoch relearns.
        self.replay.invalidate("descriptor stored")

    def start_stored(self, group: Optional[str] = None) -> Dict[Tuple[str, int], Event]:
        """One write starts every stored transfer ("start up to 24
        communications" with a single register write).

        Returns **one completion event per (kind, direction)** so callers
        can overlap work with individual transfers instead of blocking on
        the aggregate.  With ``group`` given, only descriptors stored under
        that group start (one register write per group).
        """
        events = {}
        replay = self.replay
        for (kind, direction), (desc, g, batch) in self._stored.items():
            if group is not None and g != group:
                continue
            # Inside a compiled hot epoch the transfer replays from the
            # memoized schedule; otherwise it runs interpreted (and a
            # learning epoch records it for compilation).
            ev = replay.try_transfer(kind, direction, desc, g, batch)
            if ev is None:
                if kind == "send":
                    ev = self.send(direction, desc, word_batch=batch)
                else:
                    ev = self.recv(direction, desc)
                replay.observe(kind, direction, desc, g, batch, ev)
            events[(kind, direction)] = ev
        if self.trace is not None:
            self.trace.emit(
                "scu.start_stored",
                node=self.node_id,
                group=group,
                n_transfers=len(events),
            )
        return events

    # -- hard-fault escalation --------------------------------------------------
    def _escalate_link_down(self, direction: int, reason: str) -> None:
        """A watchdog tripped: record, notify the host path, raise the IRQ.

        Escalation is once per direction (send- and recv-unit trips on the
        same dead cable collapse to one LINK_DOWN event).  A LINK_DOWN
        supervisor packet goes to the first alive neighbour — the paper's
        single-word CPU-interrupt mechanism — and the machine-level hook
        (wired by :class:`~repro.machine.machine.QCDOCMachine`) raises a
        partition interrupt so every node, and the host daemon, learns a
        hard fault occurred.
        """
        if direction in self.links_down:
            return
        self.links_down[direction] = reason
        self.replay.invalidate("link down")
        if self.trace is not None:
            self.trace.emit(
                "scu.link_down",
                node=self.node_id,
                direction=direction,
                reason=reason,
            )
        word = encode_link_down(self.node_id, direction)
        for d in sorted(self.out_links):
            link = self.out_links[d]
            if d != direction and link.alive and link.trained:
                self.send_supervisor(d, word)
                break
        if self.on_link_down is not None:
            self.on_link_down(self.node_id, direction, reason)

    def cancel_active_transfers(self, reason: str = "partition abort") -> None:
        """Abandon every in-progress DMA and enter frame-drain mode.

        Part of the machine's partition-abort path: after a watchdog
        trip fails one rank, the surviving ranks' half-finished transfers
        are cancelled (their events fail), and any frames still on the
        wire are discarded on arrival until :meth:`boot_reset` — all but
        the ACKs, which credit their cancelled send units.
        """
        for unit in self.send_units.values():
            unit.cancel(reason)
        for unit in self.recv_units.values():
            unit.cancel(reason)
        self._draining = True
        self._stored.clear()
        self.replay.invalidate("transfers cancelled")

    #: what :meth:`boot_reset` keeps: the wiring, the verdicts on dead
    #: cables (the host daemon's to lift, not a job's) and the drain count
    _RESET_KEPT = (
        "out_links",
        "send_units",
        "recv_units",
        "peers",
        "links_down",
        "drained_frames",
    )

    def boot_reset(self) -> None:
        """Hand the SCU back as a booted one, once the run's last frame has
        left the wires: units, descriptors, registers, drain mode, replay."""
        for unit in (*self.send_units.values(), *self.recv_units.values()):
            unit.boot_reset()
        self._stored.clear()
        self.supervisor_reg.clear()
        self._draining = False
        self.replay.boot_reset()

    # -- transfer accounting ---------------------------------------------------
    def transfer_counters(self) -> Dict[str, int]:
        """Aggregate payload/wire word counters over every unit.

        ``wire_words_sent`` exceeds ``payload_words_sent`` exactly when the
        go-back-N protocol retransmitted after an injected fault.
        """
        sends = list(self.send_units.values())
        recvs = list(self.recv_units.values())
        return {
            "payload_words_sent": sum(u.payload_words for u in sends),
            "wire_words_sent": sum(u.wire_words for u in sends),
            "payload_words_received": sum(u.payload_words for u in recvs),
            "resends": sum(u.resends for u in sends),
            "acks_received": sum(u.acks_received for u in sends),
            "sends_completed": sum(u.transfers_completed for u in sends),
            "parity_errors": sum(u.parity_errors for u in recvs),
            "resend_requests": sum(u.resend_requests for u in recvs),
            "acks_sent": sum(u.acks_sent for u in recvs),
            "idle_held_words": sum(u.idle_held_words_total for u in recvs),
            "idle_hold_events": sum(u.idle_hold_events for u in recvs),
            "recvs_completed": sum(u.transfers_completed for u in recvs),
            "watchdog_trips": sum(u.watchdog_trips for u in sends)
            + sum(u.watchdog_trips for u in recvs),
            "backoff_waits": sum(u.backoff_waits for u in sends)
            + sum(u.backoff_waits for u in recvs),
            "link_down": len(self.links_down),
        }

    def in_flight_words(self) -> int:
        """Words currently on the wire or awaiting DMA store.

        Sender side counts ``next - base`` (transmitted but unacknowledged)
        for active transfers; receiver side counts idle-held words plus
        the words accepted by a receive that has not completed yet (its
        last words are still in the eject/store pipeline).  At quiesce
        (heap drained, all transfers complete) this is zero — the
        conservation invariant the telemetry test suite asserts.
        """
        sender = sum(
            (u.next - u.base) for u in self.send_units.values() if u.active
        )
        receiver = sum(
            u.held_words + (u.write_cursor if u.done is not None else 0)
            for u in self.recv_units.values()
        )
        return sender + receiver

    # -- fork-executor state transfer -------------------------------------
    def snapshot_state(self) -> dict:
        """Picklable unit/protocol state for the fork-executor gather."""
        return {
            "send_units": {
                d: u.snapshot_state() for d, u in sorted(self.send_units.items())
            },
            "recv_units": {
                d: u.snapshot_state() for d, u in sorted(self.recv_units.items())
            },
            "links_down": dict(self.links_down),
            "drained_frames": self.drained_frames,
            "draining": self._draining,
            "supervisor_reg": dict(self.supervisor_reg),
        }

    def restore_state(self, state: dict) -> None:
        for d, unit_state in sorted(state["send_units"].items()):
            self.send_units[d].restore_state(unit_state)
        for d, unit_state in sorted(state["recv_units"].items()):
            self.recv_units[d].restore_state(unit_state)
        self.links_down = dict(state["links_down"])
        self.drained_frames = state["drained_frames"]
        self._draining = state["draining"]
        self.supervisor_reg = dict(state["supervisor_reg"])

    # -- supervisor packets ---------------------------------------------------
    def send_supervisor(self, direction: int, word: int) -> Event:
        """Send one 64-bit word into the neighbour's SCU register + IRQ."""
        frame = Frame(
            PacketType.SUPERVISOR,
            np.array([word], dtype=np.uint64),
            seq=-1,
        )
        link = self.out_links.get(direction)
        if link is None:
            raise ProtocolError(f"no link in direction {direction}")
        return self.sim.timeout(link.transmit(frame) - self.sim.now)

    def _on_supervisor(self, direction: int, frame: Frame) -> None:
        word = int(frame.words[0])
        self.supervisor_reg[direction] = word
        if self.trace is not None:
            self.trace.emit(
                "scu.supervisor", node=self.node_id, direction=direction, word=word
            )
        if self.on_supervisor is not None:
            self.on_supervisor(direction, word)

    # -- partition interrupts --------------------------------------------------
    def broadcast_partition_irq(self, bits: int, directions) -> None:
        frame_word = np.array([bits & 0xFF], dtype=np.uint64)
        for d in directions:
            link = self.out_links.get(d)
            # Skip cables that are dead or never trained (a quarantined
            # neighbour): the flood still reaches every live node through
            # the torus's redundant paths.
            if link is not None and link.alive and link.trained:
                link.transmit(Frame(PacketType.PARTITION_IRQ, frame_word.copy()))
