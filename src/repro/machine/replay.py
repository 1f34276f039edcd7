"""Compiled replay of steady-state stored-descriptor exchanges.

The distributed operators apply the same dslash thousands of times per
solve, and every application starts the *identical* set of SCU
transfers: the same stored descriptors in the same groups, every face
one error-free frame (``word_batch="face"``).  Interpreting such a
transfer costs seven heap entries (``test_machine_scu.py::
TestEventBudget``): window bookkeeping, a ``Frame`` per leg, sequence
checks and per-frame dispatch at each end.

This module skips that machinery once it knows it is not needed.  Each
operator application is bracketed as a **hot epoch**
(:meth:`repro.comms.api.CommsAPI.begin_hot_epoch` / ``end_hot_epoch``).
The first epoch of a tag runs interpreted while the engine *learns*: it
checks that every stored transfer completed as a single error-free frame
and records its descriptor signature.  From the second epoch on,
``start_stored`` transfers are *replayed*: **five** heap entries each
(six where the trace is on) — the first word's DMA delay, the data
landing, the ACK landing, the receive's completion, the send's.

What replay skips: the window, the sequence space and the EOT FIFO,
``Frame`` objects, ``SCU.on_frame`` dispatch, and the landing of a
trailing EOT that nothing at the far end reads (it still occupies its
wire, and flies where its arrival is traced).

What replay **shares** with the interpreter — it calls it, it does not
restate it:

* *the timeline.*  Every leg (data, ACK, EOT) is clocked out by
  :meth:`repro.machine.hssl.SerialLink.carry`, the method
  ``SerialLink.transmit`` itself ends in: occupancy, queueing behind a
  busy wire, time of flight, ``in_transit``, ``frames_dropped`` on a dead
  cable and the ``link.deliver`` record.  The two DMA delays are read off
  the ASIC sheet (``first_word_delay``, ``store_delay``).  No time is
  computed here, so the simulated clock of a replayed run equals the
  interpreted one by construction — not by two spellings of a sum that
  round alike at most sizes;
* *the state of a transfer.*  A replayed send claims its ``SendUnit``
  (:meth:`~repro.machine.scu.SendUnit.claim`: ``active``, ``words``,
  ``done``) and completes it (:meth:`~repro.machine.scu.SendUnit.finish`:
  counters, the ``scu.send`` record); a replayed receive claims its
  ``RecvUnit`` (:meth:`~repro.machine.scu.RecvUnit.claim`), parks an
  early payload in its idle-receive registers
  (:meth:`~repro.machine.scu.RecvUnit.park`) and finishes through
  ``wire_done`` / ``_complete``; both take the race sanitizer's one DMA
  claim (:meth:`~repro.machine.scu.SCU.dma_claim`).  So a second
  transfer on a busy direction is refused as always, a partition abort
  cancels a replayed transfer with the units and discards its frames in
  flight while the SCU drains (an ACK still credits its send unit, as
  an interpreted one does), and ``PartitionRun.quiesced()`` /
  ``SCU.in_flight_words()`` see it like any other.

Bit-identical to the interpreted path, clock included: results, the
counter sample, the trace multiset and ``sim.now``
(``tests/test_replay_hotpath.py::TestReplayBitIdentity`` across operators,
decompositions and lattice sizes; ``TestReplayAbort`` for the abort path;
``TestEventBudget::test_replayed_exchange`` for the entry counts).

Validity gate (one verdict per wire pair per epoch):

* both wires of the pair alive, trained, not stuck, ``bit_error_rate == 0``
  and not ``cross_shard`` (cross-shard pairs always interpret — sharded
  runs stay bit-identical because replay only ever engages where both
  SCUs are in-process);
* hard-fault watchdogs disabled on both nodes (fault-tolerance machinery
  must observe real protocol stalls, so watchdog-armed machines never
  compile);
* both engines hold a compiled record for the epoch tag.

Because the two nodes of a pair reach the same logical epoch at
*different simulation times* (the ranks skew by wire latencies), the gate
is never evaluated twice: the first endpoint to touch a pair in its k-th
epoch of a tag evaluates the gate once and writes the verdict into
**both** engines' ledgers, keyed by (direction, tag, k); the other
endpoint reads the stored verdict back.  A transfer's matched send and
receive therefore always agree on replay-vs-interpret, even when one
node is still learning epoch k while its neighbour has already compiled
— the failure mode that otherwise deadlocks (a replayed send landing on
a receiver that waits for a sequence-checked frame).  Epoch indices line
up across nodes because every rank runs the same program, and a node
cannot finish epoch k before its neighbour has begun it (the epoch's
receives rendezvous with the neighbour's sends).

The compiled record is invalidated whenever its assumptions can have
changed: a descriptor is (re)stored, active transfers are cancelled
(partition abort), or a link goes down.  The next epoch then relearns.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.machine.packets import PacketType
from repro.util.errors import ProtocolError
from repro.util.hotpath import hot_path

#: the three legs of a replayed transfer, as the wire's record names them
_NORMAL, _ACK, _EOT = PacketType.NORMAL, PacketType.ACK, PacketType.EOT


class _TransferSig:
    """Learned identity of one stored transfer within an epoch."""

    __slots__ = ("desc_id", "group", "batch", "indices")

    def __init__(self, descriptor, group, batch):
        self.desc_id = id(descriptor)
        self.group = group
        self.batch = batch
        self.indices = descriptor.indices()


class EpochRecord:
    """What one learning epoch established about a tag's schedule."""

    __slots__ = ("tag", "compiled", "uncompilable", "transfers", "pending")

    def __init__(self, tag: str):
        self.tag = tag
        self.compiled = False
        #: reason this tag can never replay (``None`` = still eligible)
        self.uncompilable: Optional[str] = None
        self.transfers: Dict[Tuple[str, int], _TransferSig] = {}
        #: learn-time transfers started but not yet completed
        self.pending = 0


class ReplayEngine:
    """Per-SCU learn/replay state machine for hot-epoch transfers."""

    def __init__(self, scu, enabled: bool = True):
        self.scu = scu
        self.enabled = enabled
        self.records: Dict[str, EpochRecord] = {}
        self.active_tag: Optional[str] = None
        #: ``None`` (interpreted), ``"learn"`` or ``"replay"``
        self.mode: Optional[str] = None
        #: how many epochs of each tag this node has begun (the epoch
        #: index k that lines up across nodes — see the verdict ledger)
        self.epoch_seq: Dict[str, int] = {}
        self.active_seq: int = 0
        #: pair verdict ledger: (direction, tag, k) -> replay this pair's
        #: epoch-k transfers?  Written by whichever endpoint of the pair
        #: evaluates the gate first (into both engines), read by the other.
        self._verdicts: Dict[Tuple[int, str, int], bool] = {}
        # -- statistics (read by tests and benchmarks) ---------------------
        self.epochs_learned = 0
        self.epochs_replayed = 0
        self.replayed_transfers = 0
        self.interpreted_fallbacks = 0
        self.invalidations = 0
        #: tags compiled and not invalidated since (a finalized job's
        #: stay counted: the statistics say what was done, not what is held)
        self.compiled_tags = 0

    # -- epoch bracketing ---------------------------------------------------
    def begin_epoch(self, tag: str) -> None:
        if not self.enabled:
            return
        if self.active_tag is not None:
            raise ProtocolError(
                f"node {self.scu.node_id}: hot epoch {self.active_tag!r} "
                f"still active when {tag!r} begins"
            )
        self.active_tag = tag
        self.active_seq = self.epoch_seq.get(tag, 0) + 1
        self.epoch_seq[tag] = self.active_seq
        if self._verdicts:
            # Prune stale verdicts: anything older than the previous epoch
            # of this tag can no longer be consulted by either endpoint
            # (the neighbour is at most one epoch behind — rendezvous).
            keep = self.active_seq - 1
            self._verdicts = {
                key: v
                for key, v in self._verdicts.items()
                if key[1] != tag or key[2] >= keep
            }
        rec = self.records.get(tag)
        if rec is not None and rec.uncompilable is not None:
            self.mode = None
        elif rec is not None and rec.compiled:
            self.mode = "replay"
        else:
            # no record, or a half-learned one from an aborted epoch
            self.records[tag] = EpochRecord(tag)
            self.mode = "learn"

    def end_epoch(self, tag: str) -> None:
        if not self.enabled:
            return
        if self.active_tag != tag:
            raise ProtocolError(
                f"node {self.scu.node_id}: end of hot epoch {tag!r} but "
                f"{self.active_tag!r} is active"
            )
        if self.mode == "learn":
            rec = self.records.get(tag)
            if rec is not None:
                if rec.pending:
                    rec.uncompilable = "transfer outlived its learning epoch"
                elif rec.uncompilable is None:
                    rec.compiled = True
                    self.epochs_learned += 1
                    self.compiled_tags += 1
        elif self.mode == "replay":
            self.epochs_replayed += 1
        self.active_tag = None
        self.mode = None

    def invalidate(self, reason: str) -> None:
        """Drop every compiled record; the next epoch per tag relearns."""
        if not self.enabled or (not self.records and self.active_tag is None):
            return
        self.compiled_tags -= sum(rec.compiled for rec in self.records.values())
        self.records.clear()
        self.invalidations += 1
        # Mid-epoch invalidation: stop learning/replaying further transfers
        # this epoch (transfers already replayed run on in their units).
        self.mode = None
        self._retract_verdicts()

    def _retract_verdicts(self) -> None:
        """Drop the pair verdicts on both ends of every wire pair, so that
        neighbours re-evaluate (cross-shard pairs never hold any)."""
        self._verdicts.clear()
        for direction, (peer_scu, arrival) in self.scu.peers.items():
            link = self.scu.out_links.get(direction)
            if link is None or link.cross_shard is not None:
                continue  # never touch a cross-shard twin's state
            eng = peer_scu.replay
            if eng is not None and eng._verdicts:
                eng._verdicts = {
                    key: v
                    for key, v in eng._verdicts.items()
                    if key[0] != arrival
                }

    #: what :meth:`boot_reset` keeps, and :meth:`stats` reports
    _RESET_KEPT = (
        "epochs_learned",
        "epochs_replayed",
        "replayed_transfers",
        "interpreted_fallbacks",
        "invalidations",
        "compiled_tags",
    )

    def boot_reset(self) -> None:
        """Forget what a job taught the engine — the epoch indices too:
        nodes of different histories must key their ledgers alike."""
        self.records.clear()
        self.epoch_seq.clear()
        self.active_tag = None
        self.active_seq = 0
        self.mode = None
        self._retract_verdicts()

    # -- learning -----------------------------------------------------------
    def observe(self, kind, direction, descriptor, group, batch, event) -> None:
        """Record one interpreted stored transfer of a learning epoch."""
        if self.mode != "learn":
            return
        rec = self.records.get(self.active_tag)
        if rec is None or rec.uncompilable is not None:
            return
        if kind == "send":
            unit = self.scu.send_units[direction]
            snap = (unit.payload_words, unit.acks_received, unit.resends)
        else:
            unit = self.scu.recv_units[direction]
            snap = (
                unit.payload_words,
                unit.acks_sent,
                unit.parity_errors + unit.resend_requests,
            )
        rec.pending += 1
        event.add_callback(
            lambda ev: self._learn_done(
                rec, kind, direction, descriptor, group, batch, unit, snap, ev
            )
        )

    def _learn_done(
        self, rec, kind, direction, descriptor, group, batch, unit, snap, event
    ) -> None:
        rec.pending -= 1
        if rec.uncompilable is not None:
            return
        if not event.ok:
            rec.uncompilable = "transfer failed during learning epoch"
            return
        dp = unit.payload_words - snap[0]
        da = (unit.acks_received if kind == "send" else unit.acks_sent) - snap[1]
        if kind == "send":
            derr = unit.resends - snap[2]
        else:
            derr = unit.parity_errors + unit.resend_requests - snap[2]
        if derr != 0:
            rec.uncompilable = "resends/parity errors during learning epoch"
        elif da != 1:
            rec.uncompilable = "multi-frame transfer (batch below face size)"
        elif dp != descriptor.total_words:
            rec.uncompilable = "partial transfer during learning epoch"
        else:
            rec.transfers[(kind, direction)] = _TransferSig(
                descriptor, group, batch
            )

    # -- replay -------------------------------------------------------------
    def try_transfer(self, kind, direction, descriptor, group, batch):
        """Replay one stored transfer, or return ``None`` to interpret it."""
        if self.mode != "replay":
            return None
        rec = self.records[self.active_tag]
        sig = rec.transfers.get((kind, direction))
        if sig is None:
            # the learning epoch never saw this transfer: schedule changed
            # without an invalidation — engine invariant broken
            raise ProtocolError(
                f"node {self.scu.node_id}: compiled epoch "
                f"{self.active_tag!r} has no ({kind}, {direction}) transfer"
            )
        if (
            sig.desc_id != id(descriptor)
            or sig.group != group
            or sig.batch != batch
        ):
            raise ProtocolError(
                f"node {self.scu.node_id}: stored ({kind}, {direction}) "
                "descriptor changed without invalidating the compiled epoch"
            )
        if not self._pair_verdict(direction):
            self.interpreted_fallbacks += 1
            return None
        self.replayed_transfers += 1
        if kind == "send":
            return self._replay_send(direction, descriptor, sig)
        return self._replay_recv(direction, descriptor, sig)

    def _pair_verdict(self, direction) -> bool:
        """One replay-vs-interpret verdict per wire pair per epoch index.

        The two nodes of a pair reach the same logical epoch at different
        simulation times, so any gate evaluated independently at each end
        can disagree (one neighbour may still be learning when the other
        starts replaying — an asymmetry that deadlocks).  Instead, the
        first endpoint to touch the pair in its k-th epoch evaluates the
        gate once and stores the verdict in *both* engines' ledgers; the
        other endpoint reads it back.  A transfer's matched send and
        receive therefore always agree.
        """
        scu = self.scu
        pair = scu.peers.get(direction)
        if pair is None:
            return False
        peer_scu, arrival = pair
        # Structural screen before touching any ledger: cross-shard pairs
        # never replay and their peer objects are stale fork twins whose
        # state must not be written.
        my_link = scu.out_links.get(direction)
        peer_link = peer_scu.out_links.get(arrival)
        if (
            my_link is None
            or my_link.cross_shard is not None
            or peer_link is None
            or peer_link.cross_shard is not None
        ):
            return False
        peer_engine = peer_scu.replay
        key = (direction, self.active_tag, self.active_seq)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._evaluate_pair(
                peer_scu, peer_engine, my_link, peer_link
            )
            self._verdicts[key] = verdict
            peer_engine._verdicts[
                (arrival, self.active_tag, self.active_seq)
            ] = verdict
        return verdict

    def _evaluate_pair(self, peer_scu, peer_engine, my_link, peer_link) -> bool:
        """The gate proper, evaluated once per (pair, tag, epoch index)."""
        if self.scu.watchdog_enabled or peer_scu.watchdog_enabled:
            return False
        if not peer_engine.enabled:
            return False
        peer_rec = peer_engine.records.get(self.active_tag)
        if peer_rec is None or not peer_rec.compiled or peer_rec.uncompilable:
            return False
        for link in (my_link, peer_link):
            if (
                not link.healthy
                or not link.trained
                or link.bit_error_rate > 0.0
            ):
                return False
        return True

    # -- a replayed transfer: the units' state, the wire's timeline ----------
    def _replay_send(self, direction, descriptor, sig):
        scu = self.scu
        unit = scu.send_units[direction]
        done = unit.claim(scu.memory_read(descriptor.buffer, sig.indices))
        scu.sim.schedule(scu.asic.first_word_delay, self._tx_data, unit, done)
        return scu.dma_claim(done, "send", direction, descriptor)

    def _replay_recv(self, direction, descriptor, sig):
        scu = self.scu
        unit = scu.recv_units[direction]
        for words in unit.claim(descriptor, sig.indices):
            self._accept(unit, words)  # the payload got here first
        return scu.dma_claim(unit.done, "recv", direction, descriptor)

    @hot_path
    def _tx_data(self, unit, done) -> None:
        """DMA fetch + injection are over: clock the one data frame out."""
        if unit.done is not done:
            return  # cancelled before its first bit
        scu, asic, words = self.scu, self.scu.asic, unit.words
        n = len(words)
        unit.next = n
        unit.wire_words += n
        peer_scu, _arrival = scu.peers[unit.direction]
        scu.out_links[unit.direction].carry(
            asic.frame_header_bits + n * asic.frame_payload_bits,
            _NORMAL,
            0,
            n,
            peer_scu.replay._rx_data,
            unit,
        )

    @hot_path
    def _rx_data(self, sender) -> None:
        """``sender``'s frame lands on this node: accept it into the
        posted descriptor, or park it in the idle-receive registers."""
        scu = self.scu
        unit = scu.recv_units[sender.scu.peers[sender.direction][1]]
        if scu._draining:
            scu.drained_frames += 1  # frame of a cancelled transfer
            return
        if unit.descriptor is None:
            unit.park(sender.words)
        else:
            self._accept(unit, sender.words)

    @hot_path
    def _accept(self, unit, words) -> None:
        """Payload meets descriptor: store it, ACK it, let it drain."""
        scu, n = self.scu, len(words)
        scu.memory_write(unit.descriptor.buffer, unit._indices, words)
        unit.write_cursor += n
        unit.payload_words += n
        unit.checksum.update(words)  # acknowledged: summed at both ends
        unit.acks_sent += 1
        # The ACK travels on this node's out-wire toward the sender.
        peer_scu, back = scu.peers[unit.direction]
        scu.out_links[unit.direction].carry(
            scu.asic.frame_header_bits,
            _ACK,
            n,
            0,
            peer_scu.replay._rx_ack,
            peer_scu.send_units[back],
        )
        unit.wire_done()

    @hot_path
    def _rx_ack(self, unit) -> None:
        """The ACK lands back at the sender: sum the words it acknowledges,
        then clock out the trailing EOT (nothing at the far end reads it)
        and finish when it has left — unless the transfer was cancelled."""
        scu, n = self.scu, len(unit.words)
        unit.acks_received += 1
        unit.base = n
        unit.checksum.update(unit.words)
        if scu._draining:
            return
        free_at = scu.out_links[unit.direction].carry(
            scu.asic.frame_header_bits, _EOT, n, 0, None, None
        )
        scu.sim.schedule(free_at - scu.sim.now, unit.finish, unit.done)

    # -- statistics ----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._RESET_KEPT}
