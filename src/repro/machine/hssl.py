"""HSSL: the bit-serial physical link layer.

Paper section 2.2: "The fundamental physical link ... is a bit-serial
connection between neighboring nodes ... run at the same clock speed as the
processor.  When powered on and released from reset, these HSSL controllers
transmit a known byte sequence between the sender and receiver on the link,
establishing optimal times for sampling the incoming bit stream and
determining where the byte boundaries are.  Once trained, the HSSL
controllers exchange so-called idle bytes when data transmission is not
being done."

A :class:`SerialLink` is **unidirectional**; the mesh instantiates two per
neighbour pair per axis.  It serialises frames one at a time (it is a single
wire), delivers them after serialisation + time-of-flight, and can inject
single-bit faults from a deterministic RNG stream for the resend-protocol
experiments (E14).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.machine.asic import ASICConfig
from repro.machine.packets import Frame
from repro.sim.core import Event, Simulator
from repro.sim.trace import Trace
from repro.util.errors import ProtocolError
from repro.util.hotpath import hot_path


class SerialLink:
    """One unidirectional bit-serial wire between two SCUs.

    Parameters
    ----------
    bit_error_rate:
        Probability per wire bit of a flip; applied per frame with a
        deterministic RNG so fault-injection runs are reproducible.
    """

    def __init__(
        self,
        sim: Simulator,
        asic: ASICConfig,
        name: str = "link",
        trace: Optional[Trace] = None,
        error_rng: Optional[np.random.Generator] = None,
        bit_error_rate: float = 0.0,
    ):
        self.sim = sim
        self.asic = asic
        self.name = name
        self.trace = trace
        self.error_rng = error_rng
        self.bit_error_rate = float(bit_error_rate)
        self.trained = False
        self._receiver: Optional[Callable[[Frame], None]] = None
        self._busy_until = 0.0
        self.frames_sent = 0
        self.bits_sent = 0
        self.faults_injected = 0
        #: seconds the wire spent clocking bits (busy time, for utilisation)
        self.busy_seconds = 0.0
        # -- permanent fault state (vs the transient flips above) ----------
        #: ``False`` once the cable is cut or the far end is dead: frames
        #: clock out of the sender normally but are never delivered.
        self.alive = True
        #: stuck-at fault: every payload frame arrives corrupt, so the
        #: receiver requests a resend of the same word forever.
        self.stuck = False
        #: frames that vanished into a dead cable
        self.frames_dropped = 0
        #: frames clocked out but not yet handed to the receiver — the
        #: wire's contribution to quiescence (a cancelled transfer's
        #: frames are still *on the wire* after the units reset, and a
        #: partition must not be reallocated until they have landed and
        #: been discarded by the drain filter)
        self.in_transit = 0
        #: ``(router, dst_shard, key)`` when this wire crosses a shard
        #: boundary of a sharded simulator (set by
        #: :meth:`repro.machine.network.MeshNetwork.bind_shards`):
        #: deliveries are then posted through the window barrier instead
        #: of scheduled directly.  ``None`` = same-shard (the seed path).
        self.cross_shard = None

    # -- permanent faults --------------------------------------------------
    def fail(self, mode: str = "dead") -> None:
        """Inject a *permanent* fault: ``"dead"`` (no delivery) or
        ``"stuck"`` (every payload frame corrupt).

        Unlike the transient ``bit_error_rate`` flips — which the SCU's
        automatic-resend protocol absorbs — a permanent fault can only be
        cleared by hardware replacement; the simulator never un-fails a
        link.  The SCU watchdog is what turns this condition into a
        :class:`~repro.util.errors.LinkDownError`.
        """
        if mode == "dead":
            self.alive = False
        elif mode == "stuck":
            self.stuck = True
        else:
            raise ProtocolError(f"unknown permanent link-fault mode {mode!r}")
        if self.trace is not None:
            self.trace.emit("link.down", link=self.name, mode=mode)

    @property
    def healthy(self) -> bool:
        """Usable for data: alive, not stuck-at."""
        return self.alive and not self.stuck

    # -- wiring -----------------------------------------------------------
    def set_receiver(self, callback: Callable[[Frame], None]) -> None:
        self._receiver = callback

    # -- training -----------------------------------------------------------
    def train(self) -> Event:
        """Run the training byte exchange; succeeds when the link is usable.

        A dead cable never completes training (the known byte sequence
        never arrives): the returned event stays pending forever, which is
        why bring-up must skip links already known dead.
        """
        done = self.sim.event()
        if self.alive:
            self.sim.schedule(self.asic.training_time, self.finish_training, done)
        return done

    def finish_training(self, done: Optional[Event] = None) -> None:
        """The training sequence has run its length: a cable still alive
        is usable from now on (and ``done``, if given, succeeds)."""
        if not self.alive:
            return  # died while training
        self.trained = True
        if self.trace is not None:
            self.trace.emit("link.trained", link=self.name)
        if done is not None:
            done.succeed()

    # -- transmission ---------------------------------------------------------
    @hot_path
    def transmit(self, frame: Frame) -> float:
        """Serialise a frame onto the wire.

        Returns the time at which the *sender* has finished clocking the
        frame out (the wire is then free for the next frame); a sender
        that must not run ahead of its wire sleeps until then, a control
        frame (ACK, RESEND, partition IRQ) is queued and forgotten.
        Delivery to the receiver happens ``wire_latency`` later.
        """
        if not self.trained:
            raise ProtocolError(f"{self.name}: transmit before HSSL training")
        if self._receiver is None:
            raise ProtocolError(f"{self.name}: no receiver attached")

        asic, nwords = self.asic, frame.nwords
        bits = frame.wire_bits(asic.frame_header_bits, asic.frame_payload_bits)
        if self.stuck and nwords > 0 and frame.corrupt_bit is None:
            # Stuck-at fault: the same wire bit is pinned, so every payload
            # frame fails its header-code/parity check at the receiver.
            frame.corrupt_bit = 0
            self.faults_injected += 1
        elif (
            self.error_rng is not None
            and self.bit_error_rate > 0.0
            and nwords > 0
            and self.error_rng.random() < self.bit_error_rate * bits
        ):
            frame.corrupt_bit = int(self.error_rng.integers(0, bits))
            self.faults_injected += 1
            if self.trace is not None:
                self.trace.emit(
                    "link.fault", link=self.name, bit=frame.corrupt_bit, seq=frame.seq
                )
        return self.carry(
            bits, frame.ptype, frame.seq, nwords, self._receiver, frame
        )

    @hot_path
    def carry(self, bits: int, ptype, seq: int, nwords: int, land, cargo) -> float:
        """The wire itself: every time a frame spends on it is computed here.

        Clocks ``bits`` out behind whatever the wire is still busy with
        and returns the time it is free again; on a live cable
        ``land(cargo)`` runs one time of flight after the last bit, under
        :meth:`_land`'s arrival bookkeeping.  :meth:`transmit` ends here
        (the frame as cargo, the far SCU's dispatcher as ``land``) and
        compiled replay (:mod:`repro.machine.replay`) sends its legs
        through the same call, so the two timelines cannot differ.
        ``land=None`` is a leg nothing at the far end reads (replay's
        trailing EOT): it occupies the wire and flies only where its
        arrival is traced.  ``ptype``/``seq``/``nwords`` describe the
        frame to the ``link.deliver`` record.
        """
        sim, asic = self.sim, self.asic
        now = start = sim.now
        if self._busy_until > now:
            start = self._busy_until  # queue behind the frame being clocked
        serialised = start + bits / asic.clock_hz
        self._busy_until = serialised
        self.frames_sent += 1
        self.bits_sent += bits
        self.busy_seconds += serialised - start
        if not self.alive:
            # Dead cable: the sender clocks the bits out normally (it has
            # no way to know) but nothing arrives at the far end.
            self.frames_dropped += 1
        elif land is not None or self.trace is not None:
            arrival = serialised - now + asic.wire_latency
            self.in_transit += 1
            if self.cross_shard is None:
                sim.schedule(arrival, self._land, ptype, seq, nwords, land, cargo)
            else:
                # Crossing a shard boundary: batched into the window
                # barrier.  ``arrival >= shard_lookahead`` always (at
                # minimum one bare header + time of flight), so the
                # delivery lands beyond the current window's horizon.
                router, dst_shard, key = self.cross_shard
                router.post_frame(dst_shard, now + arrival, key, cargo)
        return serialised

    @hot_path
    def _land(self, ptype, seq: int, nwords: int, land, cargo) -> None:
        self.in_transit -= 1
        if not self.alive:
            # The cable died while this frame was in flight.
            self.frames_dropped += 1
            return
        if self.trace is not None:
            self.trace.emit(
                "link.deliver", link=self.name, ptype=ptype.name, seq=seq, nwords=nwords
            )
        if land is not None:
            land(cargo)

    @hot_path
    def _deliver(self, frame: Frame) -> None:
        """A frame that crossed a shard boundary lands (barrier entry)."""
        self._land(frame.ptype, frame.seq, frame.nwords, self._receiver, frame)

    # -- fork-executor state transfer ---------------------------------------
    #: plain-value attributes a forked shard worker owns and ships home
    _SNAPSHOT_ATTRS = (
        "trained",
        "_busy_until",
        "frames_sent",
        "bits_sent",
        "faults_injected",
        "busy_seconds",
        "alive",
        "stuck",
        "frames_dropped",
        "in_transit",
    )

    #: live-heap-only state (REPRO504): the receiver callback is wired
    #: into the peer SCU's dispatcher at attach time and is re-created
    #: by topology construction, never shipped across the fork boundary
    _SNAPSHOT_TRANSIENT = ("_receiver",)

    def snapshot_state(self) -> dict:
        """Picklable wire state/counters (fork-executor gather)."""
        return {name: getattr(self, name) for name in self._SNAPSHOT_ATTRS}

    def restore_state(self, state: dict) -> None:
        for name, value in sorted(state.items()):
            setattr(self, name, value)

    def __repr__(self) -> str:
        return f"SerialLink({self.name}, trained={self.trained})"
