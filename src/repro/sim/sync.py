"""Conservative window synchronisation for the sharded event engine.

The sharded simulator (:mod:`repro.sim.shard`) advances every shard in
lockstep *windows* ``[T, T + W)`` where ``T`` is the globally earliest
pending event and ``W`` is the **conservative lookahead**: the minimum
simulated time any cross-shard influence needs to take effect.  For the
QCDOC mesh that bound is physical — the shortest thing that can cross a
shard boundary is a bare-header HSSL frame, so ``W`` is its serialisation
plus time of flight, computed in one place
(:meth:`repro.machine.asic.ASICConfig.shard_lookahead`; 26 ns at the
500 MHz design point) and handed to the simulator by the machine.  Every
frame transmitted during a window is
therefore delivered at ``>= T + W``, i.e. strictly after the window — so
shards can process their local events for the window independently and
exchange the buffered cross-shard traffic at the barrier without ever
violating causality.  Global-sum completions are safe for the same
reason with margin: one reduction takes at least a full 72-bit word
serialisation (144 ns), which exceeds ``W``.

This module is the machinery *below* the machine layer (it must not
import :mod:`repro.machine` — see the REPRO403 layering DAG): typed
cross-shard posts, the per-window outbox/notification buffers, and the
:class:`CrossShardRouter` that gives every post a deterministic
``(time, src_shard, src_seq)`` total order at the barrier.  Frame and
global-sum endpoints register themselves by key; the router only ever
calls the duck-typed ``_deliver`` / coordinator hooks it is handed.

Everything that crosses a shard boundary is *data* (frames, arrays,
plain dicts) — never a closure — so the serial in-process executor and
the forked process-per-shard executor run the identical protocol.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.util.errors import SimulationError

#: ``src_shard`` value for posts injected by the barrier coordinator
#: (global-sum completions): sorts *before* every worker shard at equal
#: time, which pins the cross-shard tie order.
COORDINATOR = -1


class ShardPost(NamedTuple):
    """One cross-shard influence, exchanged at a window barrier.

    ``kind`` selects the decoder (``"frame"`` — an HSSL frame for the
    link registered under ``key``; ``"gsum"`` — a global-sum completion
    for the engine/generation/rank in ``key``).  ``(time, src_shard,
    src_seq)`` is the deterministic delivery order for ties.
    """

    time: float
    target_shard: int
    kind: str
    key: Any
    payload: Any
    src_shard: int
    src_seq: int

    @property
    def order(self) -> Tuple[float, int, int]:
        return (self.time, self.src_shard, self.src_seq)


class Notification(NamedTuple):
    """A coordinator-bound control message (no simulated-time payload).

    Used for rank completion/fault reports, LINK_DOWN escalation and
    global-sum contributions; processed at the barrier in deterministic
    ``(src_shard, seq)`` order.
    """

    kind: str
    src_shard: int
    seq: int
    data: Dict[str, Any]

    @property
    def order(self) -> Tuple[int, int]:
        return (self.src_shard, self.seq)


class CrossShardRouter:
    """Batched cross-shard message buffers plus the endpoint registries.

    One router is shared by all shards of a :class:`ShardedSimulator`.
    During a window, lane code appends to the outbox/notification
    buffers; at the barrier the simulator drains them, dispatches the
    notifications to coordinator handlers (which may post completions
    back), and delivers every post into its target lane in ``(time,
    src_shard, src_seq)`` order.

    Under the fork executor the *same object* exists in every worker
    (copy-on-write after ``os.fork``): workers drain their local outbox
    into the pipe, the parent dispatches notifications, and posts travel
    back as data — the registries (``links``, ``engines``) were
    populated before the fork, so both sides decode identically.
    """

    def __init__(self, n_shards: int, current_shard: Callable[[], int]) -> None:
        self.n_shards = int(n_shards)
        self._current_shard = current_shard
        #: link-key -> SerialLink (duck-typed: needs ``_deliver(frame)``)
        self.links: Dict[Any, Any] = {}
        #: engine-id -> sharded global-ops engine (duck-typed: needs
        #: ``_finish_rank(key, value, emit)`` + ``_coordinator_note``)
        self.engines: Dict[int, Any] = {}
        #: (engine_id, generation, rank) -> waiter Event, registered on
        #: the contributing shard (worker-local under fork)
        self.gsum_waiters: Dict[Tuple[int, int, int], Any] = {}
        #: notification kind -> coordinator handler
        self.note_handlers: Dict[str, Callable[[Notification], None]] = {}
        self._outbox: List[ShardPost] = []
        self._notes: List[Notification] = []
        self._post_seq = 0
        self._note_seq = 0
        self._coordinator_box: List[ShardPost] = []
        self._coordinator_seq = 0

    # -- registries (populated at machine construction, pre-fork) ---------
    def register_link(self, key: Any, link: Any) -> None:
        self.links[key] = link

    def register_engine(self, engine: Any) -> int:
        engine_id = len(self.engines)
        self.engines[engine_id] = engine
        return engine_id

    # -- posting (lane side) ----------------------------------------------
    def post(self, kind: str, target_shard: int, time: float, key: Any,
             payload: Any) -> None:
        self._outbox.append(
            ShardPost(
                time,
                int(target_shard),
                kind,
                key,
                payload,
                self._current_shard(),
                self._post_seq,
            )
        )
        self._post_seq += 1

    def post_frame(self, target_shard: int, time: float, key: Any,
                   frame: Any) -> None:
        self.post("frame", target_shard, time, key, frame)

    def notify(self, kind: str, **data: Any) -> None:
        self._notes.append(
            Notification(kind, self._current_shard(), self._note_seq, data)
        )
        self._note_seq += 1

    # -- coordinator side --------------------------------------------------
    def coordinator_post(self, kind: str, target_shard: int, time: float,
                         key: Any, payload: Any) -> None:
        """Post from the barrier coordinator (e.g. a gsum completion)."""
        self._coordinator_box.append(
            ShardPost(
                time,
                int(target_shard),
                kind,
                key,
                payload,
                COORDINATOR,
                self._coordinator_seq,
            )
        )
        self._coordinator_seq += 1

    def drain(self) -> Tuple[List[ShardPost], List[Notification]]:
        """Take the window's posts and notifications, in canonical order
        (an empty box is taken as it is: most barriers carry nothing)."""
        posts = sorted(self._outbox, key=lambda p: p.order) if self._outbox else []
        notes = sorted(self._notes, key=lambda n: n.order) if self._notes else []
        self._outbox = []
        self._notes = []
        return posts, notes

    def drain_coordinator(self) -> List[ShardPost]:
        if not self._coordinator_box:
            return []
        posts = sorted(self._coordinator_box, key=lambda p: p.order)
        self._coordinator_box = []
        return posts

    def dispatch_notes(self, notes: List[Notification]) -> None:
        """Run the coordinator handlers over a barrier's notifications.

        ``notes`` must already be in canonical ``(src_shard, seq)`` order
        (:meth:`drain` returns them so).  Unhandled kinds are an error:
        a silently dropped control message is exactly the kind of
        nondeterminism this layer exists to forbid.
        """
        for note in notes:
            handler = self.note_handlers.get(note.kind)
            if handler is None:
                raise SimulationError(
                    f"no coordinator handler for cross-shard notification "
                    f"{note.kind!r}"
                )
            handler(note)

    # -- delivery (target-lane side) --------------------------------------
    def deliver(self, post: ShardPost, lane: Any) -> None:
        """Decode one post into a heap entry on its target lane."""
        if post.kind == "frame":
            link = self.links.get(post.key)
            if link is None:
                raise SimulationError(
                    f"cross-shard frame for unregistered link {post.key!r}"
                )
            lane.push_abs(post.time, link._deliver, (post.payload,))
        elif post.kind == "gsum":
            engine = self.engines.get(post.key[0])
            if engine is None:
                raise SimulationError(
                    f"cross-shard gsum for unregistered engine {post.key[0]!r}"
                )
            value, emit = post.payload
            lane.push_abs(post.time, engine._finish_rank, (post.key, value, emit))
        else:
            raise SimulationError(f"unknown cross-shard post kind {post.kind!r}")
