"""The sharded discrete-event engine.

:class:`ShardedSimulator` partitions one simulation into ``n_shards``
*lanes*, each with its own ``(time, seq)`` event heap, and advances them
in conservative lockstep windows (see :mod:`repro.sim.sync` for the
lookahead argument).  It is API-compatible with
:class:`repro.sim.core.Simulator` — events, timeouts, processes and
conditions work unchanged — plus:

* :meth:`context` — route subsequent ``schedule()`` calls to a given
  shard (the machine layer wraps per-node setup in the node's shard);
* ``run(stop=...)`` — a barrier-granularity stop predicate evaluated by
  the window coordinator (how a sharded ``run_partition`` terminates
  without a cross-shard ``AllOf``);
* :meth:`run_forked` — execute the same window protocol with one forked
  OS process per shard, exchanging posts/notifications over pipes and
  merging per-shard machine state back from snapshots at the end.

Determinism contract
--------------------
Within a lane, events execute in ``(time, seq)`` order exactly like the
single-heap engine.  Across lanes, the window protocol preserves *time*
order for anything further apart than the lookahead; simultaneous
events on different shards are delivered in the pinned ``(time,
src_shard, src_seq)`` barrier order (coordinator posts first, see
:data:`repro.sim.sync.COORDINATOR`), so a given configuration replays
bit-identically run over run.  Observable equivalence with ``shards=1``
(counters, residuals, trace multisets) is the property the
``tests/test_sim_sharding.py`` suite locks down.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.sim.core import Event, Simulator
from repro.sim.sync import CrossShardRouter, ShardPost
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

#: seconds the fork coordinator waits on a worker pipe before declaring
#: the worker hung (a backstop against protocol bugs, not a tuning knob)
_WORKER_TIMEOUT = 120.0


class ShardLane:
    """One shard's event heap: a ``(time, seq, fn, args)`` min-heap.

    Times are absolute.  ``seq`` is per-lane and, together with the
    lane index carried by cross-shard posts, realises the global
    ``(time, seq, shard)`` total order for ties.
    """

    __slots__ = ("index", "heap", "now", "seq", "events_processed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self.now = 0.0
        self.seq = 0
        self.events_processed = 0

    def push_abs(self, time: float, fn: Callable[..., None], args: tuple) -> None:
        heappush(self.heap, (time, self.seq, fn, args))
        self.seq += 1

    def peek(self) -> float:
        return self.heap[0][0] if self.heap else float("inf")

    def clear(self) -> None:
        self.heap = []

    def __repr__(self) -> str:
        return f"ShardLane({self.index}, pending={len(self.heap)})"


class _ShardContext:
    """Context manager pushing a target shard for ``schedule()`` routing."""

    __slots__ = ("sim", "shard")

    def __init__(self, sim: "ShardedSimulator", shard: int) -> None:
        self.sim = sim
        self.shard = shard

    def __enter__(self) -> "_ShardContext":
        self.sim._ctx_stack.append(self.shard)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.sim._ctx_stack.pop()


class ShardedSimulator(Simulator):
    """A :class:`Simulator` whose heap is partitioned into window-synced
    shard lanes."""

    def __init__(self, n_shards: int, lookahead: float) -> None:
        super().__init__()
        if n_shards < 1:
            raise SimulationError(f"need >= 1 shard, got {n_shards}")
        if lookahead <= 0.0:
            raise SimulationError(f"lookahead must be positive, got {lookahead}")
        self.lookahead = float(lookahead)
        self._lanes = [ShardLane(i) for i in range(int(n_shards))]
        self.router = CrossShardRouter(int(n_shards), self._current_shard)
        self._ctx_stack: List[int] = []
        self._exec_lane: Optional[ShardLane] = None
        #: the executing event's timestamp — the causal "now" regardless
        #: of which lane a context manager is currently targeting
        self._event_time: Optional[float] = None
        #: committed time between runs (max lane time reached so far)
        self._committed = 0.0
        #: hooks the machine layer installs for :meth:`run_forked`
        #: ("snapshot", "apply", "ctrl")
        self.fork_hooks: Dict[str, Any] = {}

    # -- identity ---------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._lanes)

    @property
    def lanes(self) -> List[ShardLane]:
        return self._lanes

    @property
    def events_processed(self) -> int:
        return sum(lane.events_processed for lane in self._lanes)

    def _current_shard(self) -> int:
        if self._ctx_stack:
            return self._ctx_stack[-1]
        if self._exec_lane is not None:
            return self._exec_lane.index
        return 0

    @property
    def current_shard(self) -> int:
        return self._current_shard()

    def context(self, shard: int) -> _ShardContext:
        """Route ``schedule()`` calls in the ``with`` body to ``shard``."""
        if not 0 <= shard < len(self._lanes):
            raise SimulationError(
                f"shard {shard} out of range ({len(self._lanes)} shards)"
            )
        return _ShardContext(self, shard)

    # -- time & scheduling -------------------------------------------------
    @property
    def now(self) -> float:
        """The executing event's time, or the committed barrier time."""
        if self._event_time is not None:
            return self._event_time
        return self._committed

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now, on the current
        shard (context stack > executing lane > shard 0)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._lanes[self._current_shard()].push_abs(self.now + delay, fn, args)

    # -- stepping ----------------------------------------------------------
    def peek(self) -> float:
        return min(lane.peek() for lane in self._lanes)

    def _run_lane(self, lane: ShardLane, horizon: float) -> None:
        """Drain one lane's events strictly below ``horizon`` (hot loop)."""
        heap = lane.heap
        self._exec_lane = lane
        processed = 0
        try:
            while heap and heap[0][0] < horizon:
                time, _seq, fn, args = heappop(heap)
                lane.now = time
                self._event_time = time
                processed += 1
                fn(*args)
        finally:
            lane.events_processed += processed
            self._exec_lane = None
            self._event_time = None

    # -- the serial window loop -------------------------------------------
    def run(
        self,
        until: Optional[Event] = None,
        max_time: float = float("inf"),
        stop: Optional[Callable[[], bool]] = None,
    ) -> Any:
        """Run conservative windows until ``until`` triggers, ``stop()``
        holds at a barrier, every lane drains, or ``max_time``.

        ``until``/``stop`` are only evaluated at window barriers: the
        sharded engine commits to whole windows, so it may process a few
        events *past* the exact trigger instant that the single-heap
        engine would not have — compare observables after a full drain
        (:meth:`repro.machine.machine.QCDOCMachine.quiesce`) when
        bit-identity matters.
        """
        if until is not None and until.triggered:
            return until.value
        while True:
            if stop is not None and stop():
                self._commit()
                return None
            start = self.peek()
            if start == float("inf"):
                # Lanes drained mid-window with traffic possibly still
                # buffered in the router (e.g. a notification recorded by
                # the last event): flush it before judging deadlock — it
                # may wake a lane or satisfy the stop predicate.
                self._barrier()
                start = self.peek()
                if stop is not None and stop():
                    self._commit()
                    return None
            if start == float("inf"):
                self._commit()
                if until is not None and until.triggered:
                    return until.value
                if until is not None:
                    raise SimulationError(
                        f"deadlock: event heap drained at t={self._committed} "
                        "with target pending"
                    )
                if stop is not None:
                    raise SimulationError(
                        f"deadlock: event heap drained at t={self._committed} "
                        "with stop condition unmet"
                    )
                return None
            if start > max_time:
                raise SimulationError(
                    f"simulation exceeded time horizon {max_time} s "
                    f"at t={self._committed}"
                )
            horizon = start + self.lookahead
            for lane in self._lanes:
                self._run_lane(lane, horizon)
            self._barrier()
            if until is not None and until.triggered:
                self._commit()
                return until.value

    def _barrier(self) -> None:
        """Exchange the window's cross-shard traffic (serial executor)."""
        posts, notes = self.router.drain()
        self.router.dispatch_notes(notes)
        late = self.router.drain_coordinator()
        if late:
            # each box comes sorted; only their union needs sorting
            posts = sorted(posts + late, key=lambda p: p.order)
        for post in posts:
            self.router.deliver(post, self._lanes[post.target_shard])

    def _commit(self) -> None:
        self._committed = max(
            [self._committed] + [lane.now for lane in self._lanes]
        )

    # -- the forked window loop -------------------------------------------
    def run_forked(
        self,
        stop: Callable[[], bool],
        max_time: float = float("inf"),
        ctrl_for_stop: Optional[Callable[[], List[str]]] = None,
    ) -> None:
        """Run the window protocol with one forked worker per shard.

        Workers inherit the fully-built simulation by copy-on-write and
        each executes only its own lane; the parent is the barrier
        coordinator (it routes posts, dispatches notifications, and owns
        the stop predicate).  Once ``stop()`` holds the coordinator
        issues the ``ctrl_for_stop()`` control hooks (e.g. ``"abort"``)
        and keeps running windows until every lane drains, then gathers
        per-shard state snapshots and applies them to the parent via the
        machine-installed :attr:`fork_hooks` — the parent's lanes are
        discarded (the run is fully quiesced by construction).

        Requires ``os.fork`` (POSIX); the machine layer falls back to
        the serial executor elsewhere.
        """
        import multiprocessing as mp

        hooks = self.fork_hooks
        if not hooks.get("snapshot") or not hooks.get("apply"):
            raise SimulationError(
                "run_forked needs machine snapshot/apply fork_hooks"
            )
        lanes = self._lanes
        n = len(lanes)
        conns = []
        pids = []
        for k in range(n):
            parent_conn, child_conn = mp.Pipe()
            pid = os.fork()
            if pid == 0:
                # -- worker process: runs lane k only, then exits --------
                try:
                    parent_conn.close()
                    self._fork_worker(k, child_conn)
                except BaseException:
                    import traceback

                    try:
                        child_conn.send(("err", traceback.format_exc()))
                    except OSError:
                        pass  # parent gone; its pipe timeout reports us
                finally:
                    os._exit(0)
            child_conn.close()
            conns.append(parent_conn)
            pids.append(pid)
        try:
            self._fork_coordinate(conns, stop, max_time, ctrl_for_stop)
        finally:
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass  # already closed by a worker error path
            for pid in pids:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass

    def _fork_recv(self, conn: "Connection") -> tuple:
        if not conn.poll(_WORKER_TIMEOUT):
            raise SimulationError("fork worker stalled (pipe timeout)")
        msg = conn.recv()
        if msg[0] == "err":
            raise SimulationError(f"fork worker died:\n{msg[1]}")
        return msg

    def _fork_coordinate(
        self,
        conns: List["Connection"],
        stop: Callable[[], bool],
        max_time: float,
        ctrl_for_stop: Optional[Callable[[], List[str]]],
    ) -> None:
        n = len(conns)
        peeks = [lane.peek() for lane in self._lanes]
        pending: List[List[ShardPost]] = [[] for _ in range(n)]
        pending_ctrls: List[str] = []
        draining = False
        while True:
            if not draining and stop():
                draining = True
                if ctrl_for_stop is not None:
                    pending_ctrls = list(ctrl_for_stop())
            effective = [
                min(
                    peeks[k],
                    min((p.time for p in pending[k]), default=float("inf")),
                )
                for k in range(n)
            ]
            start = min(effective)
            if start == float("inf"):
                if draining:
                    break
                raise SimulationError(
                    "deadlock: event heap drained with stop condition unmet"
                )
            if start > max_time:
                raise SimulationError(
                    f"simulation exceeded time horizon {max_time} s "
                    f"at t={self._committed}"
                )
            horizon = start + self.lookahead
            for k in range(n):
                conns[k].send(("win", horizon, pending[k], pending_ctrls))
                pending[k] = []
            pending_ctrls = []
            posts: List[ShardPost] = []
            notes = []
            for k in range(n):
                _tag, peek_k, posts_k, notes_k = self._fork_recv(conns[k])
                peeks[k] = peek_k
                posts.extend(posts_k)
                notes.extend(notes_k)
            self.router.dispatch_notes(sorted(notes, key=lambda m: m.order))
            posts.extend(self.router.drain_coordinator())
            for post in sorted(posts, key=lambda p: p.order):
                pending[post.target_shard].append(post)
        # -- gather: per-shard snapshots back into the parent ------------
        snaps = []
        for k in range(n):
            conns[k].send(("snap",))
            _tag, snap, lane_now, lane_events = self._fork_recv(conns[k])
            snaps.append((k, snap, lane_now))
            # the parent's COW lane counter stopped at the fork point;
            # adopt the worker's (it includes the pre-fork events)
            self._lanes[k].events_processed = lane_events
        for k in range(n):
            conns[k].send(("exit",))
        self.fork_hooks["apply"](snaps)
        for lane in self._lanes:
            lane.clear()
        self._committed = max(
            [self._committed] + [lane_now for _k, _s, lane_now in snaps]
        )

    def _fork_worker(self, k: int, conn: "Connection") -> None:
        lane = self._lanes[k]
        ctrl_hooks = self.fork_hooks.get("ctrl", {})
        while True:
            msg = conn.recv()
            if msg[0] == "win":
                _tag, horizon, posts, ctrls = msg
                for name in ctrls:
                    with self.context(k):
                        ctrl_hooks[name](k)
                for post in posts:
                    self.router.deliver(post, lane)
                self._run_lane(lane, horizon)
                posts_out, notes_out = self.router.drain()
                conn.send(("done", lane.peek(), posts_out, notes_out))
            elif msg[0] == "snap":
                conn.send(
                    (
                        "snap",
                        self.fork_hooks["snapshot"](k),
                        lane.now,
                        lane.events_processed,
                    )
                )
            elif msg[0] == "exit":
                conn.close()
                return
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown fork command {msg[0]!r}")
