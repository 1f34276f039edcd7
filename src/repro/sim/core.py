"""Event heap, events, and generator-based processes.

Usage sketch::

    sim = Simulator()

    def pinger(sim, link):
        yield sim.timeout(600e-9)
        link.fire("ping")

    sim.process(pinger(sim, link))
    sim.run()

A process is a generator that yields :class:`Event` objects; it is resumed
with the event's value once the event triggers (or the event's exception is
thrown into it).  A :class:`Process` is itself an event that succeeds with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.util.errors import SimulationError

#: Type of the generators that implement processes.
ProcessGen = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence with a value or an exception.

    Events start *pending*; exactly one of :meth:`succeed` or :meth:`fail`
    may be called, after which waiting callbacks run at the current
    simulation time — each in a zero-delay heap entry of its own, never
    inline: the caller may itself wait on the next event, so inline runs
    would nest without bound (two processes handing an event back and
    forth would recurse once per hand-over).  Only an event the *heap*
    triggers (:class:`Timeout`) runs its waiters in the entry that fired it.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value")

    PENDING, SUCCEEDED, FAILED = 0, 1, 2

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._state = Event.PENDING
        self._value: Any = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != Event.PENDING

    @property
    def ok(self) -> bool:
        return self._state == Event.SUCCEEDED

    @property
    def value(self) -> Any:
        if self._state == Event.PENDING:
            raise SimulationError("event value read before trigger")
        if self._state == Event.FAILED:
            raise self._value
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._value if self._state == Event.FAILED else None

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        self._trigger(Event.SUCCEEDED, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(Event.FAILED, exc)
        return self

    def _trigger(self, state: int, value: Any, from_heap: bool = False) -> None:
        if self._state != Event.PENDING:
            raise SimulationError("event triggered twice")
        self._state = state
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if from_heap:
            for cb in callbacks:  # type: ignore[union-attr]
                cb(self)
        else:
            schedule = self.sim.schedule
            for cb in callbacks:  # type: ignore[union-attr]
                schedule(0.0, cb, self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` once the event triggers (immediately-scheduled
        if it already has)."""
        if self.callbacks is None:
            self.sim.schedule(0.0, cb, self)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        sim.schedule(delay, self._trigger, Event.SUCCEEDED, value, True)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Models an asynchronous hardware interrupt (e.g. a supervisor packet
    arriving at a neighbour's CPU, paper section 2.2 item 2).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Runs a generator, resuming it each time its yielded event triggers."""

    __slots__ = ("gen", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time, after already-queued events.
        sim.schedule(0.0, self._resume, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        self.sim.schedule(0.0, self._throw, Interrupt(cause))

    # -- internals ----------------------------------------------------------
    def _resume(self, trigger: Optional[Event]) -> None:
        """The kick-off (``trigger`` None) and the callback on every awaited
        event; a wake-up an interrupt has made stale meanwhile is discarded."""
        if trigger is not self._waiting_on or self._state != Event.PENDING:
            return
        self._waiting_on = None
        if trigger is not None and trigger._state == Event.FAILED:
            self._advance(self.gen.throw, trigger._value)
        else:
            self._advance(self.gen.send, None if trigger is None else trigger._value)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        self._advance(self.gen.throw, exc)

    def _advance(self, step: Callable[[Any], Any], arg: Any) -> None:
        try:
            target = step(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.gen.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Succeeds with the first triggering child (fails if that child failed).

    Of children already triggered at construction the first in list order
    wins and nothing else is registered on; resolved by a pending child,
    it takes its callback back off the losers, so a loop waiting on what
    is left of a set leaves no stale registration behind.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        events = list(events)
        decided = next((ev for ev in events if ev.callbacks is None), None)
        super().__init__(sim, events if decided is None else [decided])

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        for ev in self.events:
            if ev is not event and ev.callbacks is not None:
                ev.callbacks.remove(self._on_child)
        if event.ok:
            self.succeed(event)
        else:
            self.fail(event.exception)  # type: ignore[arg-type]


class AllOf(_Condition):
    """Succeeds with the list of child values once every child succeeded."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([ev._value for ev in self.events])


class Simulator:
    """Deterministic event loop over a (time, seq) heap.

    Tie order: simultaneous events execute in ``seq`` (schedule) order —
    ``seq`` is unique, so the heap never compares the callback objects.
    The sharded engine (:mod:`repro.sim.shard`) extends this to a
    ``(time, seq, shard)`` total order: per-lane heaps keep ``(time,
    seq)`` and cross-shard deliveries are pinned by the barrier's
    ``(time, src_shard, src_seq)`` flush order.
    """

    #: single-shard identity (the sharded subclass overrides these, so
    #: machine code can be written against one shard-addressing API)
    n_shards = 1
    current_shard = 0
    #: heap entries executed (instance attr from the first one; the sharded
    #: subclass overrides this with a sum over its lanes): a fired timeout
    #: with the waiters it resumes is one, a ``succeed()`` is one per waiter
    events_processed = 0

    def __init__(self):
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._now = 0.0
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def context(self, shard: int) -> nullcontext:
        """Shard-routing context; a no-op on the single-heap engine."""
        if shard != 0:
            raise SimulationError(
                f"single-shard simulator has no shard {shard}"
            )
        return nullcontext()

    # -- scheduling ---------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now (FIFO within a tick)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, args))
        self._seq += 1

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- running ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled callback (inf if none)."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(
        self,
        until: Optional[Event] = None,
        max_time: float = float("inf"),
        stop: Optional[Callable[[], bool]] = None,
    ) -> Any:
        """Run until ``until`` triggers, ``stop()`` holds, the heap
        drains, or ``max_time``.

        Returns ``until.value`` when an event is given.  ``stop`` is a
        zero-argument predicate evaluated after every step — the
        single-heap twin of the sharded engine's barrier stop condition,
        so machine code driving concurrent jobs (the job-service layer)
        can be written against one API.  Raises :class:`SimulationError`
        if the heap drains with ``until`` pending or ``stop`` unmet
        (deadlock), or the time horizon is exceeded.
        """
        if until is not None and until.triggered:
            return until.value
        if stop is not None and stop():
            return None
        heap, pop = self._heap, heapq.heappop
        while heap:
            if heap[0][0] > max_time:
                raise SimulationError(
                    f"simulation exceeded time horizon {max_time} s at t={self._now}"
                )
            # counted per entry, not per run: the count is sampled from
            # outside, mid-run, as the run's progress
            self._now, _seq, fn, args = pop(heap)
            self.events_processed += 1
            fn(*args)
            if until is not None and until._state != Event.PENDING:
                return until.value
            if stop is not None and stop():
                return None
        if until is not None:
            raise SimulationError(
                f"deadlock: event heap drained at t={self._now} with target pending"
            )
        if stop is not None:
            raise SimulationError(
                f"deadlock: event heap drained at t={self._now} with stop "
                "condition unmet"
            )
        return None
