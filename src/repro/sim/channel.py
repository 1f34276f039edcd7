"""Shared-state primitives on top of the event kernel.

:class:`Channel` — a FIFO message queue with optional capacity and per-item
latency.  The SCU mesh links do *not* use Channel: their flow control
("three in the air", idle-receive) is modelled explicitly in
:mod:`repro.machine.scu`.

:class:`Resource` — an N-slot mutex with a FIFO wait queue.

Neither is wired into the machine: ``Channel`` has no caller under
``src/`` and ``Resource`` only :class:`repro.machine.memory.MemorySystem`,
which itself has none.  Both are exercised by their own unit and property
tests only.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, Simulator
from repro.util.errors import SimulationError


class Channel:
    """FIFO of items between producer and consumer processes.

    ``latency`` delays each item's availability after ``put``; ``capacity``
    (if given) blocks producers while the in-flight item count is at the
    limit, releasing them in FIFO order as consumers drain items.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        latency: float = 0.0,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError("channel capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.latency = latency
        #: home shard lane (sharded engine): arrival events are pinned to
        #: the lane the channel was built in, so a producer on another
        #: lane cannot drag the consumer's wake-ups across shards.  On the
        #: single-heap engine this is always 0 and ``context`` is a no-op.
        self.home = sim.current_shard
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (done-event, item)
        self._in_flight = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Offer an item; the returned event succeeds once it is accepted."""
        done = self.sim.event()
        if self.capacity is not None and self._in_flight >= self.capacity:
            self._putters.append((done, item))
        else:
            self._accept(item)
            done.succeed()
        return done

    def get(self) -> Event:
        """Request the next item; the returned event succeeds with it."""
        ev = self.sim.event()
        if self._items:
            self._release(ev)
        else:
            self._getters.append(ev)
        return ev

    # -- internals ----------------------------------------------------------
    def _accept(self, item: Any) -> None:
        self._in_flight += 1
        with self.sim.context(self.home):
            self.sim.schedule(self.latency, self._arrive, item)

    def _arrive(self, item: Any) -> None:
        self._items.append(item)
        if self._getters:
            self._release(self._getters.popleft())

    def _release(self, getter: Event) -> None:
        item = self._items.popleft()
        self._in_flight -= 1
        getter.succeed(item)
        if self._putters and (
            self.capacity is None or self._in_flight < self.capacity
        ):
            putter, pending = self._putters.popleft()
            self._accept(pending)
            putter.succeed()


class Resource:
    """N interchangeable slots with a FIFO wait queue.

    >>> req = bus.acquire()     # yield req in a process
    >>> ...                     # critical section
    >>> bus.release()
    """

    def __init__(self, sim: Simulator, slots: int = 1) -> None:
        if slots < 1:
            raise SimulationError("resource needs >= 1 slot")
        self.sim = sim
        self.slots = slots
        self._busy = 0
        self._waiters: Deque[Event] = deque()

    @property
    def busy(self) -> int:
        return self._busy

    def acquire(self) -> Event:
        ev = self.sim.event()
        if self._busy < self.slots:
            self._busy += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._busy == 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._busy -= 1
