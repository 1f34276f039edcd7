"""Node-program communications API over the simulated SCU hardware.

A node program is a generator ``def program(api): ... yield api.send(...)``
running on one logical rank of a partition.  The API mirrors the paper's
user-level software (section 3.3):

* zero-copy block-strided DMA sends/receives addressed by *logical* axis
  and sign (the partition translates to a physical link direction);
* persistent ("stored") descriptors started by a single call;
* supervisor packets;
* SCU global sums (with the deterministic accumulation order that makes
  runs bit-exactly repeatable);
* ``compute(flops)`` to charge simulated CPU time for numpy-evaluated
  physics.

Per-axis completion events
--------------------------
``start_stored()`` still returns one aggregate event (all transfers
done), but the overlapped Dirac pipeline needs to know *which* halo has
landed: boundary work for axis ``mu`` can start as soon as that axis's
receive completes, concurrently with the remaining transfers.  For that,

* ``store_send`` / ``store_recv`` accept a ``group=`` tag so logically
  distinct waves of transfers (e.g. raw-field halos vs staged
  ``U^+ psi`` products) can be started independently;
* ``start_stored_events(group=...)`` returns a dict of per-direction
  completion events keyed ``(kind, axis, sign)`` with
  ``kind in {"send", "recv"}``;
* ``wait_any(events)`` yields when the *first* of a set fires (and tells
  you which): the completion-order drain loop of the two-phase hopping
  term sleeps on it when none of its pending transfers has landed (one
  that has, it takes inline, with no wait);
* ``wait([])`` on an empty iterable is defined to resolve immediately at
  ``sim.now`` — an interior phase may legitimately wait on zero halo
  axes in a 0-dimensional decomposition;
* ``transfer_counters()`` exposes the SCU's payload/wire word counters
  for protocol and efficiency accounting.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.machine.globalops import GlobalOpsEngine
from repro.machine.node import Node
from repro.machine.scu import DmaDescriptor
from repro.machine.topology import Partition
from repro.sim.core import Event
from repro.util.errors import ConfigError


def full_descriptor(node: Node, buffer: str) -> DmaDescriptor:
    """A descriptor covering an entire named buffer."""
    return DmaDescriptor(buffer=buffer, block_len=node.memory.word_count(buffer))


def face_descriptor(
    buffer: str,
    local_shape: Sequence[int],
    axis: int,
    side: int,
    words_per_site: int,
    depth: int = 1,
) -> DmaDescriptor:
    """Block-strided descriptor selecting one boundary face of a field.

    For a field stored site-major over ``local_shape`` (last axis fastest)
    with ``words_per_site`` 64-bit words per site, the face
    ``x_axis < depth`` (``side=-1``) or ``x_axis >= L-depth`` (``side=+1``)
    is exactly ``head`` contiguous blocks of ``depth*tail`` sites separated
    by ``L*tail`` sites — which is why the SCU's block-strided DMA (paper
    section 2.2) moves lattice halos with *zero* copying or packing.

    The word order produced equals the site order of
    :func:`repro.lattice.stencil.face_sites`, so sender and receiver agree
    element-by-element.
    """
    shape = tuple(int(s) for s in local_shape)
    if not 0 <= axis < len(shape):
        raise ConfigError(f"axis {axis} out of range for shape {shape}")
    L = shape[axis]
    if not 1 <= depth <= L:
        raise ConfigError(f"bad face depth {depth} for axis extent {L}")
    head = int(np.prod(shape[:axis])) if axis > 0 else 1
    tail = int(np.prod(shape[axis + 1 :])) if axis + 1 < len(shape) else 1
    block_sites = depth * tail
    period_sites = L * tail
    offset_sites = 0 if side < 0 else (L - depth) * tail
    return DmaDescriptor(
        buffer=buffer,
        block_len=block_sites * words_per_site,
        nblocks=head,
        stride=period_sites * words_per_site,
        offset=offset_sites * words_per_site,
    )


class CommsAPI:
    """Per-rank handle given to node programs by
    :meth:`repro.machine.machine.QCDOCMachine.run_partition`."""

    def __init__(
        self,
        machine,
        partition: Partition,
        global_engine: GlobalOpsEngine,
        rank: int,
        node: Node,
    ):
        self.machine = machine
        self.partition = partition
        self.globals = global_engine
        self.rank = rank
        self.node = node
        self.sim = node.sim
        #: the machine's halo-buffer race sanitizer, or ``None`` (off).
        #: Hook sites below guard with one attribute check, like tracing.
        self.sanitizer = node.sanitizer
        #: physical (kind, direction) -> logical (axis, sign) for stored
        #: descriptors, so per-direction completion events can be re-keyed
        #: in the coordinates node programs think in.
        self._stored_logical: Dict[Tuple[str, int], Tuple[int, int]] = {}

    # -- identity ------------------------------------------------------------
    @property
    def dims(self) -> Tuple[int, ...]:
        """Logical machine dimensions of this partition."""
        return self.partition.logical_dims

    @property
    def coord(self) -> Tuple[int, ...]:
        return self.partition.logical_coord(self.rank)

    @property
    def memory(self):
        return self.node.memory

    def _direction(self, axis: int, sign: int) -> int:
        return self.partition.physical_direction(self.rank, axis, sign)

    # -- memory ------------------------------------------------------------
    def alloc(self, name: str, array: np.ndarray, region: Optional[str] = None):
        return self.node.memory.alloc(name, array, region)

    def buffer(self, name: str) -> np.ndarray:
        return self.node.memory.get(name)

    # -- sanitizer checkpoints ------------------------------------------------
    def cpu_read(self, buffer: str) -> None:
        """Declare a CPU read of a node-memory buffer.

        A no-op (one attribute check) unless a
        :class:`~repro.analysis.sanitizer.HaloRaceSanitizer` is attached,
        in which case reading a buffer with an in-flight *receive* is
        flagged as a race (the data has not landed on real silicon).
        """
        san = self.sanitizer
        if san is not None:
            san.cpu_read(self.node.node_id, buffer, now=self.sim.now)

    def cpu_write(self, buffer: str) -> None:
        """Declare a CPU write of a node-memory buffer.

        Races with *any* in-flight DMA on the buffer (a send is still
        reading it; a receive is still storing into it).
        """
        san = self.sanitizer
        if san is not None:
            san.cpu_write(self.node.node_id, buffer, now=self.sim.now)

    def _register_logical(self, direction: int, axis: int, sign: int) -> None:
        san = self.sanitizer
        if san is not None:
            san.register_logical(self.node.node_id, direction, axis, sign)

    # -- point-to-point ---------------------------------------------------------
    def send(
        self, axis: int, sign: int, descriptor: DmaDescriptor, word_batch=None
    ) -> Event:
        """Start a DMA send toward the logical ``(axis, sign)`` neighbour.

        ``word_batch`` overrides the machine-wide frame batch for this one
        transfer; ``"face"`` ships the whole descriptor as a single frame
        (the hot-path default used by the distributed operators).
        """
        direction = self._direction(axis, sign)
        self._register_logical(direction, axis, sign)
        return self.node.scu.send(direction, descriptor, word_batch=word_batch)

    def recv(self, axis: int, sign: int, descriptor: DmaDescriptor) -> Event:
        """Post a DMA receive from the logical ``(axis, sign)`` neighbour."""
        direction = self._direction(axis, sign)
        self._register_logical(direction, axis, sign)
        return self.node.scu.recv(direction, descriptor)

    def send_buffer(self, axis: int, sign: int, name: str) -> Event:
        return self.send(axis, sign, full_descriptor(self.node, name))

    def recv_buffer(self, axis: int, sign: int, name: str) -> Event:
        return self.recv(axis, sign, full_descriptor(self.node, name))

    # -- persistent descriptors ---------------------------------------------------
    def store_send(
        self,
        axis: int,
        sign: int,
        descriptor: DmaDescriptor,
        group: str = "default",
        word_batch=None,
    ) -> None:
        """Store a persistent send descriptor.

        ``word_batch`` pins the frame batch used every time this
        descriptor starts (``"face"`` = whole face per frame).  The batch
        is a property of the *send* side only — the receive protocol is
        batch-agnostic, so there is no matching knob on
        :meth:`store_recv` and no way to configure a mismatched pair.
        """
        direction = self._direction(axis, sign)
        self._stored_logical[("send", direction)] = (axis, sign)
        self._register_logical(direction, axis, sign)
        self.node.scu.store_descriptor(
            "send", direction, descriptor, group=group, word_batch=word_batch
        )

    def store_recv(
        self, axis: int, sign: int, descriptor: DmaDescriptor, group: str = "default"
    ) -> None:
        direction = self._direction(axis, sign)
        self._stored_logical[("recv", direction)] = (axis, sign)
        self._register_logical(direction, axis, sign)
        self.node.scu.store_descriptor("recv", direction, descriptor, group=group)

    def start_stored(self, group: Optional[str] = None) -> Event:
        """One write starts every stored transfer; yields when all done.

        With ``group=`` only descriptors stored under that tag are
        started.  For per-direction completion use
        :meth:`start_stored_events` instead.
        """
        events = self.node.scu.start_stored(group=group)
        return self.sim.all_of(list(events.values()))

    def start_stored_events(
        self, group: Optional[str] = None
    ) -> Dict[Tuple[str, int, int], Event]:
        """Start stored transfers, returning per-direction completion events.

        Keys are ``(kind, axis, sign)`` with ``kind in {"send", "recv"}``
        and ``(axis, sign)`` the *logical* neighbour coordinates used when
        the descriptor was stored.  Boundary compute for axis ``mu`` may
        begin as soon as ``events[("recv", mu, s)]`` fires, while other
        transfers are still in flight — the overlap the paper's
        sustained-efficiency model assumes.
        """
        raw = self.node.scu.start_stored(group=group)
        events: Dict[Tuple[str, int, int], Event] = {}
        for (kind, direction), event in raw.items():
            axis, sign = self._stored_logical[(kind, direction)]
            events[(kind, axis, sign)] = event
        return events

    def transfer_counters(self) -> Dict[str, int]:
        """This node's cumulative SCU payload/wire word counters."""
        return self.node.scu.transfer_counters()

    # -- hot-epoch replay (see repro.machine.replay) ---------------------------
    def begin_hot_epoch(self, tag: str) -> None:
        """Bracket the start of one steady-state operator application.

        The first epoch of a ``tag`` runs interpreted while the SCU's
        :class:`~repro.machine.replay.ReplayEngine` learns the stored
        -descriptor schedule; subsequent epochs replay the compiled trace
        (bit-identical results, counters, and trace records).  A no-op
        when the engine is disabled.
        """
        self.node.scu.replay.begin_epoch(tag)

    def end_hot_epoch(self, tag: str) -> None:
        """Close the epoch opened by :meth:`begin_hot_epoch` (same tag)."""
        self.node.scu.replay.end_epoch(tag)

    # -- supervisor ------------------------------------------------------------
    def send_supervisor(self, axis: int, sign: int, word: int) -> Event:
        return self.node.scu.send_supervisor(self._direction(axis, sign), word)

    def wait_supervisor(self) -> Event:
        return self.node.wait_supervisor()

    # -- collectives ------------------------------------------------------------
    def global_sum(self, values: np.ndarray) -> Event:
        """Contribute to a partition-wide sum; yields the summed array.

        All ranks receive bitwise-identical results (canonical accumulation
        order in the SCU global mode).
        """
        return self.globals.contribute_sum(self.rank, values)

    def barrier(self) -> Event:
        """Synchronise all ranks (a 1-word global sum)."""
        return self.globals.contribute_sum(self.rank, np.zeros(1))

    # -- compute ------------------------------------------------------------
    def compute(
        self,
        flops: float,
        kernel: Optional[str] = None,
        rate: Optional[float] = None,
    ) -> Event:
        """Charge simulated CPU time for ``flops`` floating-point ops at
        ``rate`` seconds per flop — the one compute-time rule,
        ``api.memory.model.seconds_per_flop(...)`` over the kernel's
        cost-sheet mix and working set, worked out once per kernel; FPU
        peak without one.

        ``kernel`` optionally attributes the work to a named kernel in the
        node's :attr:`~repro.machine.node.Node.kernel_flops` ledger (and
        the ``cpu.compute`` trace span when tracing is on).
        """
        return self.node.compute(flops, kernel=kernel, rate=rate)

    @property
    def trace(self):
        """The machine-wide trace, or ``None`` when tracing is off."""
        return self.node.trace

    def wait(self, events: Iterable[Event]) -> Event:
        """Yieldable event that fires once *all* of ``events`` have fired.

        An **empty** iterable is explicitly legal and resolves immediately
        at ``sim.now`` (zero simulated delay): the interior phase of the
        overlapped hopping term waits on the halo axes of the current
        decomposition, and a 0-dimensional decomposition has none.
        """
        return self.sim.all_of(list(events))

    def wait_any(self, events: Iterable[Event]) -> Event:
        """Yieldable event that fires when the *first* of ``events`` fires.

        The yielded value is the triggered child :class:`Event` itself, so
        a drain loop can identify which transfer completed (compare by
        identity against the events from :meth:`start_stored_events`).
        """
        return self.sim.any_of(list(events))

    def __repr__(self) -> str:
        return f"CommsAPI(rank={self.rank}, coord={self.coord}, dims={self.dims})"
