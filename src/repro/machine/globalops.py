"""Global sums and broadcasts through the SCU pass-through mode.

Paper section 2.2, "Global operations": in global mode an SCU routes words
arriving on one link out of any combination of the other links *and* into
local memory, forwarding after only 8 of the 64 bits have arrived
(cut-through), "markedly reducing the latency".  A d-dimensional global sum
runs one ring phase per machine axis — after the x phase every node with
equal (y,z,t) holds the same x-summed data — costing ``N_x - 1`` hops per
axis, i.e. ``Nx+Ny+Nz+Nt-4`` total, or **half** that when the doubled mode
(two disjoint link sets, both ring directions) is used.

Determinism: every node accumulates contributions in canonical logical-rank
order, so all nodes compute *bitwise identical* sums — the property behind
the paper's bit-exact re-run of a five-day evolution (section 4), and the
reason a parallel CG residual is identical on every node.

The engine below moves real data between node buffers and charges the
cut-through timing model; per-word link occupancy of the underlying
:class:`SerialLink` objects is not simulated in global mode (the SCUs are
switched out of normal send/receive mode on real hardware too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.asic import ASICConfig
from repro.sim.core import Event, Simulator
from repro.sim.trace import Trace
from repro.util.errors import ConfigError, MachineError


def sum_hops(dims: Sequence[int], doubled: bool = False) -> int:
    """Ring hops for a dimension-sequenced global sum.

    Single mode: ``sum(N_a - 1)`` — the paper's ``Nx+Ny+Nz+Nt-4`` for 4
    axes.  Doubled mode (two disjoint link sets): ``sum(N_a // 2)``.
    """
    if doubled:
        return sum(d // 2 for d in dims if d > 1)
    return sum(d - 1 for d in dims if d > 1)


def broadcast_hops(dims: Sequence[int], doubled: bool = False) -> int:
    """Hops for a root broadcast: the wavefront crosses each axis once."""
    if doubled:
        return sum(d // 2 for d in dims if d > 1)
    return sum(d - 1 for d in dims if d > 1)


@dataclass
class CollectiveStats:
    """Timing/count record for one global operation."""

    kind: str
    nwords: int
    hops: int
    duration: float
    doubled: bool


class GlobalOpsEngine:
    """Coordinates global sums/broadcasts for one logical partition.

    Node programs call :meth:`contribute_sum`; once every rank has
    contributed, all waiting events complete simultaneously at
    ``t_start_of_last_contribution + reduction_time`` with the identical
    summed array.
    """

    def __init__(
        self,
        sim: Simulator,
        asic: ASICConfig,
        logical_dims: Sequence[int],
        doubled: bool = True,
        trace: Optional[Trace] = None,
    ):
        self.sim = sim
        self.asic = asic
        self.logical_dims = tuple(int(d) for d in logical_dims)
        self.n_ranks = int(np.prod(self.logical_dims))
        self.doubled = doubled
        self.trace = trace
        self.history: List[CollectiveStats] = []
        self._round: Dict[int, np.ndarray] = {}
        self._waiters: Dict[int, Event] = {}
        self._generation = 0

    # -- timing model -----------------------------------------------------------
    def reduction_time(self, nwords: int) -> float:
        """This partition's global-sum latency for ``nwords``
        (:meth:`~repro.machine.asic.ASICConfig.global_sum_time`)."""
        return self.asic.global_sum_time(self.logical_dims, nwords, self.doubled)

    @property
    def hops(self) -> int:
        return sum_hops(self.logical_dims, self.doubled)

    # -- functional collectives --------------------------------------------------
    def contribute_sum(self, rank: int, values: np.ndarray) -> Event:
        """Contribute this rank's addend; event yields the global sum."""
        if not 0 <= rank < self.n_ranks:
            raise ConfigError(f"rank {rank} out of range ({self.n_ranks} ranks)")
        if rank in self._round:
            raise MachineError(
                f"rank {rank} contributed twice to global sum generation "
                f"{self._generation}"
            )
        self._round[rank] = np.ascontiguousarray(values)
        ev = self.sim.event()
        self._waiters[rank] = ev
        if len(self._round) == self.n_ranks:
            self._complete()
        return ev

    def _reduce(
        self, addends: Dict[int, np.ndarray]
    ) -> Tuple[np.ndarray, CollectiveStats]:
        """One full round: the sum and its timing record.

        Refuses addends that disagree in shape or dtype — a silent dtype
        promotion (one rank contributing float32 into a float64 reduction)
        would change the accumulation bit pattern on *every* rank — and
        accumulates in canonical order, logical rank 0, 1, 2, ...:
        identical on every node and independent of the order the
        contributions arrived in, hence bitwise-reproducible results.
        """
        ranks = sorted(addends)
        first = addends[ranks[0]]
        for r in ranks[1:]:
            arr = addends[r]
            if arr.shape != first.shape:
                raise MachineError(
                    f"global-sum shape mismatch: {arr.shape} vs {first.shape}"
                )
            if arr.dtype != first.dtype:
                raise MachineError(
                    f"global-sum dtype mismatch: {arr.dtype} vs {first.dtype}"
                )
        total = first.copy()
        for r in ranks[1:]:
            total = total + addends[r]
        nwords = int(total.size) * (2 if np.iscomplexobj(total) else 1)
        stats = CollectiveStats(
            "sum", nwords, self.hops, self.reduction_time(max(1, nwords)), self.doubled
        )
        self.history.append(stats)
        return total, stats

    def _emit_complete(self, stats: CollectiveStats) -> None:
        if self.trace is not None:
            self.trace.emit(
                "gsum.complete", nwords=stats.nwords, hops=stats.hops, dur=stats.duration
            )

    def _complete(self) -> None:
        """Every rank is in: the waiters complete together, one reduction
        time after the contribution that closed the round."""
        total, stats = self._reduce(self._round)
        waiters = self._waiters
        self._round = {}
        self._waiters = {}
        self._generation += 1

        def finish():
            self._emit_complete(stats)
            for ev in waiters.values():
                ev.succeed(total.copy())

        self.sim.schedule(stats.duration, finish)


class ShardedGlobalOps(GlobalOpsEngine):
    """The global-sum engine on a sharded simulator.

    The single-heap engine completes a round inside the *last*
    ``contribute_sum`` call — whose identity depends on cross-node event
    interleaving, which windowed sharding permutes.  Here contributions
    travel as barrier notifications to the window coordinator, which
    completes a round when all ranks are present and schedules every
    waiter at the **absolute** time ``max(contribution times) +
    reduction_time`` — an order-independent rendezvous.  On the
    single-heap engine contributions already execute in global time
    order, so the last call *is* the max: both engines complete rounds
    at bitwise-identical times with bitwise-identical canonical
    rank-order sums.

    Safety under conservative windows: ``reduction_time(1) >=
    word_serialisation_time`` (144 ns at 500 MHz), which exceeds the
    26 ns lookahead — a completion posted at the barrier always lands
    beyond the next window's start.

    The same message protocol serves both executors: under fork, each
    rank's waiter event lives in the contributing worker
    (``router.gsum_waiters``), contributions reach the parent
    coordinator as pipe notifications, and completions return as data
    posts decoded against the pre-fork engine registry.
    """

    def __init__(
        self,
        sim,
        asic: ASICConfig,
        logical_dims: Sequence[int],
        doubled: bool = True,
        trace: Optional[Trace] = None,
    ):
        super().__init__(sim, asic, logical_dims, doubled=doubled, trace=trace)
        self.router = sim.router
        self.engine_id = self.router.register_engine(self)
        self.router.note_handlers.setdefault("gsum", _dispatch_gsum_note(self.router))
        #: per-rank round counter on the contributing side (worker-local
        #: under fork: each rank contributes its rounds in order)
        self._local_gen: Dict[int, int] = {}
        #: coordinator: per-rank arrival counter + open rounds
        self._coord_gen: Dict[int, int] = {}
        self._rounds: Dict[int, Dict[int, Tuple[float, np.ndarray, int]]] = {}
        self._completed_gen = 0

    # -- contributing (lane) side ------------------------------------------
    def contribute_sum(self, rank: int, values: np.ndarray) -> Event:
        """Contribute this rank's addend; event yields the global sum."""
        if not 0 <= rank < self.n_ranks:
            raise ConfigError(f"rank {rank} out of range ({self.n_ranks} ranks)")
        arr = np.ascontiguousarray(values)
        gen = self._local_gen.get(rank, 0)
        self._local_gen[rank] = gen + 1
        ev = self.sim.event()
        self.router.gsum_waiters[(self.engine_id, gen, rank)] = ev
        self.router.notify(
            "gsum", engine=self.engine_id, rank=rank, t=self.sim.now, values=arr
        )
        return ev

    def _finish_rank(self, key: Tuple[int, int, int], value: np.ndarray,
                     emit: Optional[CollectiveStats]) -> None:
        """Deliver one rank's completed sum (runs on the waiter's lane at
        the rendezvous time; decoded by the router from a barrier post)."""
        ev = self.router.gsum_waiters.pop(key)
        if emit is not None:
            self._emit_complete(emit)
        ev.succeed(value)

    # -- coordinator (barrier) side ----------------------------------------
    def _coordinator_note(self, note) -> None:
        data = note.data
        rank = data["rank"]
        gen = self._coord_gen.get(rank, 0)
        self._coord_gen[rank] = gen + 1
        self._rounds.setdefault(gen, {})[rank] = (
            data["t"],
            data["values"],
            note.src_shard,
        )
        self._try_complete()

    def _try_complete(self) -> None:
        while len(self._rounds.get(self._completed_gen, ())) == self.n_ranks:
            gen = self._completed_gen
            round_ = self._rounds.pop(gen)
            self._completed_gen += 1
            total, stats = self._reduce({r: v for r, (_t, v, _s) in round_.items()})
            t_complete = max(t for t, _v, _s in round_.values()) + stats.duration
            for i, r in enumerate(sorted(round_)):
                self.router.coordinator_post(
                    "gsum",
                    round_[r][2],
                    t_complete,
                    (self.engine_id, gen, r),
                    (total.copy(), stats if i == 0 else None),
                )


def _dispatch_gsum_note(router):
    """The coordinator's ``"gsum"`` handler: route to the engine by id."""

    def handle(note) -> None:
        router.engines[note.data["engine"]]._coordinator_note(note)

    return handle
