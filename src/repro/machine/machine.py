"""The whole-machine facade.

``QCDOCMachine`` assembles topology, nodes, mesh network, global clock and
interrupt controllers, and offers the operations the rest of the library
(and the examples/benchmarks) build on:

* :meth:`bring_up` — concurrent HSSL training of every link;
* :meth:`partition` — software allocation + folding (paper section 2.2);
* :meth:`run_partition` — execute one node program per logical rank and
  drive the event simulation to completion;
* :meth:`audit_checksums` — the end-of-run link-checksum comparison;
* :meth:`raise_partition_interrupt` — the machine-wide stop mechanism.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.asic import MachineConfig
from repro.machine.faults import FAULT_IRQ_BIT
from repro.machine.globalops import GlobalOpsEngine, ShardedGlobalOps
from repro.machine.interrupts import GlobalClock, InterruptController, safe_period
from repro.machine.network import MeshNetwork
from repro.machine.node import Node
from repro.machine.topology import Partition, TorusTopology
from repro.sim.core import Event, Process, Simulator
from repro.sim.shard import ShardedSimulator
from repro.sim.trace import Trace, TraceRecord
from repro.util.errors import ConfigError, FaultError, MachineError
from repro.util.rng import rng_stream


class PartitionRun:
    """One partition's rank programs, launched without blocking the sim.

    :meth:`QCDOCMachine.launch_partition` returns one of these instead of
    driving the event loop itself, so several partitions can execute
    concurrently on one machine (the job-service layer) while the
    blocking :meth:`QCDOCMachine.run_partition` stays a thin wrapper.

    Lifecycle: ranks report into :attr:`done` / :attr:`faults` as their
    generators finish; :attr:`settled` flips once every rank returned or
    any rank died of a :class:`FaultError`.  A run that must end early
    (fault recovery, preemption) is :meth:`abort`-ed and the simulation
    advanced until :meth:`quiesced` holds.  Either way :meth:`finalize` is
    the one teardown, and **a node it hands back is indistinguishable from
    a booted one** (DESIGN.md §16) — it keeps only monotone counters, link
    checksums, wiring and ``links_down`` (a dead cable is the host
    daemon's to quarantine, not a job's to forget).
    """

    def __init__(self, machine: "QCDOCMachine", partition: Partition, tag: str = ""):
        self.machine = machine
        self.partition = partition
        self.tag = tag
        self.n_ranks = partition.n_nodes
        self.part_nodes: List[Node] = [
            machine.nodes[partition.physical_node(r)] for r in range(self.n_ranks)
        ]
        # Snapshot node memory so teardown can free what this run allocates
        # (the next job on these nodes re-allocates the same buffer names).
        self.pre_buffers = {
            n.node_id: set(n.memory.buffer_names()) for n in self.part_nodes
        }
        # Every wire touching this run's nodes: quiescence must also see
        # these empty, or frames of a cancelled transfer still in flight
        # would land on (and poison) the next job allocated here.
        ids = {n.node_id for n in self.part_nodes}
        topo = machine.topology
        self._watch_links = [
            link
            for (src, d), link in sorted(machine.network.links.items())
            if src in ids or topo.neighbour_by_direction(src, d) in ids
        ]
        self.processes: List[Process] = []
        #: rank -> return value, filled as rank generators finish
        self.done: Dict[int, Any] = {}
        #: hard faults in detection order (first one is the diagnosis)
        self.faults: List[BaseException] = []
        self.aborted = False
        self.finalized = False
        self.launched_at = machine.sim.now
        #: when the run settled (``None`` while it runs)
        self.settled_at: Optional[float] = None
        #: the run's own global-sum engine: collectives never cross jobs
        self.engine = machine.global_ops(partition)
        #: host-side callback fired (synchronously, from inside the event
        #: that settled the run) the moment :attr:`settled` flips — the
        #: service layer's wake-up signal
        self.on_settled: Optional[Callable[["PartitionRun"], None]] = None
        machine.last_run = self

    @property
    def settled(self) -> bool:
        """Every rank returned, or any rank died of a hard fault."""
        return bool(self.faults) or len(self.done) == self.n_ranks

    def results(self) -> List[Any]:
        """Per-rank return values (rank order); only valid once settled
        without faults."""
        if self.faults:
            raise self.faults[0]
        return [self.done[r] for r in range(self.n_ranks)]

    def node_ids(self) -> List[int]:
        return sorted(n.node_id for n in self.part_nodes)

    # -- teardown ------------------------------------------------------------
    def abort(self) -> None:
        """Interrupt surviving ranks and cancel their SCU transfers.

        Purely state-changing (interrupts are scheduled, cancellations
        discard in-flight frames as they arrive): the caller keeps the
        simulation running until :meth:`quiesced` holds.
        """
        self.aborted = True
        for proc in self.processes:
            if proc.is_alive:
                proc.interrupt("partition abort")
        for node in self.part_nodes:
            node.scu.cancel_active_transfers()

    def quiesced(self) -> bool:
        """No rank process alive, no word in an SCU pipeline, and no frame
        still clocking down any wire touching the run's nodes."""
        return (
            all(p.triggered for p in self.processes)
            and all(
                node.scu.in_flight_words() == 0 for node in self.part_nodes
            )
            and all(link.in_transit == 0 for link in self._watch_links)
        )

    def finalize(self) -> None:
        """Free what the run allocated and return every node it held to
        boot state.  Idempotent; call once the run settled, or aborted and
        quiesced (a clean settle's trailing EOTs are let land first)."""
        if self.finalized:
            return
        if not self.quiesced():
            self.machine.sim.run(stop=self.quiesced)
        self.finalized = True
        for node in self.part_nodes:
            for name in sorted(
                set(node.memory.buffer_names()) - self.pre_buffers[node.node_id]
            ):
                node.memory.free(name)
            node.boot_reset()
            self.machine.interrupts[node.node_id].boot_reset()

    # -- rank callbacks (wired by launch_partition) ---------------------------
    def _rank_done(self, rank: int, value: Any) -> None:
        self.done[rank] = value
        if self.settled:
            self._notify()

    def _rank_fault(self, rank: int, exc: BaseException) -> None:
        first = not self.faults
        self.faults.append(exc)
        if first:
            self._notify()

    def _notify(self) -> None:
        if self.settled_at is None:
            self.settled_at = self.machine.sim.now
            self.machine._account_run(self.launched_at, self.engine)
        if self.on_settled is not None:
            self.on_settled(self)

    def __repr__(self) -> str:
        state = (
            "finalized"
            if self.finalized
            else "aborted"
            if self.aborted
            else "settled"
            if self.settled
            else "running"
        )
        return f"PartitionRun({self.tag or self.n_ranks} ranks, {state})"


class QCDOCMachine:
    """A functional QCDOC machine of ``config.n_nodes`` simulated nodes.

    There is no CPU-speed parameter: a node charges compute time by the
    one compute-time rule
    (:meth:`repro.machine.memory.MemoryModel.compute_cycles` — the
    kernel's cost-sheet flops and words, the residency of its working
    set), the same rule :mod:`repro.perfmodel` is built from, so a Wilson
    CG at 4^4 per node sustains the paper's 40% of peak by construction.

    Parameters
    ----------
    word_batch:
        SCU frame batching (1 = word-exact protocol; larger values
        accelerate big error-free transfers; ``"face"`` ships each whole
        transfer as one frame, see :mod:`repro.machine.scu`).
    bit_error_rate:
        Per-wire-bit fault probability for resend-protocol experiments.
    trace:
        Attach a machine-wide :class:`~repro.sim.trace.Trace`; every unit
        (links, SCUs, CPUs, global-ops engines) emits into it.  Off by
        default so hot paths cost a single ``is not None`` check.
    sanitizer:
        Attach a :class:`repro.analysis.sanitizer.HaloRaceSanitizer`
        that shadow-tracks DMA buffer ownership and flags premature CPU
        reads/writes of in-flight halo buffers.  Off (``None``) by
        default with the same one-attribute-check cost model as tracing.
    watchdog:
        Arm the SCU hard-fault watchdogs (resend-storm / no-progress
        detection, companion papers hep-lat/0306023 and hep-lat/0309096).
        Off by default: the seed protocol stalls *legitimately* while a
        receiver holds the idle-receive window, so watchdogs are only
        meaningful on machines whose host daemon handles LINK_DOWN
        escalation.
    shards:
        Partition the event simulation into this many window-synchronised
        shards (:mod:`repro.sim.shard`).  ``1`` (default) uses the
        single-heap engine unchanged; ``>= 2`` assigns contiguous node
        ranges to shard lanes and exchanges cross-shard HSSL traffic at
        conservative window barriers.  Observables (counters, residuals,
        trace multisets) are bit-identical across shard counts.
    shard_workers:
        ``"serial"`` (default) runs all shard lanes in this process;
        ``"fork"`` runs each shard in a forked OS worker during
        :meth:`run_partition` (POSIX only), merging per-shard machine
        state back from snapshots at the end of the run.
    replay:
        Enable the hot-epoch compiled event-trace replay engine
        (:mod:`repro.machine.replay`): after the first dslash application
        the per-application SCU schedule is memoized and subsequent
        applications replay it with bit-identical results, counters, and
        trace records.  On by default; it self-gates off wherever its
        validity conditions (error-free, same-shard, watchdogs off) do
        not hold.  ``False`` forces every transfer interpreted.
    """

    def __init__(
        self,
        config: MachineConfig,
        word_batch=1,
        bit_error_rate: float = 0.0,
        seed: int = 0,
        trace: bool = False,
        sanitizer: Optional["HaloRaceSanitizer"] = None,
        watchdog: bool = False,
        shards: int = 1,
        shard_workers: str = "serial",
        replay: bool = True,
    ):
        self.config = config
        self.asic = config.asic
        if shards < 1:
            raise ConfigError(f"need >= 1 shard, got {shards}")
        if shard_workers not in ("serial", "fork"):
            raise ConfigError(
                f"shard_workers must be 'serial' or 'fork', got {shard_workers!r}"
            )
        if shard_workers == "fork" and not hasattr(os, "fork"):
            raise ConfigError("shard_workers='fork' needs POSIX os.fork")
        self.shards = int(shards)
        self.shard_workers = shard_workers
        if self.shards > 1:
            self.sim: Simulator = ShardedSimulator(
                self.shards, self.asic.shard_lookahead
            )
        else:
            self.sim = Simulator()
        self.trace = Trace(self.sim) if trace else None
        #: machine-wide halo-buffer race sanitizer (see
        #: :mod:`repro.analysis.sanitizer`); ``None`` = off, and every hook
        #: site below costs exactly one attribute check — the same
        #: discipline as :attr:`trace`.
        self.sanitizer = sanitizer
        self.topology = TorusTopology(config.dims)
        self.nodes: Dict[int, Node] = {
            i: Node(
                self.sim,
                self.asic,
                i,
                trace=self.trace,
                word_batch=word_batch,
                sanitizer=sanitizer,
                replay=replay,
            )
            for i in range(self.topology.n_nodes)
        }
        error_rng = (
            rng_stream(seed, "link-faults") if bit_error_rate > 0.0 else None
        )
        self.network = MeshNetwork(
            self.sim,
            self.asic,
            self.topology,
            self.nodes,
            trace=self.trace,
            error_rng=error_rng,
            bit_error_rate=bit_error_rate,
        )
        diameter = sum(d // 2 for d in config.dims)
        self.global_clock = GlobalClock(
            self.sim, safe_period(self.asic, max(diameter, 1))
        )
        all_directions = [
            self.topology.direction(a, s)
            for a in range(self.topology.ndim)
            if config.dims[a] > 1
            for s in (+1, -1)
        ]
        self.interrupts: Dict[int, InterruptController] = {
            i: InterruptController(
                self.sim,
                self.nodes[i].scu,
                self.global_clock,
                all_directions,
                trace=self.trace,
            )
            for i in self.nodes
        }
        if self.shards > 1:
            self.network.bind_shards(self.sim.router, self.shard_of)
            self.sim.router.note_handlers["link_down"] = self._link_down_note
        self._booted = False
        #: simulated seconds spent inside rank programs, launch to settle,
        #: summed over partition runs (the window the report decomposes
        #: into compute, global sums and exposed communication), and the
        #: seconds and words of the global sums reduced inside them
        self.run_seconds = 0.0
        self.global_sum_seconds = 0.0
        self.global_sum_words = 0
        #: the newest run: what :meth:`run_partition` leaves to finalize
        self.last_run: Optional[PartitionRun] = None
        #: LINK_DOWN reports collected from SCU watchdogs: (node, direction,
        #: reason), in detection order.  The host daemon reads this after a
        #: faulted run to diagnose which cables to quarantine.
        self.link_down_log: List[Tuple[int, int, str]] = []
        self.watchdog = bool(watchdog)
        for node in self.nodes.values():
            node.scu.watchdog_enabled = self.watchdog
            node.scu.on_link_down = self._handle_link_down

    # -- sharding ------------------------------------------------------------
    def shard_of(self, node_id: int) -> int:
        """The shard lane owning ``node_id``: contiguous node ranges.

        ``shards > n_nodes`` is legal (the surplus lanes own no nodes and
        simply idle at every window), so shard-count sweeps need no
        machine-size guards.
        """
        return node_id * self.shards // self.n_nodes

    def quiesce(self) -> None:
        """Drain every pending event (all shard lanes, all windows).

        The sharded engine commits whole windows, so mid-run state can
        differ from the single-heap engine by events inside one lookahead.
        After a full drain the engines agree bit-for-bit — compare
        counters/traces only after calling this.
        """
        self.sim.run()

    # -- bring-up -----------------------------------------------------------
    def bring_up(self) -> None:
        """Train every HSSL link (run to completion)."""
        self.sim.run(until=self.network.train_all())
        self._booted = True

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    @property
    def peak_flops(self) -> float:
        return self.config.peak_flops

    # -- partitioning ---------------------------------------------------------
    def partition(
        self,
        groups: Sequence[Sequence[int]],
        origin: Optional[Sequence[int]] = None,
        extents: Optional[Sequence[int]] = None,
        require_periodic: bool = True,
    ) -> Partition:
        """Carve a logical machine out of the torus, in software.

        Defaults to the full machine.  ``groups`` lists which physical axes
        fold into each logical axis — e.g. on a 6-torus,
        ``[(0,), (1,), (2,), (3, 4, 5)]`` makes a 4-dimensional machine
        whose last axis serpentines through three physical axes.
        """
        if origin is None:
            origin = (0,) * self.topology.ndim
        if extents is None:
            extents = self.topology.dims
        return Partition(
            self.topology, origin, extents, groups, require_periodic
        )

    def global_ops(self, partition: Partition, doubled: bool = True) -> GlobalOpsEngine:
        """A global-sum/broadcast engine for one partition."""
        cls = ShardedGlobalOps if self.shards > 1 else GlobalOpsEngine
        return cls(
            self.sim,
            self.asic,
            partition.logical_dims,
            doubled=doubled,
            trace=self.trace,
        )

    def _account_run(self, launched_at: float, engine: GlobalOpsEngine) -> None:
        """Book a settled run: its span and its engine's global sums."""
        self.run_seconds += self.sim.now - launched_at
        for stats in engine.history:
            self.global_sum_seconds += stats.duration
            self.global_sum_words += stats.nwords

    # -- telemetry ------------------------------------------------------------
    def counters(self):
        """:func:`repro.telemetry.counters.sample` of this machine: every
        node's and every link's counters as one flat ``{path: value}``
        snapshot, read off the always-on plain counters."""
        from repro.telemetry.counters import sample  # local: layering

        return sample(self)

    def report(self):
        """A :class:`repro.telemetry.MachineReport` over current counters."""
        from repro.telemetry.report import MachineReport  # local: layering

        return MachineReport(self)

    def replay_stats(self):
        """Hot-epoch replay statistics summed over every node's engine.

        ``epochs_replayed > 0`` is the benchmark's proof that the compiled
        dslash event-trace path actually engaged (see
        :mod:`repro.machine.replay`).
        """
        total: Dict[str, int] = {}
        for node_id in sorted(self.nodes):
            for key, value in self.nodes[node_id].scu.replay.stats().items():
                total[key] = total.get(key, 0) + value
        return total

    # -- program execution ------------------------------------------------------
    def launch_partition(
        self,
        partition: Partition,
        program: Callable[..., object],
        tag: str = "",
        **program_kwargs,
    ) -> PartitionRun:
        """Start ``program(api)`` on every rank of a partition, non-blocking.

        Creates the rank processes and returns a :class:`PartitionRun`
        immediately — the caller drives the simulation (``sim.run(stop=
        lambda: run.settled)``, or a service loop multiplexing several
        runs).  Multiple live runs on disjoint partitions share the
        machine; each gets its own per-partition global-ops engine, so
        collectives never cross job boundaries.

        Sharded machines are supported with the **serial** executor only:
        rank completion reports are direct host-side callbacks, which the
        forked executor's worker processes cannot deliver (those runs go
        through :meth:`run_partition`'s window-notification protocol).
        """
        if not self._booted:
            raise MachineError("bring_up() the machine before running programs")
        if self.shards > 1 and self.shard_workers != "serial":
            raise ConfigError(
                "launch_partition needs shard_workers='serial' (rank "
                "completion is reported by direct callback, not over "
                "worker pipes)"
            )
        run = PartitionRun(self, partition, tag=tag)
        run.processes = self._spawn_ranks(
            run, program, program_kwargs, run._rank_done, run._rank_fault
        )
        return run

    def _spawn_ranks(
        self,
        run: PartitionRun,
        program: Callable[..., object],
        program_kwargs: dict,
        done: Callable[[int, Any], None],
        fault: Callable[[int, BaseException], None],
    ) -> List[Process]:
        """One guarded process per rank of ``run``, on its node's shard lane:
        its return value goes to ``done``, a fault it dies of to ``fault``."""
        from repro.comms.api import CommsAPI  # local import: layering

        def guarded(api):
            try:
                result = yield from program(api, **program_kwargs)
            except FaultError as exc:
                fault(api.rank, exc)
                return None
            done(api.rank, result)
            return result

        processes = []
        for rank, node in enumerate(run.part_nodes):
            api = CommsAPI(self, run.partition, run.engine, rank, node)
            with self.sim.context(self.shard_of(node.node_id)):
                processes.append(
                    self.sim.process(
                        guarded(api), name=f"{run.tag or 'rank'}:{rank}"
                    )
                )
        return processes

    def run_partition(
        self,
        partition: Partition,
        program: Callable[..., object],
        max_time: float = 100.0,
        **program_kwargs,
    ) -> List[object]:
        """Run ``program(api)`` on every logical rank of a partition.

        ``program`` is a generator function taking a
        :class:`repro.comms.api.CommsAPI`; the call returns the list of
        per-rank return values (rank order).  The machine must be brought
        up first.

        On success the run is left open (a persistent operator context
        stays for the caller's next ``run_partition``); a caller done with
        it finalizes :attr:`last_run`, as ``pcg.run_on_partition`` does.

        If any rank dies of a hard fault (:class:`FaultError`, e.g. a
        watchdog :class:`~repro.util.errors.LinkDownError`) the whole
        partition is aborted, drained and finalized — surviving ranks
        interrupted, in-flight SCU transfers cancelled, the nodes back in
        boot state — and the first fault re-raised.  The machine is then
        reusable: a host daemon can remap the job onto healthy hardware
        and resume from a checkpoint.
        """
        if not self._booted:
            raise MachineError("bring_up() the machine before running programs")
        if self.shards > 1 and self.shard_workers == "fork":
            return self._run_partition_forked(
                partition, program, max_time, program_kwargs
            )
        run = self.launch_partition(partition, program, **program_kwargs)
        settled = self.sim.event()  # a predicate would be polled after every entry
        run.on_settled = lambda _run: settled.triggered or settled.succeed()
        self.sim.run(until=settled, max_time=max_time)
        if not run.faults:
            return run.results()
        run.abort()
        self.sim.run()  # drain: cancellations, interrupts, in-flight frames
        run.finalize()
        raise run.faults[0]

    # -- forked program execution: fork-only, down to "machine-wide services" --
    def _run_partition_forked(
        self,
        partition: Partition,
        program: Callable[..., object],
        max_time: float,
        program_kwargs: dict,
    ) -> List[object]:
        """:meth:`run_partition` under ``shard_workers="fork"``.

        A worker process cannot call back into the parent's
        :class:`PartitionRun`, so ranks announce completion and hard
        faults as window notifications over the worker pipes, and the
        coordinator's stop predicate ends the run at the first barrier
        where every rank has reported or any rank faulted.  Rank return
        values and :class:`FaultError` instances must be picklable.
        """
        run = PartitionRun(self, partition)  # ranks report into it by note
        router = self.sim.router
        router.note_handlers["rank_done"] = lambda note: run.done.__setitem__(
            note.data["rank"], note.data["value"]
        )
        router.note_handlers["rank_fault"] = lambda note: run.faults.append(
            note.data["exc"]
        )
        # the parent's images of the rank processes never run: not the run's
        processes = self._spawn_ranks(
            run,
            program,
            program_kwargs,
            lambda rank, value: router.notify("rank_done", rank=rank, value=value),
            lambda rank, exc: router.notify("rank_fault", rank=rank, exc=exc),
        )
        self._install_fork_hooks(processes, run.part_nodes)
        try:
            self.sim.run_forked(
                lambda: run.settled,
                max_time=max_time,
                ctrl_for_stop=lambda: ["abort"] if run.faults else [],
            )
        finally:
            self.sim.fork_hooks.clear()
            self._account_run(run.launched_at, run.engine)
        if run.faults:
            # The abort control hook interrupted ranks and cancelled
            # transfers *inside* the workers, which drained before the merge.
            run.finalize()
        return run.results()

    def _install_fork_hooks(
        self, processes: List[Process], part_nodes: List[Node]
    ) -> None:
        """Wire this machine's state transfer into ``sim.run_forked``.

        The abort hook runs *worker-side*: each worker interrupts only the
        ranks whose home shard it owns (interrupting a copy-on-write image
        of a foreign rank would double-execute its cleanup) and cancels
        transfers on its own nodes.
        """
        watermark = self.trace.emitted if self.trace is not None else 0

        def snapshot(shard: int) -> dict:
            return self._shard_snapshot(shard, watermark)

        def abort_ctrl(shard: int) -> None:
            for proc, node in zip(processes, part_nodes):
                if self.shard_of(node.node_id) == shard:
                    if proc.is_alive:
                        proc.interrupt("partition abort")
                    node.scu.cancel_active_transfers()

        self.sim.fork_hooks.update(
            snapshot=snapshot,
            apply=self._apply_shard_snapshots,
            ctrl={"abort": abort_ctrl},
        )

    def _shard_snapshot(self, shard: int, trace_watermark: int) -> dict:
        """Picklable machine state owned by one shard (runs in the worker).

        Covers exactly what the parent's observables read after a run:
        node memory (buffers, regions, DMA byte counters), CPU accounting,
        SCU unit state/counters, interrupt latches, per-link wire
        counters, and the trace records this worker emitted since the
        pre-fork watermark.  LINK_DOWN reports are *not* snapshotted —
        they reach the parent as window notifications during the run.
        """
        nodes: Dict[int, dict] = {}
        for node_id in sorted(self.nodes):
            if self.shard_of(node_id) != shard:
                continue
            node = self.nodes[node_id]
            ic = self.interrupts[node_id]
            nodes[node_id] = {
                "buffers": dict(node.memory._buffers),
                "regions": dict(node.memory._regions),
                "read_bytes": dict(node.memory.read_bytes),
                "write_bytes": dict(node.memory.write_bytes),
                "flops_charged": node.flops_charged,
                "compute_time": node.compute_time,
                "kernel_flops": dict(node.kernel_flops),
                "supervisor_events": list(node.supervisor_events),
                "scu": node.scu.snapshot_state(),
                "irq": (ic.seen_bits, ic.latched_bits, ic.presented_bits),
            }
        links = {
            key: link.snapshot_state()
            for key, link in sorted(self.network.links.items())
            if self.shard_of(key[0]) == shard
        }
        trace_records: List[TraceRecord] = []
        if self.trace is not None:
            trace_records = [
                r for r in self.trace.records if r.seq >= trace_watermark
            ]
        return {"nodes": nodes, "links": links, "trace": trace_records}

    def _apply_shard_snapshots(self, snaps: List[Tuple[int, dict, float]]) -> None:
        """Merge per-shard worker snapshots back into the parent machine.

        Trace records are re-emitted in the global ``(time, seq, shard)``
        order — the same total order the serial executor produces — so a
        forked run's trace multiset *and* sequence match the serial one.
        """
        merged_trace: List[Tuple[float, int, int, TraceRecord]] = []
        for shard, snap, _lane_now in snaps:
            for node_id, st in sorted(snap["nodes"].items()):
                node = self.nodes[node_id]
                node.memory._buffers = st["buffers"]
                node.memory._word_views.clear()
                node.memory._regions = st["regions"]
                node.memory.read_bytes = st["read_bytes"]
                node.memory.write_bytes = st["write_bytes"]
                node.flops_charged = st["flops_charged"]
                node.compute_time = st["compute_time"]
                node.kernel_flops = st["kernel_flops"]
                node.supervisor_events = st["supervisor_events"]
                node.scu.restore_state(st["scu"])
                ic = self.interrupts[node_id]
                ic.seen_bits, ic.latched_bits, ic.presented_bits = st["irq"]
                ic._presentation_scheduled = False
            for key, link_state in sorted(snap["links"].items()):
                link = self.network.links[key]
                link.restore_state(link_state)
                if link.cross_shard is not None:
                    # a boundary wire's landings were counted down in the
                    # receiving worker's image; shards ship home drained
                    link.in_transit = 0
            for r in snap["trace"]:
                merged_trace.append((r.time, r.seq, shard, r))
        if self.trace is not None:
            merged_trace.sort(key=lambda item: (item[0], item[1], item[2]))
            for _t, _s, _k, r in merged_trace:
                self.trace.records.append(r._replace(seq=self.trace.emitted))
                self.trace.emitted += 1

    # -- machine-wide services ---------------------------------------------------
    def raise_partition_interrupt(self, node_id: int, bits: int) -> None:
        self.interrupts[node_id].raise_irq(bits)

    def _handle_link_down(self, node_id: int, direction: int, reason: str) -> None:
        """An SCU watchdog declared a direction dead (section 2.2 item 2).

        Record the report and raise the hard-fault partition-interrupt bit
        from the detecting node; the torus-redundant interrupt flood
        reaches the host even with one cable gone.  Repeat reports re-raise
        the same bit, which the controllers dedup (``seen_bits``).

        On a sharded machine the interrupt flood stays in-lane (it rides
        the mesh) but the host-daemon report crosses to the coordinator
        as a window notification — under fork the detecting node's log
        would otherwise die with the worker.
        """
        if self.shards > 1:
            self.sim.router.notify(
                "link_down", node=node_id, direction=direction, reason=reason
            )
        else:
            self.link_down_log.append((node_id, direction, reason))
        self.interrupts[node_id].raise_irq(FAULT_IRQ_BIT)

    def _link_down_note(self, note) -> None:
        """Coordinator side of the sharded LINK_DOWN report path."""
        d = note.data
        self.link_down_log.append((d["node"], d["direction"], d["reason"]))

    def audit_checksums(self) -> List[str]:
        """End-of-run link checksum comparison (empty list = clean)."""
        return self.network.audit_checksums()

    def __repr__(self) -> str:
        dims = "x".join(map(str, self.config.dims))
        return f"QCDOCMachine({dims} = {self.n_nodes} nodes)"
