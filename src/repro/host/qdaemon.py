"""The qdaemon: host-side machine management (paper section 3.1).

"Our primary host software is called the qdaemon.  This software is
responsible for booting QCDOC, coordinating the initialization of the
various networks, keeping track of the status of the nodes (including
hardware problems), allocating user partitions of QCDOC, loading and
starting execution of applications, and returning application output to the
user."

The daemon is "heavily threaded"; here each node's boot conversation is an
independent simulation process, so boots overlap exactly the way threads
over UDP sockets would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.host.boot import (
    BOOT_KERNEL_BLOCKS,
    LOADER_UDP_PORT,
    RPC_UDP_PORT,
    RUN_KERNEL_BLOCKS,
    STATUS_UDP_PORT,
    BootState,
    NodeBootAgent,
)
from repro.host.ethernet import EthernetFabric, UdpDatagram
from repro.host.jtag import JTAG_UDP_PORT, JtagCommand, JtagOp
from repro.host.remap import find_healthy_partition, partition_is_healthy
from repro.machine.machine import QCDOCMachine
from repro.machine.topology import Partition
from repro.parallel.pcg import run_on_partition
from repro.sim.core import Event
from repro.util.errors import DegradedMachineError, MachineError

#: Ethernet segments between the host and the machine
HOST_LINKS = 4
#: host-side deadline (simulated s) on each node's boot conversation: a
#: silent node must not hang :meth:`Qdaemon.boot` forever
BOOT_TIMEOUT = 50e-3
#: host-side deadline (simulated s) on a bounded RPC ping sweep
RPC_TIMEOUT = 5e-3


@dataclass
class Allocation:
    """One user partition handed out by the daemon."""

    job_id: int
    user: str
    partition: Partition
    active: bool = True


class Qdaemon:
    """Host daemon bound to one simulated machine.

    Parameters
    ----------
    machine:
        The :class:`QCDOCMachine` being managed.
    faulty_nodes:
        Node ids whose hardware self-test fails (status-tracking tests).
    silent_nodes:
        Node ids that are electrically dead from power-on: they answer
        nothing, not even JTAG, so the daemon only learns of them when
        their boot conversation times out (:data:`BOOT_TIMEOUT`).
    """

    def __init__(
        self,
        machine: QCDOCMachine,
        faulty_nodes: Sequence[int] = (),
        silent_nodes: Sequence[int] = (),
    ):
        self.machine = machine
        self.sim = machine.sim
        self.fabric = EthernetFabric(self.sim, machine.n_nodes, host_links=HOST_LINKS)
        silent = set(silent_nodes)
        self.agents: Dict[int, NodeBootAgent] = {
            i: NodeBootAgent(
                self.sim,
                i,
                self.fabric,
                hw_ok=(i not in set(faulty_nodes)),
                silent=(i in silent),
            )
            for i in range(machine.n_nodes)
        }
        self.node_status: Dict[int, str] = {}
        self.allocations: List[Allocation] = []
        self._job_counter = 0
        self.output_log: List[Tuple[float, str]] = []
        self.booted = False
        #: hardware-problem registry (section 3.1 "status of the nodes,
        #: including hardware problems"): node id -> first failure reason
        self.failed: Dict[int, str] = {}
        #: cables the daemon has quarantined: sorted-unique (node, direction)
        self.quarantined_cables: List[Tuple[int, int]] = []
        #: how much of ``machine.link_down_log`` has been ingested — the
        #: cursor that makes quarantine atomic with allocation (see
        #: :meth:`ingest_link_down`)
        self._link_down_seen = 0
        self._ping_nonce = 0
        self.fabric.attach("host", self._on_datagram)

    # -- host-side receive -----------------------------------------------------
    def _on_datagram(self, dgram: UdpDatagram) -> None:
        if dgram.port == STATUS_UDP_PORT:
            node_id, text = dgram.payload
            self.node_status[node_id] = text

    # -- hardware-problem tracking ----------------------------------------------
    def mark_failed(self, node_id: int, reason: str) -> None:
        """Record a node as hardware-dead (first reason wins)."""
        self.failed.setdefault(node_id, reason)
        self.agents[node_id].state = BootState.FAILED

    def silence_node(self, node_id: int) -> None:
        """A node lost power mid-run: its boot agent stops answering.

        Called by :meth:`repro.machine.faults.FaultSchedule._inject` for
        ``node-dead`` events.  Deliberately does *not* mark the node
        failed — the host has not observed anything yet.  Detection
        happens the honest way: the next :meth:`health_check` ping sweep
        times out and records ``"rpc-timeout"``.
        """
        self.agents[node_id].silent = True

    # -- booting ---------------------------------------------------------------
    def _boot_one(self, node_id: int):
        send = self.fabric.send
        deadline = self.sim.now + BOOT_TIMEOUT

        def jtag(cmd: JtagCommand, nbytes: int = 256) -> Event:
            return send(
                UdpDatagram("host", node_id, JTAG_UDP_PORT, cmd, nbytes)
            )

        # Stage 1 over Ethernet/JTAG: reset, ~100 packets of boot kernel
        # written straight into the instruction cache, then start.
        yield jtag(JtagCommand(JtagOp.RESET))
        for block in range(BOOT_KERNEL_BLOCKS):
            yield jtag(
                JtagCommand(JtagOp.WRITE_ICACHE, address=block, data=f"bk{block}"),
                nbytes=1024,
            )
        yield jtag(JtagCommand(JtagOp.START))

        # Wait for the boot kernel's hardware self-test verdict — bounded:
        # a silent node never reports, and one hung poll must not wedge
        # the whole machine's bring-up.
        while self.node_status.get(node_id) not in ("boot-kernel-up", "hw-fail"):
            if self.sim.now >= deadline:
                self.mark_failed(node_id, "boot-timeout:boot-kernel")
                return False
            yield self.sim.timeout(50e-6)
        if self.node_status[node_id] == "hw-fail":
            self.mark_failed(node_id, "hw-fail")
            return False

        # Stage 2 over the standard 100 Mbit port: the run kernel.
        for block in range(RUN_KERNEL_BLOCKS):
            yield send(
                UdpDatagram(
                    "host",
                    node_id,
                    LOADER_UDP_PORT,
                    ("block", block, f"rk{block}"),
                    nbytes=1400,
                )
            )
        yield send(
            UdpDatagram("host", node_id, LOADER_UDP_PORT, ("complete", -1, None), nbytes=64)
        )
        while self.node_status.get(node_id) != "run-kernel-up":
            if self.sim.now >= deadline:
                self.mark_failed(node_id, "boot-timeout:run-kernel")
                return False
            yield self.sim.timeout(50e-6)
        return True

    def boot(self) -> Dict[int, bool]:
        """Boot every node (concurrently), then bring up the mesh.

        Returns per-node success.  After this, surviving nodes talk RPC
        and the SCU network is trained ("the run kernel initializes the
        SCU controllers and the mesh network"), the partition-interrupt
        path is checked, and the 6-dimensional machine size known.
        """
        procs = {
            i: self.sim.process(self._boot_one(i), name=f"boot{i}")
            for i in self.agents
        }
        done = self.sim.all_of(list(procs.values()))
        self.sim.run(until=done)
        results = {i: bool(p.value) for i, p in procs.items()}

        # Quarantine the mesh around electrically-dead nodes *before*
        # training: a dead node's cables never complete the HSSL training
        # byte exchange, and waiting on them would hang bring-up.
        for i, agent in sorted(self.agents.items()):
            if agent.silent:
                self.machine.network.fail_node(i)
        # Run kernels collectively train the (live) mesh links...
        self.sim.run(until=self.machine.network.train_all())
        self.machine._booted = True
        # ...and check the partition-interrupt functionality end to end.
        healthy = self.healthy_nodes()
        if not healthy:
            raise DegradedMachineError(
                requested=self.machine.topology.dims,
                failed_nodes=self.failed_nodes(),
                dead_links=self.machine.network.dead_links(),
                detail="no node survived boot",
            )
        self.machine.raise_partition_interrupt(healthy[0], 0b1)
        self.sim.run()
        # Only surviving nodes can present the interrupt: a node that
        # failed boot (or is electrically dead) never will, and counting
        # it would fail bring-up of an otherwise usable machine.
        irq_ok = all(
            self.machine.interrupts[i].presented_bits & 0b1 for i in healthy
        )
        if not irq_ok:
            raise MachineError("partition interrupt check failed during boot")
        for ctrl in self.machine.interrupts.values():
            ctrl.clear()
        self.booted = True
        return results

    @property
    def machine_size(self) -> Tuple[int, ...]:
        """The six-dimensional size the run kernel determines."""
        return self.machine.topology.dims

    # -- health monitoring -------------------------------------------------------
    def ingest_link_down(self) -> List[Tuple[int, int]]:
        """Quarantine cables implicated by new LINK_DOWN reports.

        The SCU watchdogs append to ``machine.link_down_log`` whenever
        they escalate; the daemon keeps a cursor and folds every report it
        has not yet seen into :attr:`quarantined_cables` — both ends of
        each implicated cable, including links the network layer still
        thinks healthy (a resend-storm trip on a flaky wire).  Called at
        the top of :meth:`allocate` / :meth:`adopt_partition` /
        :meth:`health_check`, so a report that arrives between a sweep
        and a placement can never leak a bad cable into an allocation —
        quarantine is atomic with allocation.  Returns the newly
        quarantined cables (sorted).
        """
        new = self.machine.link_down_log[self._link_down_seen:]
        self._link_down_seen = len(self.machine.link_down_log)
        if not new:
            return []
        known = set(self.quarantined_cables)
        topo = self.machine.topology
        fresh = set()
        for node, direction, _reason in new:
            # the other end of the same neighbour pair carries the acks
            neighbour = topo.neighbour_by_direction(node, direction)
            for cable in ((node, direction), (neighbour, topo.opposite(direction))):
                if cable not in known:
                    fresh.add(cable)
                    known.add(cable)
        for src, direction in sorted(fresh):
            if self.machine.network.link_ok(src, direction):
                self.machine.network.fail_link(src, direction, mode="dead")
        self.quarantined_cables = sorted(known)
        return sorted(fresh)

    def health_check(self, drain: bool = True) -> Dict[int, bool]:
        """RPC-ping every non-failed node; mark the non-responders failed.

        Post-boot, "all communication between the host and QCDOC is done
        via remote procedure calls" (section 3.1) — a node that stops
        answering its RPC port is dead as far as the host can observe.
        With ``drain=True`` (the default) the sweep drains the whole
        event heap, so a missing reply is a genuine timeout, not an
        in-flight race.  ``drain=False`` bounds the sweep at
        :data:`RPC_TIMEOUT` of simulated time instead — the mode a job
        service uses while *other* partitions are mid-solve (a full
        drain would run them to completion).  LINK_DOWN reports are
        ingested both before and after the sweep, so anything that
        arrives while the pings are in flight is quarantined before the
        verdict returns.
        """
        self.ingest_link_down()
        self._ping_nonce += 1
        nonce = self._ping_nonce
        candidates = [i for i in sorted(self.agents) if i not in self.failed]
        for i in candidates:
            self.node_status[i] = "pinged"
            self.fabric.send(
                UdpDatagram("host", i, RPC_UDP_PORT, ("ping", nonce), nbytes=64)
            )
        if drain:
            self.sim.run()  # drain the fabric: every reply that will come, came
        else:
            self.sim.run(until=self.sim.timeout(RPC_TIMEOUT))
        verdict: Dict[int, bool] = {}
        expect = f"rpc-ok:{nonce}"
        for i in candidates:
            ok = self.node_status.get(i) == expect
            verdict[i] = ok
            if not ok:
                self.mark_failed(i, "rpc-timeout")
        self.ingest_link_down()
        return verdict

    def handle_fault(self, drain: bool = True) -> Dict[str, list]:
        """Diagnose and contain hardware loss after a FAULT interrupt.

        Reads the LINK_DOWN reports the SCU watchdogs escalated,
        quarantines both ends of each implicated cable (a stuck-at wire
        must not be retrained into the next allocation), RPC-sweeps for
        dead nodes, and acknowledges the partition interrupt.  Returns a
        diagnosis summary for the job log.  ``drain=False`` uses the
        bounded sweep (see :meth:`health_check`) so concurrent healthy
        partitions keep their in-flight state.
        """
        self.ingest_link_down()
        verdict = self.health_check(drain=drain)
        newly_dead = sorted(i for i, ok in verdict.items() if not ok)
        for i in newly_dead:
            self.machine.network.fail_node(i)
        for ctrl in self.machine.interrupts.values():
            ctrl.clear()
        return {
            "link_down": list(self.machine.link_down_log),
            "quarantined_cables": list(self.quarantined_cables),
            "dead_nodes": newly_dead,
            "failed_nodes": self.failed_nodes(),
        }

    # -- partition allocation ---------------------------------------------------
    def held_nodes(self) -> List[int]:
        """Sorted physical nodes held by active allocations."""
        held = set()
        for alloc in self.allocations:
            if alloc.active:
                held.update(
                    alloc.partition.physical_node(r)
                    for r in range(alloc.partition.n_nodes)
                )
        return sorted(held)

    def allocate(
        self,
        user: str,
        groups: Sequence[Sequence[int]],
        origin: Optional[Sequence[int]] = None,
        extents: Optional[Sequence[int]] = None,
        require_periodic: bool = True,
    ) -> Allocation:
        """Carve out a user partition on *healthy* hardware.

        Refuses overlap with active jobs.  If the requested placement
        touches failed nodes or dead cables, the daemon searches every
        placement of the same logical shape for a healthy one — the
        companion papers' route-around-dead-hardware operating mode — and
        raises :class:`~repro.util.errors.DegradedMachineError` only when
        none exists.
        """
        if not self.booted:
            raise MachineError("machine not booted")
        self.ingest_link_down()  # quarantine atomically with placement
        partition = self.machine.partition(
            groups, origin=origin, extents=extents, require_periodic=require_periodic
        )
        # the *requested* placement must be free even when remap moves it
        self._check_no_overlap(
            {partition.physical_node(r) for r in range(partition.n_nodes)}
        )
        unusable = set(self.failed_nodes()) | set(self.failed)
        if not partition_is_healthy(self.machine, partition, unusable):
            partition = find_healthy_partition(
                self.machine,
                groups,
                partition.extents,
                exclude_nodes=sorted(unusable | set(self.held_nodes())),
                require_periodic=require_periodic,
            )
        return self.adopt_partition(user, partition)

    def adopt_partition(self, user: str, partition: Partition) -> Allocation:
        """Register an externally-computed placement as an allocation.

        The job-service scheduler picks placements itself (it packs many
        concurrent partitions and must control the exclusion set); the
        daemon still owns the books, so adoption re-checks what
        :meth:`allocate` would have: fresh LINK_DOWN ingestion, no
        overlap with active jobs, and no dead hardware under the
        placement.
        """
        if not self.booted:
            raise MachineError("machine not booted")
        self.ingest_link_down()  # quarantine atomically with placement
        new_nodes = {
            partition.physical_node(r) for r in range(partition.n_nodes)
        }
        self._check_no_overlap(new_nodes)
        unusable = set(self.failed_nodes()) | set(self.failed)
        if not partition_is_healthy(self.machine, partition, unusable):
            raise DegradedMachineError(
                requested=partition.extents,
                failed_nodes=sorted(unusable),
                dead_links=self.machine.network.dead_links(),
                detail="adopted placement touches dead hardware",
            )
        self._job_counter += 1
        alloc = Allocation(self._job_counter, user, partition)
        self.allocations.append(alloc)
        return alloc

    def _check_no_overlap(self, new_nodes: set) -> None:
        for alloc in self.allocations:
            if not alloc.active:
                continue
            held = {
                alloc.partition.physical_node(r)
                for r in range(alloc.partition.n_nodes)
            }
            if held & new_nodes:
                raise MachineError(
                    f"allocation overlaps active job {alloc.job_id} "
                    f"({len(held & new_nodes)} shared nodes)"
                )

    def release(self, alloc: Allocation) -> None:
        alloc.active = False

    # -- job execution --------------------------------------------------------
    def run_job(
        self,
        alloc: Allocation,
        program: Callable[..., object],
        max_time: float = 100.0,
        **kwargs,
    ) -> List[object]:
        """Load and start an application on a user partition.

        Returns the per-rank results; the application's summary line is
        appended to the output stream returned to the user (via qcsh).
        The run is one whole job: it is finalized however it ends, so the
        partition's nodes are back in boot state for the next job.
        """
        if not alloc.active:
            raise MachineError(f"job {alloc.job_id} was released")
        results = run_on_partition(
            self.machine, alloc.partition, program, max_time, **kwargs
        )
        self.output_log.append(
            (self.sim.now, f"job {alloc.job_id} ({alloc.user}): completed "
             f"{alloc.partition.n_nodes} ranks")
        )
        return results

    # -- status ------------------------------------------------------------
    def healthy_nodes(self) -> List[int]:
        return [
            i
            for i, agent in self.agents.items()
            if agent.state == BootState.RUN_KERNEL
        ]

    def failed_nodes(self) -> List[int]:
        return [
            i for i, agent in self.agents.items() if agent.state == BootState.FAILED
        ]
