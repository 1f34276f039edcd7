"""Machine-as-a-service: the job service over one qdaemon-managed machine.

The companion papers run QCDOC as a shared facility: the qdaemon boots
the machine once and then carves independently bootable sub-torus
partitions for users as jobs come and go.  :class:`QcdocService` is that
operating mode for the software twin — a submission queue with admission
control, the :class:`~repro.service.scheduler.SchedulerCore` packing
concurrent congruent partitions, and a recovery loop that turns SCU
watchdog LINK_DOWN escalations into quarantine + remap + resubmit with
zero lost jobs.

Concurrency model: jobs run as :class:`~repro.machine.machine
.PartitionRun` launches on *one* shared event simulation; the service is
the (host-side) coordinator that advances the simulation between
scheduling decisions.  ``sim.run(stop=...)`` returns to the service
whenever something it must act on happened — a run settled (direct
callback) or a revocation ticker fired — so the host never busy-waits
and never runs a foreign job to completion by accident.  Everything is
deterministic: decisions happen at event boundaries, orderings are
explicit, and no wall-clock or entropy source is consulted.

Preemption protocol (satellite of DESIGN.md §13):

1. the scheduler emits :class:`~repro.service.scheduler.Preempt`;
2. the victim enters ``PREEMPTING`` but keeps running until its
   host-side checkpoint store holds a *complete* generation — the
   "always checkpoint before revoke" invariant is structural;
3. the victim is aborted, drained to quiescence (no live rank process,
   no in-flight word on its nodes), finalized, released, and requeued
   with its original submission seq;
4. its next launch resumes from the newest complete generation —
   bit-identical to the run it would have had (PR 5's guarantee).

Fault recovery is the same drain with abort-first (the partition is
already dead) plus a bounded qdaemon diagnosis sweep
(``handle_fault(drain=False)``) that quarantines cables/nodes without
running healthy neighbours' jobs to completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.host.qdaemon import Qdaemon
from repro.host.remap import find_healthy_partition
from repro.parallel.decomp import PhysicsMapping
from repro.parallel.pcg import cg_rank_program, gather_cg_results, wilson_context
from repro.service.jobs import (
    Job,
    JobResult,
    JobState,
    Recovery,
    TenantRollup,
    WilsonJobSpec,
)
from repro.service.scheduler import (
    Preempt,
    SchedJob,
    SchedulerCore,
    Start,
)
from repro.solvers.checkpoint import CGCheckpointStore
from repro.telemetry.counters import merge_samples, usage_delta, usage_totals
from repro.util.errors import (
    ConfigError,
    DegradedMachineError,
    MachineError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import PartitionRun
    from repro.machine.topology import Partition

#: simulated seconds between revocation-ticker checks while a victim
#: drains: pure polling granularity, results are identical for any value,
#: only decision timestamps move
POLL_PERIOD = 2e-6


class QcdocService:
    """Multi-tenant job service over one booted, qdaemon-managed machine.

    Parameters
    ----------
    daemon:
        A :class:`~repro.host.qdaemon.Qdaemon` whose :meth:`boot` has
        succeeded.  The service adopts placements through it, so the
        daemon's books (allocations, quarantine, failed nodes) stay the
        single source of truth.
    quotas:
        Per-tenant cap on concurrently held nodes (admission refuses
        wider jobs outright).  Tenants absent from the dict are
        unlimited.
    checkpoint_every:
        Cadence (CG iterations) of each job's host-side checkpoint
        store — the preemption/recovery granularity.
    max_restarts:
        Fault-driven restarts a single job may survive before it is
        failed (a job repeatedly unlucky enough to sit on dying
        hardware must not cycle forever).
    """

    def __init__(
        self,
        daemon: Qdaemon,
        quotas: Optional[Dict[str, int]] = None,
        checkpoint_every: int = 5,
        max_restarts: int = 3,
    ) -> None:
        if not daemon.booted:
            raise MachineError("boot the machine before serving jobs")
        machine = daemon.machine
        if machine.shards > 1 and machine.shard_workers != "serial":
            raise ConfigError(
                "the job service multiplexes partitions in-process; "
                "use shard_workers='serial'"
            )
        self.daemon = daemon
        self.machine = machine
        self.sim = machine.sim
        self.checkpoint_every = int(checkpoint_every)
        self.max_restarts = int(max_restarts)
        self.core = SchedulerCore(self._place, quotas=quotas)
        #: every job ever admitted, by id (terminal jobs included —
        #: the zero-lost-jobs audit trail)
        self.jobs: Dict[int, Job] = {}
        #: jobs currently holding hardware (RUNNING/PREEMPTING/RECOVERING)
        self._active: Dict[int, Job] = {}
        self.rollups: Dict[str, TenantRollup] = {}
        self._seq = 0
        self._wake = False
        self.started_serving: Optional[float] = None

    # -- placement (the scheduler's injected place_fn) -----------------------
    def _place(
        self, entry: SchedJob, held: Iterable[int]
    ) -> Optional[Tuple["Partition", FrozenSet[int]]]:
        """First healthy congruent placement avoiding held/dead hardware."""
        spec = self.jobs[entry.job_id].spec
        exclude = sorted(
            set(self.daemon.failed_nodes()) | set(self.daemon.failed) | set(held)
        )
        try:
            partition = find_healthy_partition(
                self.machine,
                spec.groups,
                spec.extents,
                exclude_nodes=exclude,
                require_periodic=spec.require_periodic,
            )
        except DegradedMachineError:
            return None
        nodes = frozenset(
            partition.physical_node(r) for r in range(partition.n_nodes)
        )
        return partition, nodes

    # -- submission ----------------------------------------------------------
    def submit(
        self, spec: WilsonJobSpec, tenant: str = "default", priority: int = 0
    ) -> Job:
        """Admit one job (synchronous; raises on admission refusal)."""
        spec.validate()
        if spec.n_nodes > self.machine.n_nodes:
            raise ConfigError(
                f"job wants {spec.n_nodes} nodes; machine has "
                f"{self.machine.n_nodes}"
            )
        self._seq += 1
        job = Job(
            job_id=self._seq,
            tenant=tenant,
            spec=spec,
            priority=priority,
            seq=self._seq,
            submit_time=self.sim.now,
            store=CGCheckpointStore(every=self.checkpoint_every),
        )
        self.core.submit(
            SchedJob(
                job_id=job.job_id,
                tenant=tenant,
                n_nodes=spec.n_nodes,
                priority=priority,
                seq=job.seq,
            )
        )
        self.jobs[job.job_id] = job
        if self.started_serving is None:
            self.started_serving = self.sim.now
        return job

    # -- the service loop ----------------------------------------------------
    @property
    def drained(self) -> bool:
        """No job holds hardware and none waits in the queue."""
        return not self._active and not self.core.pending

    def pump(self) -> bool:
        """One host-side decision round: reap outcomes, then dispatch.

        Returns True when anything changed (a job completed, started,
        was revoked, requeued, or failed) — the caller keeps pumping
        until a round is quiet, then advances the simulation.
        """
        progressed = self._reap()
        if self._dispatch():
            progressed = True
        return progressed

    def advance(
        self,
        max_time: float = float("inf"),
        horizon: Optional[float] = None,
    ) -> bool:
        """Run the shared simulation until the service must act again.

        ``horizon`` is a *soft* bound (simulated seconds from now): the
        advance returns quietly when it elapses, so a driver can
        interleave submissions with partial progress.  ``max_time`` stays
        the engine's hard deadlock horizon (absolute; exceeding it
        raises).
        """
        if self.sim.peek() == float("inf"):
            if self._active:
                raise MachineError(
                    "service deadlock: jobs hold hardware but no event "
                    "is scheduled"
                )
            return False
        self._wake = False
        until = None if horizon is None else self.sim.timeout(horizon)
        self.sim.run(until=until, stop=self._woken, max_time=max_time)
        return True

    def _woken(self) -> bool:
        return self._wake or not self._active

    def run_until_drained(self, max_time: float = float("inf")) -> dict:
        """Drive the queue to empty, then report.

        On return every submitted job is terminal (DONE or FAILED), the
        machine holds zero allocated partitions, all in-flight words
        have drained, and the link checksum audit has run.
        """
        while not self.drained:
            if self.pump():
                continue
            self.advance(max_time)
        self.machine.quiesce()
        return self.report()

    # -- reaping -------------------------------------------------------------
    def _reap(self) -> bool:
        progressed = False
        for job_id in sorted(self._active):
            job = self._active.get(job_id)
            if job is None:
                continue
            run = job.run
            if run.faults and not run.aborted:
                self._begin_recovery(job)
                progressed = True
            elif run.settled and not run.faults and not run.aborted:
                self._complete(job)
                progressed = True
            elif (
                job.state is JobState.PREEMPTING
                and not run.aborted
                and job.store.has_complete_generation(run.n_ranks)
            ):
                # the checkpoint-before-revoke gate just opened
                run.abort()
                progressed = True
            elif run.aborted and run.quiesced():
                self._finish_revoke(job)
                progressed = True
        return progressed

    # -- dispatching ---------------------------------------------------------
    def _dispatch(self) -> bool:
        self.daemon.ingest_link_down()
        progressed = False
        for action in self.core.dispatch():
            if isinstance(action, Start):
                if self._start(self.jobs[action.job_id], action.placement):
                    progressed = True
            elif isinstance(action, Preempt):
                self._revoke(action)
                progressed = True
        if not progressed and not self._active and self.core.pending:
            progressed = self._fail_unplaceable()
        return progressed

    def _start(self, job: Job, partition: "Partition") -> bool:
        """Launch (or resume) one job on an adopted placement."""
        spec = job.spec
        try:
            alloc = self.daemon.adopt_partition(job.tenant, partition)
        except MachineError:
            # A LINK_DOWN ingested at adoption invalidated the placement
            # between the scheduler's decision and now; requeue at the
            # original position and let the next round re-place it.
            self.core.job_ended(job.job_id, 0.0, requeue=True)
            return False
        resume_states = None
        if job.restarts or job.preemptions:
            resume_states = job.store.latest_complete_states(
                partition.n_nodes
            )
        last = job.diagnoses[-1] if job.diagnoses else None
        if last is not None and not last.partition_nodes:
            # the relaunch after a fault closes that recovery's record
            if resume_states is not None:
                last.resumed_from = next(iter(resume_states.values()))["it"]
            ranks = range(partition.n_nodes)
            last.partition_nodes = [partition.physical_node(r) for r in ranks]
        mapping = PhysicsMapping(spec.gauge.geometry, partition)
        run = self.machine.launch_partition(
            partition,
            cg_rank_program,
            tag=f"job{job.job_id}",
            context=wilson_context(mapping, spec.gauge, spec.mass, spec.c_sw),
            local_b=mapping.scatter_field(spec.b),
            tol=spec.tol,
            maxiter=spec.maxiter,
            checkpoint=job.store,
            resume_states=resume_states,
        )
        run.on_settled = self._on_settled
        job.run = run
        job.alloc = alloc
        job.mapping = mapping
        job.state = JobState.RUNNING
        if job.started_at is None:
            job.started_at = self.sim.now
        job.last_start = self.sim.now
        job.usage_baseline = usage_totals(self.machine, run.node_ids())
        self._active[job.job_id] = job
        return True

    def _on_settled(self, run: "PartitionRun") -> None:
        self._wake = True

    # -- revocation (preemption + fault recovery) ----------------------------
    def _revoke(self, action: Preempt) -> None:
        victim = self.jobs[action.victim_id]
        if victim.state is not JobState.RUNNING:
            return  # already settling or draining; the plan is stale
        victim.state = JobState.PREEMPTING
        if victim.store.has_complete_generation(victim.run.n_ranks):
            victim.run.abort()
        self._spawn_ticker(victim)

    def _begin_recovery(self, job: Job) -> None:
        had_ticker = job.state is JobState.PREEMPTING
        job.state = JobState.RECOVERING
        job.run.abort()
        if not had_ticker:
            self._spawn_ticker(job)
        self._wake = True

    def _spawn_ticker(self, job: Job) -> None:
        """Keep the service waking while a revocation drains.

        The ticker is the liveness source for states with no settle
        callback: each period it flags a wake-up so :meth:`_reap` can
        re-check the checkpoint gate / quiescence.  It exits on its own
        once the job leaves the draining states.
        """

        def tick():
            while job.state in (JobState.PREEMPTING, JobState.RECOVERING):
                self._wake = True
                yield self.sim.timeout(POLL_PERIOD)

        self.sim.process(tick(), name=f"revoke-ticker{job.job_id}")

    def _teardown(self, job: Job, requeue: bool) -> None:
        """The one end of an attempt, however it ended: finalize (nodes
        back in boot state), release, account, tell the scheduler."""
        run = job.run
        run.finalize()
        self.daemon.release(job.alloc)
        after = usage_totals(self.machine, run.node_ids())
        job.usage = merge_samples([job.usage, usage_delta(after, job.usage_baseline)])
        held = self.sim.now - job.last_start
        job.run_seconds += held
        del self._active[job.job_id]
        self.core.job_ended(job.job_id, run.n_ranks * held, requeue=requeue)

    def _finish_revoke(self, job: Job) -> None:
        """A drained victim goes back to the queue — after a fault, past the
        daemon's bounded diagnosis and only while its restart budget lasts."""
        if job.state is JobState.PREEMPTING:
            job.preemptions += 1
            self._teardown(job, requeue=True)
            job.state = JobState.QUEUED
            return
        job.restarts += 1
        exhausted = job.restarts > self.max_restarts
        self._teardown(job, requeue=not exhausted)
        fault = job.run.faults[0]
        job.diagnoses.append(
            Recovery(
                time=self.sim.now,
                error=str(fault),
                diagnosis=self.daemon.handle_fault(drain=False),
            )
        )
        if exhausted:
            self._fail(
                job,
                MachineError(
                    f"job {job.job_id} exceeded its restart budget of "
                    f"{self.max_restarts} (last fault: {fault!r})"
                ),
            )
        else:
            job.state = JobState.QUEUED

    # -- resolution ----------------------------------------------------------
    def _complete(self, job: Job) -> None:
        results = job.run.results()
        self._teardown(job, requeue=False)
        solve = gather_cg_results(
            self.machine,
            job.mapping.gather_field,
            results,
            machine_time=job.run_seconds,
            flops=job.usage.get("flops", 0.0),
            audit=False,  # other jobs are mid-flight; audited at drain
        )
        job.result = JobResult(
            job_id=job.job_id,
            tenant=job.tenant,
            x=solve.x,
            converged=solve.converged,
            iterations=solve.iterations,
            residuals=solve.residuals,
            machine_time=job.run_seconds,
            flops=job.usage.get("flops", 0.0),
            restarts=job.restarts,
            preemptions=job.preemptions,
            queue_latency=job.queue_latency,
        )
        self._resolve(job, JobState.DONE)

    def _fail(self, job: Job, error: BaseException) -> None:
        job.error = error
        self._resolve(job, JobState.FAILED)

    def _resolve(self, job: Job, state: JobState) -> None:
        """A job reaches its terminal state, once, and its tenant's rollup."""
        job.state = state
        job.finished_at = self.sim.now
        self.rollups.setdefault(job.tenant, TenantRollup(job.tenant)).absorb(job)

    def _fail_unplaceable(self) -> bool:
        """Nothing runs and nothing starts: the leftovers cannot ever run.

        With an idle machine, quota cannot be the blocker (admission
        bounds every job by its quota), so a pending job that still has
        no placement is blocked by dead hardware — permanently.  Failing
        it (with the degraded-machine diagnosis) instead of leaving it
        queued is what "zero lost jobs" means on a shrinking machine.
        """
        progressed = False
        for entry in self.core.order():
            if self._place(entry, frozenset()) is None:
                self.core.drop_pending(entry.job_id)
                self._fail(
                    self.jobs[entry.job_id],
                    DegradedMachineError(
                        requested=tuple(self.jobs[entry.job_id].spec.extents),
                        failed_nodes=sorted(
                            set(self.daemon.failed_nodes())
                            | set(self.daemon.failed)
                        ),
                        dead_links=self.machine.network.dead_links(),
                        detail="no healthy congruent sub-torus remains",
                    ),
                )
                progressed = True
        if not progressed:
            raise MachineError(
                "service wedged: idle machine, placeable jobs, no dispatch"
            )
        return progressed

    # -- reporting -----------------------------------------------------------
    def report(self) -> dict:
        """Service-level accounting (the E17 artifact's body)."""
        states: Dict[str, int] = {}
        for job_id in sorted(self.jobs):
            state = self.jobs[job_id].state.value
            states[state] = states.get(state, 0) + 1
        terminal = [j for j in self.jobs.values() if j.terminal]
        latencies = [j.queue_latency for j in terminal]
        p50, p99 = (
            np.percentile(latencies, [50, 99]).tolist() if latencies else (0.0, 0.0)
        )
        busy_node_seconds = sum(
            j.run_seconds * j.spec.n_nodes for j in self.jobs.values()
        )
        makespan = (
            self.sim.now - self.started_serving
            if self.started_serving is not None
            else 0.0
        )
        capacity = self.machine.n_nodes * makespan
        return {
            "jobs": {
                "submitted": len(self.jobs),
                "resolved": len(terminal),
                "lost": len(self.jobs) - len(terminal) - len(self._active)
                - len(self.core.pending),
                "states": states,
                "restarts": sum(j.restarts for j in self.jobs.values()),
                "preemptions": sum(
                    j.preemptions for j in self.jobs.values()
                ),
            },
            "queue_latency": {
                "p50": p50,
                "p99": p99,
                "max": max(latencies) if latencies else 0.0,
            },
            "packing": {
                "busy_node_seconds": busy_node_seconds,
                "makespan": makespan,
                "efficiency": (
                    busy_node_seconds / capacity if capacity > 0 else 0.0
                ),
            },
            "machine": {
                "nodes": self.machine.n_nodes,
                "shards": self.machine.shards,
                "held_nodes": len(self.daemon.held_nodes()),
                "failed_nodes": sorted(
                    set(self.daemon.failed_nodes()) | set(self.daemon.failed)
                ),
                "quarantined_cables": list(self.daemon.quarantined_cables),
                "in_flight_words": sum(
                    self.machine.nodes[i].scu.in_flight_words()
                    for i in sorted(self.machine.nodes)
                ),
                "checksum_mismatches": self.machine.audit_checksums(),
            },
            "tenants": {
                name: self.rollups[name].as_dict()
                for name in sorted(self.rollups)
            },
        }

    def __repr__(self) -> str:
        return (
            f"QcdocService({len(self.core.pending)} queued, "
            f"{len(self._active)} active, "
            f"{len(self.jobs)} total on {self.machine!r})"
        )
