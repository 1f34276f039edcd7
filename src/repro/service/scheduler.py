"""Partition scheduler core: pure decision logic, no simulator.

The qdaemon of the companion papers time-shares one machine between
users by carving independently bootable sub-torus partitions; this
module decides *which* queued job gets *which* placement and when.  It
is deliberately free of any machine or event-loop dependency — placement
is delegated to an injected ``place_fn`` — so the Hypothesis property
suite (``tests/test_service_scheduler.py``) can drive thousands of
submit/dispatch/complete interleavings directly and check the
invariants:

* no two running jobs ever share a node;
* a tenant's running jobs never hold more nodes than its quota;
* jobs of equal (priority, tenant, size) start in submission order;
* a preemption plan only ever victimises strictly-lower-priority jobs.

Policy: strict priority first, then fair share (tenants with less
accumulated node-seconds go first), then FIFO.  Placement is first-fit
over the injected enumeration with backfill — a job that does not fit
does not block smaller jobs behind it — and priority
preemption: when the head job fits nowhere, the cheapest set of
lower-priority victims whose nodes would make room is asked to
checkpoint and drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.util.errors import MachineError


class AdmissionError(MachineError):
    """The submission can never run under this tenant's quota."""


class QueueFullError(MachineError):
    """The bounded submission queue is at capacity."""


@dataclass(frozen=True)
class SchedJob:
    """What the scheduler needs to know about one job."""

    job_id: int
    tenant: str
    n_nodes: int
    priority: int = 0
    #: submission sequence number — the FIFO key, preserved across
    #: requeues so a preempted job keeps its place in line
    seq: int = 0


@dataclass(frozen=True)
class Start:
    """Dispatch decision: launch ``job_id`` on ``placement``."""

    job_id: int
    placement: object
    nodes: FrozenSet[int]


@dataclass(frozen=True)
class Preempt:
    """Dispatch decision: checkpoint-and-revoke ``victim_id`` so the
    higher-priority ``beneficiary_id`` can be placed."""

    victim_id: int
    beneficiary_id: int


#: ``place_fn(job, held_nodes) -> (placement, nodes) | None`` — find a
#: placement for ``job`` avoiding ``held_nodes`` (plus whatever hardware
#: the implementation knows is dead).  Must be deterministic.
PlaceFn = Callable[
    [SchedJob, FrozenSet[int]], Optional[Tuple[object, FrozenSet[int]]]
]


class SchedulerCore:
    """Admission, ordering, packing, and preemption planning.

    The host service calls :meth:`submit` / :meth:`dispatch` /
    :meth:`job_ended`; this class never touches the machine — it only
    records who holds which nodes and emits :class:`Start` /
    :class:`Preempt` decisions for the caller to execute.
    """

    def __init__(
        self,
        place_fn: PlaceFn,
        quotas: Optional[Dict[str, int]] = None,
        max_queue: int = 256,
    ) -> None:
        self.place_fn = place_fn
        self.quotas: Dict[str, int] = dict(quotas or {})
        self.max_queue = int(max_queue)
        #: admitted, not running (insertion order; :meth:`order` ranks it)
        self.pending: List[SchedJob] = []
        #: job_id -> (entry, held nodes, start counter)
        self.running: Dict[int, Tuple[SchedJob, FrozenSet[int], int]] = {}
        #: accumulated node-seconds per tenant — the fair-share key
        self.usage: Dict[str, float] = {}
        #: victim job_id -> beneficiary job_id for in-flight preemptions
        self.preempting: Dict[int, int] = {}
        self._starts = 0

    # -- admission -----------------------------------------------------------
    def quota(self, tenant: str) -> Optional[int]:
        return self.quotas.get(tenant)

    def submit(self, job: SchedJob) -> None:
        """Admit a job to the queue, or refuse it outright.

        Refusal is immediate and typed: a job wider than its tenant's
        quota can *never* run (:class:`AdmissionError`), and a full
        queue applies backpressure (:class:`QueueFullError`) instead of
        growing without bound.
        """
        quota = self.quota(job.tenant)
        if quota is not None and job.n_nodes > quota:
            raise AdmissionError(
                f"job {job.job_id} wants {job.n_nodes} nodes; tenant "
                f"{job.tenant!r} quota is {quota}"
            )
        if len(self.pending) >= self.max_queue:
            raise QueueFullError(
                f"queue full ({self.max_queue} pending jobs)"
            )
        self.pending.append(job)

    # -- bookkeeping ---------------------------------------------------------
    def held_nodes(self) -> FrozenSet[int]:
        held: set = set()
        for _entry, nodes, _idx in self.running.values():
            held |= nodes
        return frozenset(held)

    def active_nodes(self, tenant: str) -> int:
        return sum(
            len(nodes)
            for entry, nodes, _idx in self.running.values()
            if entry.tenant == tenant
        )

    def job_ended(
        self, job_id: int, node_seconds: float = 0.0, requeue: bool = False
    ) -> None:
        """A running job finished, failed, or was revoked.

        ``node_seconds`` feeds the tenant's fair-share usage;
        ``requeue=True`` (preemption, fault recovery) puts the entry back
        in the queue with its original ``seq``, so it re-enters FIFO at
        its old position rather than the back of the line.
        """
        entry, _nodes, _idx = self.running.pop(job_id)
        self.usage[entry.tenant] = (
            self.usage.get(entry.tenant, 0.0) + node_seconds
        )
        self.preempting.pop(job_id, None)
        if requeue:
            self.pending.append(entry)

    def drop_pending(self, job_id: int) -> None:
        """Remove a queued job (permanent failure or cancellation)."""
        self.pending = [j for j in self.pending if j.job_id != job_id]

    # -- ordering ------------------------------------------------------------
    def order(self) -> List[SchedJob]:
        """Queue in dispatch order: priority desc, fair share, FIFO.

        The fair-share key is the tenant's accumulated node-seconds, so
        a tenant that has consumed less machine goes first; ties break
        on tenant name then submission sequence (both total, so the
        order is deterministic).
        """
        return sorted(
            self.pending,
            key=lambda j: (
                -j.priority,
                self.usage.get(j.tenant, 0.0),
                j.tenant,
                j.seq,
            ),
        )

    # -- dispatch ------------------------------------------------------------
    def dispatch(self) -> List[object]:
        """Decide what to launch (and whom to preempt) right now.

        First-fit with backfill over :meth:`order`: each queue entry in
        turn is offered every node not yet held (including nodes claimed
        by earlier decisions in this very round); entries that fit
        nowhere — or whose tenant is at quota — are skipped rather than
        blocking the queue.  If nothing could start and the head job is
        blocked on *space* (not quota), a preemption plan is drawn up
        against strictly-lower-priority victims.
        """
        actions: List[object] = []
        held = set(self.held_nodes())
        active = {
            entry.tenant: 0 for entry, _n, _i in self.running.values()
        }
        for entry, nodes, _idx in self.running.values():
            active[entry.tenant] += len(nodes)
        space_blocked: Optional[SchedJob] = None
        for job in self.order():
            quota = self.quota(job.tenant)
            if (
                quota is not None
                and active.get(job.tenant, 0) + job.n_nodes > quota
            ):
                continue
            placed = self.place_fn(job, frozenset(held))
            if placed is None:
                if space_blocked is None:
                    space_blocked = job
                continue
            placement, nodes = placed
            nodes = frozenset(nodes)
            self.pending.remove(job)
            self._starts += 1
            self.running[job.job_id] = (job, nodes, self._starts)
            actions.append(Start(job.job_id, placement, nodes))
            held |= nodes
            active[job.tenant] = active.get(job.tenant, 0) + len(nodes)
        if not actions and space_blocked is not None:
            actions.extend(
                self._plan_preemption(space_blocked, frozenset(held))
            )
        return actions

    def _plan_preemption(
        self, job: SchedJob, held: FrozenSet[int]
    ) -> List[Preempt]:
        """The cheapest victim set that would make room for ``job``.

        Victims must be strictly lower priority and not already
        draining; they are taken lowest-priority-first, most-recently-
        started first (LIFO — the job that has run longest keeps
        running).  Victims accumulate until the placement succeeds; if
        even revoking every eligible victim frees no valid placement,
        nobody is disturbed.
        """
        if any(b == job.job_id for b in self.preempting.values()):
            return []  # victims already draining for this job
        candidates = sorted(
            (
                (entry, nodes, idx)
                for job_id, (entry, nodes, idx) in self.running.items()
                if entry.priority < job.priority
                and job_id not in self.preempting
            ),
            key=lambda t: (t[0].priority, -t[2]),
        )
        victims: List[SchedJob] = []
        freed: set = set()
        for entry, nodes, _idx in candidates:
            victims.append(entry)
            freed |= nodes
            if self.place_fn(job, frozenset(held - freed)) is not None:
                for victim in victims:
                    self.preempting[victim.job_id] = job.job_id
                return [
                    Preempt(victim.job_id, job.job_id) for victim in victims
                ]
        return []

    def __repr__(self) -> str:
        return (
            f"SchedulerCore({len(self.pending)} pending, "
            f"{len(self.running)} running, "
            f"{len(self.preempting)} preempting)"
        )
