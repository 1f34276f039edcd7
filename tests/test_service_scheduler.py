"""Property suite for the job-service scheduler (PR 8, satellite 1).

The :class:`~repro.service.scheduler.SchedulerCore` is pure decision
logic with an injected placement function, so Hypothesis can drive
thousands of submit/dispatch/complete/requeue interleavings directly —
no machine, no event loop — and check the service invariants:

* no two running jobs ever share a node;
* a tenant's running jobs never exceed its node quota, and admission
  refuses jobs that could never fit under it;
* jobs of equal (priority, tenant, size) start in submission order
  (FIFO within a priority class);
* preemption only ever victimises strictly-lower-priority jobs, and a
  victim is never asked to drain twice;
* a drained scheduler holds zero nodes.

The service-level invariants that need real hardware semantics — the
checkpoint-before-revoke gate and the clean post-drain machine — run
here too, on a deliberately tiny machine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.qdaemon import Qdaemon
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.service import (
    AdmissionError,
    JobState,
    QcdocService,
    QueueFullError,
    SchedJob,
    SchedulerCore,
    Start,
    WilsonJobSpec,
)
from repro.util import rng_stream
from tests.harness import assert_boot_state

pytestmark = pytest.mark.service


# ---------------------------------------------------------------------------
# a pure stand-in machine: N nodes, size-aligned contiguous blocks
# ---------------------------------------------------------------------------

N_NODES = 16


def block_place_fn(job, held):
    """First size-aligned free block of ``job.n_nodes`` contiguous nodes.

    Mimics the congruent-sub-torus enumeration's shape: deterministic
    scan order, placements only at aligned origins (so fragmentation is
    possible and backfill is meaningful).
    """
    k = job.n_nodes
    for origin in range(0, N_NODES, k):
        nodes = frozenset(range(origin, origin + k))
        if not (nodes & held):
            return (origin, nodes)
    return None


def submissions():
    """Random admissible job streams over a few tenants and sizes."""
    return st.lists(
        st.tuples(
            st.sampled_from(["alice", "bob", "carol"]),
            st.sampled_from([1, 2, 4, 8]),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=24,
    )


def check_invariants(core, quotas):
    held = []
    for _entry, nodes, _idx in core.running.values():
        held.extend(nodes)
    assert len(held) == len(set(held)), "two running jobs share a node"
    for tenant, quota in quotas.items():
        assert core.active_nodes(tenant) <= quota, (
            f"tenant {tenant} over quota"
        )
    for victim_id, beneficiary_id in core.preempting.items():
        assert victim_id in core.running


class TestSchedulerProperties:
    @given(subs=submissions(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_node_sharing_under_random_interleaving(self, subs, data):
        quotas = {"alice": 8, "bob": 16, "carol": 4}
        core = SchedulerCore(block_place_fn, quotas=quotas)
        seq = 0
        for tenant, size, priority in subs:
            seq += 1
            if size > quotas[tenant]:
                with pytest.raises(AdmissionError):
                    core.submit(SchedJob(seq, tenant, size, priority, seq))
                continue
            core.submit(SchedJob(seq, tenant, size, priority, seq))
            for action in core.dispatch():
                if isinstance(action, Start):
                    assert action.nodes == frozenset(
                        range(action.placement, action.placement + len(action.nodes))
                    )
            check_invariants(core, quotas)
            # randomly retire or requeue one running job
            if core.running and data.draw(st.booleans()):
                victim = min(core.running)
                requeue = data.draw(st.booleans())
                core.job_ended(victim, node_seconds=1.0, requeue=requeue)
                core.dispatch()
                check_invariants(core, quotas)
        # drain: finish everything, dispatching as space frees up
        while core.running or core.pending:
            if core.running:
                core.job_ended(min(core.running), node_seconds=1.0)
            before = len(core.pending)
            core.dispatch()
            check_invariants(core, quotas)
            if not core.running and len(core.pending) == before and core.pending:
                break  # nothing placeable ever again (can't happen here)
        assert core.held_nodes() == frozenset()

    @given(
        sizes=st.lists(st.sampled_from([2, 4]), min_size=3, max_size=10)
    )
    @settings(max_examples=40, deadline=None)
    def test_fifo_within_priority_class(self, sizes):
        """Equal (priority, tenant, size) jobs must start in seq order."""
        core = SchedulerCore(block_place_fn)
        started = []
        for seq, _size in enumerate(sizes, start=1):
            # one size for everyone: FIFO must then be total
            core.submit(SchedJob(seq, "t", 4, priority=0, seq=seq))
        while core.pending or core.running:
            for action in core.dispatch():
                if isinstance(action, Start):
                    started.append(action.job_id)
            if core.running:
                core.job_ended(min(core.running), node_seconds=1.0)
        assert started == sorted(started)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_preemption_victims_strictly_lower_priority(self, data):
        core = SchedulerCore(block_place_fn)
        # fill the machine with low-priority jobs
        n_fill = N_NODES // 8
        for seq in range(1, n_fill + 1):
            core.submit(SchedJob(seq, "batch", 8, priority=0, seq=seq))
        assert sum(isinstance(a, Start) for a in core.dispatch()) == n_fill
        hi_priority = data.draw(st.integers(min_value=1, max_value=3))
        core.submit(SchedJob(99, "urgent", 8, priority=hi_priority, seq=99))
        actions = core.dispatch()
        assert actions, "a full machine must trigger a preemption plan"
        for action in actions:
            assert action.beneficiary_id == 99
            victim_entry, _nodes, _idx = core.running[action.victim_id]
            assert victim_entry.priority < hi_priority
        # a second dispatch must not double-revoke the same victims
        assert core.dispatch() == []

    def test_equal_priority_never_preempts(self):
        core = SchedulerCore(block_place_fn)
        core.submit(SchedJob(1, "a", 16, priority=5, seq=1))
        core.dispatch()
        core.submit(SchedJob(2, "b", 16, priority=5, seq=2))
        assert core.dispatch() == []

    def test_backfill_lets_small_jobs_pass_a_stuck_head(self):
        core = SchedulerCore(block_place_fn)
        core.submit(SchedJob(1, "a", 8, priority=0, seq=1))
        assert [a.job_id for a in core.dispatch()] == [1]
        core.submit(SchedJob(2, "a", 16, priority=0, seq=2))  # stuck head
        core.submit(SchedJob(3, "b", 8, priority=0, seq=3))
        # the 16-node head cannot fit while job 1 runs, but the 8-node
        # job behind it can take the other half of the machine
        assert [a.job_id for a in core.dispatch()] == [3]

    def test_requeue_preserves_queue_position(self):
        core = SchedulerCore(block_place_fn)
        core.submit(SchedJob(1, "t", 8, priority=0, seq=1))
        core.submit(SchedJob(2, "t", 8, priority=0, seq=2))
        core.submit(SchedJob(3, "t", 8, priority=0, seq=3))
        started = [a.job_id for a in core.dispatch()]
        assert started == [1, 2]
        # job 1 is revoked and requeued: it must start again before job 3
        core.job_ended(1, node_seconds=1.0, requeue=True)
        next_started = [a.job_id for a in core.dispatch()]
        assert next_started == [1]

    def test_fair_share_orders_hungry_tenant_last(self):
        core = SchedulerCore(block_place_fn)
        core.usage = {"greedy": 100.0, "modest": 1.0}
        core.submit(SchedJob(1, "greedy", 4, priority=0, seq=1))
        core.submit(SchedJob(2, "modest", 4, priority=0, seq=2))
        assert [j.job_id for j in core.order()] == [2, 1]

    def test_admission_refuses_over_quota_job(self):
        core = SchedulerCore(block_place_fn, quotas={"t": 4})
        with pytest.raises(AdmissionError):
            core.submit(SchedJob(1, "t", 8, priority=0, seq=1))

    def test_queue_backpressure(self):
        core = SchedulerCore(block_place_fn, max_queue=2)
        core.submit(SchedJob(1, "t", 1, priority=0, seq=1))
        core.submit(SchedJob(2, "t", 1, priority=0, seq=2))
        with pytest.raises(QueueFullError):
            core.submit(SchedJob(3, "t", 1, priority=0, seq=3))


# ---------------------------------------------------------------------------
# service-level invariants on a real (tiny) machine
# ---------------------------------------------------------------------------

GROUPS = [(0,), (1,), (2,), (3,)]
EXTENTS = (2, 2, 1, 1, 1, 1)


def tiny_problem():
    r = rng_stream(29, "service-sched-tests")
    geom = LatticeGeometry((4, 4, 2, 2))
    gauge = GaugeField.weak(geom, r, eps=0.3)
    b = r.standard_normal((geom.volume, 4, 3)) + 0j
    return gauge, b


def booted_service(dims=(2, 2, 1, 1, 1, 1), **kw):
    m = QCDOCMachine(MachineConfig(dims=dims), word_batch=4096, watchdog=True)
    d = Qdaemon(m)
    ok = d.boot()
    assert all(ok.values())
    return QcdocService(d, **kw)


def spec(gauge, b, tol=1e-8):
    return WilsonJobSpec(
        gauge, b, mass=0.3, groups=GROUPS, extents=EXTENTS, tol=tol
    )


class TestServiceInvariants:
    def test_preemption_waits_for_complete_checkpoint(self):
        """The revoke gate: no abort until a full generation is stored."""
        gauge, b = tiny_problem()
        svc = booted_service(checkpoint_every=3)
        low = svc.submit(spec(gauge, b), tenant="batch", priority=0)
        svc.pump()  # low launches; simulation has not advanced, so the
        assert low.state is JobState.RUNNING  # store holds nothing yet
        assert not low.store.has_complete_generation(4)
        hi = svc.submit(spec(gauge, b), tenant="urgent", priority=9)
        svc.pump()  # plans the preemption ...
        assert low.state is JobState.PREEMPTING
        assert not low.run.aborted, "revoked before a checkpoint existed"
        report = svc.run_until_drained()
        assert low.state is JobState.DONE and hi.state is JobState.DONE
        assert low.preemptions == 1
        assert report["jobs"]["lost"] == 0
        # a preempted run hands its nodes back as booted ones, too
        assert_boot_state(svc.machine, sorted(svc.machine.nodes))

    def test_drain_leaves_no_allocation_and_no_inflight_words(self):
        gauge, b = tiny_problem()
        svc = booted_service()
        for _ in range(3):
            svc.submit(spec(gauge, b, tol=1e-6))
        report = svc.run_until_drained()
        assert report["jobs"]["states"] == {"done": 3}
        assert svc.daemon.held_nodes() == []
        assert report["machine"]["held_nodes"] == 0
        assert report["machine"]["in_flight_words"] == 0
        assert report["machine"]["checksum_mismatches"] == []
        # every node is back in boot state: the pre-launch buffer
        # namespace, no descriptor, no compiled record, no held word
        assert_boot_state(svc.machine, sorted(svc.machine.nodes))

    def test_concurrent_jobs_never_share_nodes(self):
        gauge, b = tiny_problem()
        svc = booted_service(dims=(2, 2, 2, 2, 1, 1))
        jobs = [svc.submit(spec(gauge, b, tol=1e-6)) for _ in range(6)]
        max_concurrent = 0
        while not svc.drained:
            if not svc.pump():
                svc.advance()
            held = [
                n
                for job in svc._active.values()
                for n in job.run.node_ids()
            ]
            assert len(held) == len(set(held))
            max_concurrent = max(max_concurrent, len(svc._active))
        assert max_concurrent >= 2, "16 nodes must fit two 4-node jobs"
        assert all(j.state is JobState.DONE for j in jobs)

    def test_tenant_quota_bounds_concurrency(self):
        gauge, b = tiny_problem()
        svc = booted_service(dims=(2, 2, 2, 2, 1, 1), quotas={"t": 4})
        for _ in range(4):
            svc.submit(spec(gauge, b, tol=1e-6), tenant="t")
        while not svc.drained:
            if not svc.pump():
                svc.advance()
            held = sum(
                len(j.run.node_ids()) for j in svc._active.values()
            )
            assert held <= 4
        assert all(j.state is JobState.DONE for j in svc.jobs.values())

    def test_identical_submissions_resolve_identically(self):
        """Two service runs of the same workload are bit-identical."""

        def run():
            gauge, b = tiny_problem()
            svc = booted_service(dims=(2, 2, 2, 1, 1, 1))
            jobs = [svc.submit(spec(gauge, b, tol=1e-6)) for _ in range(3)]
            svc.run_until_drained()
            return [
                (j.result.x.tobytes(), tuple(j.result.residuals))
                for j in jobs
            ]

        assert run() == run()

    def test_submit_rejects_oversized_job(self):
        gauge, b = tiny_problem()
        svc = booted_service()  # 4 nodes
        from repro.util.errors import ConfigError

        with pytest.raises(ConfigError):
            svc.submit(
                WilsonJobSpec(
                    gauge,
                    b,
                    mass=0.3,
                    groups=GROUPS,
                    extents=(2, 2, 2, 1, 1, 1),
                )
            )
