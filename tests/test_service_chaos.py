"""Chaos campaigns against the job service (PR 8, satellite 2).

The service's reliability claim is stronger than the PR-5 machinery it
builds on: not just *a* checkpointed solve surviving *a* fault, but a
multi-tenant queue of jobs surviving seeded campaigns of hard faults —
cables cut and daughterboards powered off mid-solve — with

* **zero jobs lost**: every submission reaches exactly one terminal
  state (``DONE`` with a result, or ``FAILED`` with the diagnosis when
  no healthy congruent sub-torus remains);
* **no double completion**: a remapped job's result is gathered once;
* **bit-identical physics**: a fault-remapped solve resumes from its
  checkpoint and produces the same solution vector and residual
  history, byte for byte, as an undisturbed run on pristine hardware
  (the paper's section-4 verification criterion, carried through both
  a hardware loss *and* a scheduler-level migration);
* a clean machine afterwards: no held nodes, no words on any wire.

Campaigns are pure data (:class:`FaultSchedule`), so every test here is
deterministic and reproducible from its seed.
"""

import pytest

from repro.host.qdaemon import Qdaemon
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.faults import FaultEvent, FaultSchedule
from repro.machine.machine import QCDOCMachine
from repro.parallel.pcg import solve_on_machine
from repro.service import JobState, QcdocService, WilsonJobSpec
from repro.util import rng_stream
from repro.util.errors import DegradedMachineError
from tests.harness import assert_boot_state

pytestmark = pytest.mark.service

GROUPS = [(0,), (1,), (2,), (3,)]
EXTENTS = (2, 2, 1, 1, 1, 1)
TENANTS = ["alice", "bob", "carol"]


def problem(k=0):
    r = rng_stream(29 + k, "service-chaos-tests")
    geom = LatticeGeometry((4, 4, 2, 2))
    gauge = GaugeField.weak(geom, r, eps=0.3)
    b = r.standard_normal((geom.volume, 4, 3)) + 0j
    return gauge, b


def spec(k=0, tol=1e-6):
    gauge, b = problem(k)
    return WilsonJobSpec(
        gauge, b, mass=0.3, groups=GROUPS, extents=EXTENTS, tol=tol
    )


def booted_service(dims, **kw):
    m = QCDOCMachine(MachineConfig(dims=dims), word_batch=4096, watchdog=True)
    d = Qdaemon(m)
    ok = d.boot()
    assert all(ok.values())
    return QcdocService(d, checkpoint_every=5, **kw)


@pytest.fixture(scope="module")
def baselines():
    """Undisturbed reference solves, one pristine machine per problem."""
    out = {}
    for k in range(2):
        m = QCDOCMachine(
            MachineConfig(dims=(2, 2, 1, 1, 1, 1)), word_batch=4096, watchdog=True
        )
        m.bring_up()
        p = m.partition(GROUPS, extents=EXTENTS)
        gauge, b = problem(k)
        res = solve_on_machine(m, p, gauge, b, mass=0.3, tol=1e-6, max_time=1e9)
        assert res.converged
        out[k] = (res.x.tobytes(), tuple(res.residuals))
    return out


def fingerprint(job):
    return (job.result.x.tobytes(), tuple(job.result.residuals))


class TestSingleFaultRecovery:
    def test_cable_cut_mid_solve_remaps_bit_identically(self, baselines):
        svc = booted_service((2, 2, 2, 1, 1, 1))
        t0 = svc.sim.now
        job = svc.submit(spec(), tenant="chaos")
        svc.pump()  # launched on the first-fit sub-torus
        first_attempt = job.run.node_ids()
        src = first_attempt[0]
        FaultSchedule(
            [FaultEvent(t0 + 0.002, "link-dead", src, 0)]
        ).arm(svc.machine, svc.daemon)
        report = svc.run_until_drained()
        assert job.state is JobState.DONE
        assert job.restarts == 1
        assert report["jobs"]["lost"] == 0
        assert fingerprint(job) == baselines[0]
        # the cut cable (and its quarantined partners) are out of service
        assert (src, 0) in svc.daemon.quarantined_cables
        assert job.diagnoses, "recovery must record the daemon's diagnosis"
        where = job.diagnoses[0]
        assert where.resumed_from > 0 and "link declared down" in where.error
        assert sorted(where.partition_nodes) == job.run.node_ids() != first_attempt
        # the faulted attempt's nodes and the finishing one's: all as booted
        assert_boot_state(svc.machine, first_attempt + job.run.node_ids())

    def test_node_death_mid_solve_remaps_bit_identically(self, baselines):
        svc = booted_service((2, 2, 2, 1, 1, 1))
        t0 = svc.sim.now
        job = svc.submit(spec(), tenant="chaos")
        svc.pump()
        victim = job.run.node_ids()[0]
        FaultSchedule(
            [FaultEvent(t0 + 0.002, "node-dead", victim)]
        ).arm(svc.machine, svc.daemon)
        report = svc.run_until_drained()
        assert job.state is JobState.DONE
        assert job.restarts == 1
        assert report["jobs"]["lost"] == 0
        assert fingerprint(job) == baselines[0]
        # the dead daughterboard is registered and avoided by the remap
        assert victim in svc.daemon.failed_nodes()
        assert victim not in job.run.node_ids()

    def test_unplaceable_job_fails_with_diagnosis_not_lost(self):
        # the job spans the whole 4-node machine: any hard fault is fatal
        svc = booted_service((2, 2, 1, 1, 1, 1))
        t0 = svc.sim.now
        job = svc.submit(spec(tol=1e-8), tenant="doomed")
        FaultSchedule(
            [FaultEvent(t0 + 0.002, "link-dead", 0, 0)]
        ).arm(svc.machine, svc.daemon)
        report = svc.run_until_drained()
        assert job.state is JobState.FAILED
        assert isinstance(job.error, DegradedMachineError)
        assert job.result is None
        # failed-with-diagnosis is a *resolved* outcome, not a lost job
        assert report["jobs"]["states"] == {"failed": 1}
        assert report["jobs"]["lost"] == 0
        assert svc.daemon.held_nodes() == []
        assert report["machine"]["in_flight_words"] == 0


class TestSeededCampaigns:
    def run_campaign(self, seed, baselines):
        """Six jobs, three tenants, two random hard faults mid-window."""
        svc = booted_service((2, 2, 2, 2, 1, 1))
        t0 = svc.sim.now
        jobs = []
        for i in range(6):
            jobs.append(
                (i % 2, svc.submit(spec(i % 2), tenant=TENANTS[i % 3]))
            )
        # directions 0-7 cover the four extent-2 axes (the cabled ones)
        sched = FaultSchedule.random(
            seed,
            2,
            (t0 + 1e-3, t0 + 6e-3),
            n_nodes=16,
            n_directions=8,
            kinds=("link-dead", "node-dead"),
        )
        sched.arm(svc.machine, svc.daemon)
        report = svc.run_until_drained()
        assert len(sched.injected) == 2, "campaign must actually fire"
        return svc, jobs, report

    @pytest.mark.parametrize("seed", [3, 7])
    def test_no_job_lost_and_survivors_bit_identical(self, seed, baselines):
        svc, jobs, report = self.run_campaign(seed, baselines)
        assert report["jobs"]["lost"] == 0
        assert report["jobs"]["states"] == {"done": 6}
        for k, job in jobs:
            assert fingerprint(job) == baselines[k]
        # at least one job was actually disturbed by the campaign
        assert sum(job.restarts for _, job in jobs) >= 1
        assert svc.daemon.held_nodes() == []
        assert report["machine"]["in_flight_words"] == 0

    def test_no_job_double_completed(self, baselines):
        svc, jobs, report = self.run_campaign(3, baselines)
        # every submission resolved exactly once ...
        assert report["jobs"]["submitted"] == 6
        assert report["jobs"]["resolved"] == 6
        assert sum(report["jobs"]["states"].values()) == 6
        # ... and each tenant rollup absorbed each of its jobs once
        per_tenant = {t: 0 for t in TENANTS}
        for _, job in jobs:
            per_tenant[job.tenant] += 1
        for tenant, expected in per_tenant.items():
            assert report["tenants"][tenant]["jobs_completed"] == expected

    def test_campaign_is_reproducible(self, baselines):
        """The same seed replays the same faults to the same report."""

        def run():
            _svc, jobs, report = self.run_campaign(7, baselines)
            return (
                [fingerprint(job) for _, job in jobs],
                [job.restarts for _, job in jobs],
                report["jobs"],
            )

        assert run() == run()
