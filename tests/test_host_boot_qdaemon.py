"""Boot sequence, qdaemon management, qcsh, and the node run kernel."""

import numpy as np
import pytest

from repro.host.boot import BootState
from repro.host.qcsh import Qcsh
from repro.host.qdaemon import Qdaemon
from repro.kernel.kernel import RunKernel, ThreadState
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.util.errors import MachineError
from tests.harness import assert_boot_state


def make_system(dims=(2, 2, 1, 1, 1, 1), **kw):
    machine = QCDOCMachine(MachineConfig(dims=dims), word_batch=8)
    daemon = Qdaemon(machine, **kw)
    return machine, daemon


class TestBoot:
    def test_all_nodes_boot(self):
        machine, daemon = make_system()
        results = daemon.boot()
        assert all(results.values())
        assert daemon.healthy_nodes() == list(range(machine.n_nodes))
        assert daemon.machine_size == (2, 2, 1, 1, 1, 1)

    def test_about_100_packets_per_kernel_stage(self):
        # Paper section 3.1: "each node receives about 100 UDP packets ...
        # Then the run kernel is loaded down, also taking about 100".
        _machine, daemon = make_system(dims=(2, 1, 1, 1, 1, 1))
        daemon.boot()
        for agent in daemon.agents.values():
            assert 95 <= agent.report.jtag_packets <= 105
            assert 95 <= agent.report.run_kernel_packets <= 105

    def test_no_proms_needed(self):
        # Before boot, a node's icache is empty; everything arrives over
        # the network.
        _machine, daemon = make_system(dims=(2, 1, 1, 1, 1, 1))
        assert all(not a.jtag.icache for a in daemon.agents.values())
        daemon.boot()
        assert all(a.jtag.running for a in daemon.agents.values())

    def test_faulty_node_reported_not_booted(self):
        _machine, daemon = make_system(faulty_nodes=[1])
        results = daemon.boot()
        assert results[1] is False
        assert 1 in daemon.failed_nodes()
        assert 1 not in daemon.healthy_nodes()
        assert daemon.node_status[1] == "hw-fail"

    def test_boot_trains_mesh_and_checks_interrupts(self):
        machine, daemon = make_system()
        daemon.boot()
        assert all(link.trained for link in machine.network.links.values())
        # interrupts were exercised and cleared during boot:
        assert all(
            ctrl.presented_bits == 0 for ctrl in machine.interrupts.values()
        )

    def test_rpc_available_after_boot(self):
        _machine, daemon = make_system(dims=(2, 1, 1, 1, 1, 1))
        daemon.boot()
        assert all(agent.rpc_available for agent in daemon.agents.values())

    def test_boots_overlap_in_time(self):
        # The "heavily threaded" daemon boots nodes concurrently: total
        # boot time must be far below n_nodes x single-node time.
        machine, daemon = make_system(dims=(2, 2, 2, 1, 1, 1))
        daemon.boot()
        # ~200 packets x ~120us serialised would be ~24ms per node; eight
        # sequential boots ~0.2s.  Concurrent boot should be well under
        # a quarter of that.
        assert machine.sim.now < 0.05


class TestAllocationAndJobs:
    def test_allocate_and_run(self):
        machine, daemon = make_system()
        daemon.boot()
        alloc = daemon.allocate("alice", groups=[(0,), (1,)])

        def prog(api):
            total = yield api.global_sum(np.array([1.0]))
            return float(total[0])

        results = daemon.run_job(alloc, prog)
        assert results == [4.0] * 4
        assert daemon.output_log

    def test_overlapping_allocations_rejected(self):
        _machine, daemon = make_system()
        daemon.boot()
        daemon.allocate("alice", groups=[(0,), (1,)])
        with pytest.raises(MachineError, match="overlaps"):
            daemon.allocate("bob", groups=[(0,), (1,)])

    def test_release_allows_reallocation(self):
        _machine, daemon = make_system()
        daemon.boot()
        a1 = daemon.allocate("alice", groups=[(0,), (1,)])
        daemon.release(a1)
        a2 = daemon.allocate("bob", groups=[(0,), (1,)])
        assert a2.job_id != a1.job_id

    def test_run_on_released_job_rejected(self):
        _machine, daemon = make_system()
        daemon.boot()
        a = daemon.allocate("alice", groups=[(0,), (1,)])
        daemon.release(a)
        with pytest.raises(MachineError, match="released"):
            daemon.run_job(a, lambda api: iter(()))

    def test_allocation_requires_boot(self):
        _machine, daemon = make_system()
        with pytest.raises(MachineError, match="not booted"):
            daemon.allocate("alice", groups=[(0,), (1,)])


class TestQcsh:
    def test_session_workflow(self):
        machine, daemon = make_system()
        daemon.boot()
        sh = Qcsh(daemon, "alice")
        sh.alloc(groups=[(0,), (1,)])

        def prog(api):
            yield api.compute(100)
            return api.rank

        results = sh.run(prog)
        assert results == [0, 1, 2, 3]
        st = sh.status()
        assert st["healthy"] == 4 and st["active_jobs"] == 1
        sh.free()
        assert sh.status()["active_jobs"] == 0
        assert len(sh.history) == 5

    def test_run_then_free_hands_back_boot_state(self):
        """``qrun`` is a whole job: the daemon finalizes its run, so every
        node ``qfree`` hands back holds nothing of it."""
        machine, daemon = make_system()
        daemon.boot()
        sh = Qcsh(daemon, "alice")
        partition = sh.alloc(groups=[(0,), (1,)]).partition

        def prog(api):
            api.alloc("out", np.full(4, float(api.rank)))
            api.alloc("in", np.zeros(4))
            sent = api.send_buffer(0, +1, "out")
            yield api.wait([sent, api.recv_buffer(0, -1, "in")])
            total = yield api.global_sum(api.buffer("in")[:1])
            return float(total[0])

        assert sh.run(prog) == [6.0] * 4
        sh.free()
        held = [partition.physical_node(r) for r in range(partition.n_nodes)]
        assert_boot_state(machine, sorted(held))
        assert machine.last_run.finalized

    def test_run_without_alloc_rejected(self):
        _machine, daemon = make_system()
        daemon.boot()
        sh = Qcsh(daemon, "bob")
        with pytest.raises(MachineError, match="no allocation"):
            sh.run(lambda api: iter(()))

    def test_user_files_are_per_user(self):
        _machine, daemon = make_system()
        sh_a, sh_b = Qcsh(daemon, "alice"), Qcsh(daemon, "bob")
        sh_a.append_output("out.txt", "alice data")
        assert sh_a.open_file("out.txt") == ["alice data"]
        assert sh_b.open_file("out.txt") == []


class TestRunKernel:
    @pytest.fixture
    def system(self):
        machine = QCDOCMachine(MachineConfig(dims=(2, 1, 1, 1, 1, 1)))
        machine.bring_up()
        files = {}
        reports = []
        kern = RunKernel(
            machine.sim,
            machine.nodes[0],
            host_files=files,
            on_report=lambda nid, s: reports.append((nid, s)),
        )
        return machine, kern, files, reports

    def test_two_thread_discipline(self, system):
        machine, kern, _files, reports = system
        assert kern.thread == ThreadState.KERNEL

        def app():
            assert kern.thread == ThreadState.KERNEL or True
            n = yield kern.syscall("write_stdout", "hello from QCD")
            return n

        p = kern.run_application(app())
        result = machine.sim.run(until=p)
        assert result == 1
        assert kern.stdout == ["hello from QCD"]
        # back in the kernel thread after termination, with a report:
        assert kern.thread == ThreadState.KERNEL
        assert reports == [(0, "ok resends=0")]

    def test_no_multitasking(self, system):
        machine, kern, _files, _reports = system

        def app():
            yield kern.syscall("time")

        kern.run_application(app())
        with pytest.raises(MachineError, match="multitask"):
            kern.run_application(app())

    def test_nfs_file_io(self, system):
        machine, kern, files, _reports = system

        def app():
            yield kern.syscall("nfs_write", "results.dat", "plaquette 0.59371")
            lines = yield kern.syscall("nfs_read", "results.dat")
            return lines

        p = kern.run_application(app())
        assert machine.sim.run(until=p) == ["plaquette 0.59371"]
        assert files["results.dat"] == ["plaquette 0.59371"]

    def test_nfs_missing_file(self, system):
        machine, kern, _files, _reports = system

        def app():
            try:
                yield kern.syscall("nfs_read", "nope.dat")
            except MachineError as e:
                return str(e)

        p = kern.run_application(app())
        assert "no such file" in machine.sim.run(until=p)

    def test_syscall_charges_time(self, system):
        machine, kern, _files, _reports = system
        t0 = machine.sim.now

        def app():
            yield kern.syscall("time")

        machine.sim.run(until=kern.run_application(app()))
        assert machine.sim.now - t0 >= 2e-6
        assert len(kern.syscalls) == 1

    def test_memory_protection(self, system):
        machine, kern, _files, _reports = system
        kern.protect("kernel-heap")
        kern._enter_application()
        with pytest.raises(MachineError, match="protection"):
            kern.check_access("kernel-heap")
        kern._enter_kernel()
        kern.check_access("kernel-heap")  # kernel thread may touch it

    def test_unknown_syscall(self, system):
        machine, kern, _files, _reports = system

        def app():
            try:
                yield kern.syscall("fork")
            except MachineError as e:
                return "refused"

        assert machine.sim.run(until=kern.run_application(app())) == "refused"


class TestQuarantineAtomicity:
    """LINK_DOWN ingestion is atomic with sweeps and placements.

    The SCU watchdogs append to ``machine.link_down_log`` from inside
    the event loop; the daemon reads it with a cursor.  The race these
    tests pin down (PR 8, satellite 4): a report that lands *between* a
    health-check sweep and the next allocation — or mid-sweep, while
    the ping replies are still in flight — must be quarantined before
    any placement decision sees the machine, never leaked into a fresh
    allocation on a cable the watchdog already condemned.
    """

    def setup_daemon(self):
        machine, daemon = make_system(dims=(2, 2, 2, 1, 1, 1))
        ok = daemon.boot()
        assert all(ok.values())
        return machine, daemon

    def test_report_between_sweep_and_allocate_never_leaks(self):
        from repro.host.remap import partition_cables

        machine, daemon = self.setup_daemon()
        assert all(daemon.health_check().values())  # cursor is current
        # a resend-storm trip arrives *after* the sweep returned: the
        # network layer still thinks the wire is fine
        machine.link_down_log.append((0, 0, "no-ack-progress"))
        assert machine.network.link_ok(0, 0)
        alloc = daemon.allocate(
            "alice", [(0,), (1,), (2,), (3,)], extents=(2, 2, 1, 1, 1, 1)
        )
        # the allocation ingested the report first: both cable ends are
        # quarantined, proactively failed, and routed around
        nbr = machine.topology.neighbour_by_direction(0, 0)
        opp = machine.topology.opposite(0)
        assert (0, 0) in daemon.quarantined_cables
        assert (nbr, opp) in daemon.quarantined_cables
        assert not machine.network.link_ok(0, 0)
        assert (0, 0) not in partition_cables(alloc.partition)

    def test_report_landing_mid_sweep_is_quarantined_before_verdict(self):
        machine, daemon = self.setup_daemon()
        # the report lands while the ping replies are still in flight:
        # earlier than any RPC round-trip can complete
        machine.sim.schedule(
            1e-9, machine.link_down_log.append, (1, 2, "header-code")
        )
        verdict = daemon.health_check()
        assert (1, 2) in daemon.quarantined_cables
        assert all(verdict.values())  # nodes answer; only the cable is bad

    def test_adoption_cannot_revive_a_condemned_cable(self):
        from repro.host.remap import partition_cables
        from repro.util.errors import DegradedMachineError

        machine, daemon = self.setup_daemon()
        placement = machine.partition(
            [(0,), (1,), (2,), (3,)], extents=(2, 2, 1, 1, 1, 1)
        )
        src, d = partition_cables(placement)[0]
        machine.link_down_log.append((src, d, "no-ack-progress"))
        with pytest.raises(DegradedMachineError):
            daemon.adopt_partition("service", placement)
        assert daemon.held_nodes() == []  # nothing was booked

    def test_ingest_is_idempotent(self):
        machine, daemon = self.setup_daemon()
        machine.link_down_log.append((0, 0, "no-ack-progress"))
        first = daemon.ingest_link_down()
        assert len(first) == 2  # the cable and its ack partner
        assert daemon.ingest_link_down() == []
        # a duplicate report for a known-bad cable adds nothing
        machine.link_down_log.append((0, 0, "no-ack-progress"))
        before = list(daemon.quarantined_cables)
        assert daemon.ingest_link_down() == []
        assert daemon.quarantined_cables == before
