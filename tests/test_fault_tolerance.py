"""Hard-fault tolerance: detection, containment, remap, resume.

The paper's reliability story (section 2.2) covers *transient* errors —
parity + automatic resend + end-of-run checksums.  This suite locks down
the *permanent*-fault machinery the companion papers' 12,288-node
operating experience demands:

* the fault model (dead/stuck links, dead nodes, seeded schedules);
* SCU watchdog detection within the ASIC's declared budget, LINK_DOWN
  supervisor escalation and the hard-fault partition interrupt;
* the machine-level partition abort (surviving ranks cancelled, wires
  drained, machine reusable);
* host-side recovery: qdaemon diagnosis, failed-node registry,
  partition remapping onto a healthy sub-torus, and checkpointed
  CG / HMC runs that resume **bit-identically** — the paper's
  section-4 verification criterion carried through a hardware loss.

Run with ``make verify-faults`` (or plain tier-1: the suite is fast
enough to gate merges).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmc.checkpoint import HMCCheckpoint, run_with_checkpoints
from repro.hmc.hmc import HMC
from repro.host.qdaemon import Qdaemon
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import ASICConfig, MachineConfig
from repro.machine.faults import (
    FAULT_IRQ_BIT,
    FaultEvent,
    FaultSchedule,
    decode_link_down,
    encode_link_down,
)
from repro.machine.globalops import GlobalOpsEngine
from repro.machine.machine import QCDOCMachine
from repro.machine.scu import DmaDescriptor
from repro.parallel.pcg import solve_on_machine
from repro.service import JobState, QcdocService, WilsonJobSpec
from repro.sim.core import Simulator
from repro.solvers.checkpoint import CGCheckpointStore
from repro.util import rng_stream
from repro.util.errors import (
    ConfigError,
    DegradedMachineError,
    FaultError,
    LinkDownError,
    MachineError,
    ProtocolError,
)
from tests.harness import booted, system

pytestmark = pytest.mark.faults

# -- chaos-machine geometry: 32 nodes, job on one axis-4 hyperplane ----------
DIMS = (2, 2, 2, 2, 2, 1)
GROUPS = [(0,), (1,), (2,), (3,)]
EXTENTS = (2, 2, 2, 2, 1, 1)


def pair_machine(watchdog=True, trace=False, **kw):
    """Two nodes, one cable each way — the watchdog unit-test bench."""
    m = QCDOCMachine(
        MachineConfig(dims=(2, 1, 1, 1, 1, 1)), watchdog=watchdog, trace=trace, **kw
    )
    m.bring_up()
    return m


def start_transfer(m, nwords=2000):
    """Launch a node0 -> node1 DMA; returns (send_ev, recv_ev, direction)."""
    data = np.arange(1, nwords + 1, dtype=np.uint64)
    m.nodes[0].memory.alloc("tx", data)
    m.nodes[1].memory.alloc("rx", np.zeros(nwords, dtype=np.uint64))
    d = m.topology.direction(0, +1)
    recv = m.nodes[1].scu.recv(
        m.topology.opposite(d), DmaDescriptor("rx", block_len=nwords)
    )
    send = m.nodes[0].scu.send(d, DmaDescriptor("tx", block_len=nwords))
    return send, recv, d


def build_chaos():
    """The chaos acceptance machine: booted daemon, watchdog armed."""
    m = QCDOCMachine(
        MachineConfig(dims=DIMS), word_batch=4096, watchdog=True, trace=True
    )
    d = Qdaemon(m)
    ok = d.boot()
    assert all(ok.values())
    return m, d


def chaos_problem():
    r = rng_stream(11, "chaos-acceptance")
    geom = LatticeGeometry((4, 4, 4, 4))
    gauge = GaugeField.weak(geom, r, eps=0.3)
    b = r.standard_normal((geom.volume, 4, 3)) + 0j
    return gauge, b


def solve_through_faults(daemon, gauge, b, **service_kwargs):
    """One fault-tolerant solve: the chaos problem submitted to the job
    service (its recovery loop is the only one) and drained."""
    service = QcdocService(daemon, **service_kwargs)
    job = service.submit(
        WilsonJobSpec(gauge, b, mass=0.3, groups=GROUPS, extents=EXTENTS, tol=1e-8)
    )
    service.run_until_drained(max_time=1e9)
    return job


@pytest.fixture(scope="module")
def chaos_baseline():
    """One uninterrupted reference solve shared by the chaos tests."""
    m, d = build_chaos()
    gauge, b = chaos_problem()
    alloc = d.allocate("baseline", GROUPS, extents=EXTENTS)
    t0 = m.sim.now
    res = solve_on_machine(
        m, alloc.partition, gauge, b, mass=0.3, tol=1e-8, max_time=1e9
    )
    d.release(alloc)
    assert res.converged
    return {
        "residuals": tuple(res.residuals),
        "x": res.x.tobytes(),
        "iterations": res.iterations,
        "duration": m.sim.now - t0,
        "nodes": sorted(
            alloc.partition.physical_node(r) for r in range(alloc.partition.n_nodes)
        ),
    }


# ---------------------------------------------------------------------------
# fault model
# ---------------------------------------------------------------------------
class TestFaultModel:
    def test_fail_link_modes(self):
        m = pair_machine(watchdog=False)
        d = m.topology.direction(0, +1)
        m.network.fail_link(0, d, mode="dead")
        assert not m.network.link_ok(0, d)
        assert (0, d) in m.network.dead_links()
        # the paired return cable is a separate wire and still healthy
        assert m.network.link_ok(1, m.topology.opposite(d))

        m2 = pair_machine(watchdog=False)
        m2.network.fail_link(0, d, mode="stuck")
        assert not m2.network.link_ok(0, d)

    def test_fail_link_unknown_cable_rejected(self):
        m = pair_machine(watchdog=False)
        with pytest.raises(ConfigError):
            m.network.fail_link(0, 11, mode="dead")  # size-1 axis: no wire

    def test_fail_node_kills_every_attached_wire(self):
        m = QCDOCMachine(MachineConfig(dims=(2, 2, 1, 1, 1, 1)))
        m.bring_up()
        m.network.fail_node(0)  # collapsed axes 2..5 must not KeyError
        assert m.network.dead_nodes() == [0]
        for (src, d) in m.network.dead_links():
            # every dead wire either leaves node 0 or is a neighbour's
            # return wire back into node 0
            if src != 0:
                assert m.topology.neighbour_by_direction(src, d) == 0

    def test_fault_schedule_random_is_seeded(self):
        a = FaultSchedule.random(5, 4, (0.0, 1.0), n_nodes=8, n_directions=4)
        b = FaultSchedule.random(5, 4, (0.0, 1.0), n_nodes=8, n_directions=4)
        c = FaultSchedule.random(6, 4, (0.0, 1.0), n_nodes=8, n_directions=4)
        assert a.events == b.events
        assert a.events != c.events

    def test_fault_event_validation(self):
        with pytest.raises(ConfigError):
            FaultEvent(time=0.0, kind="meteor-strike", node=0, direction=0)
        with pytest.raises(ConfigError):
            FaultEvent(time=0.0, kind="link-dead", node=0)  # needs direction
        with pytest.raises(ConfigError):
            FaultEvent(time=-1.0, kind="node-dead", node=0)

    def test_link_down_word_roundtrip(self):
        w = encode_link_down(12_287, 9)
        assert decode_link_down(w) == (12_287, 9)
        assert decode_link_down(0x1234) is None

    def test_armed_schedule_injects_and_traces(self):
        m = pair_machine(watchdog=False, trace=True)
        d = m.topology.direction(0, +1)
        sched = FaultSchedule(
            [FaultEvent(time=m.sim.now + 1e-6, kind="link-dead", node=0, direction=d)]
        )
        sched.arm(m)
        m.sim.run()
        assert sched.injected == sched.events
        assert not m.network.link_ok(0, d)
        assert any(r.tag == "fault.inject" for r in m.trace.records)


# ---------------------------------------------------------------------------
# watchdog detection + escalation
# ---------------------------------------------------------------------------
class TestWatchdogDetection:
    def trip(self, mode="dead"):
        m = pair_machine(trace=True)
        send, recv, d = start_transfer(m)
        t_kill = m.sim.now + 5e-6  # mid-transfer
        m.sim.schedule(5e-6, m.network.fail_link, 0, d, mode)
        with pytest.raises(LinkDownError) as exc:
            m.sim.run(until=m.sim.all_of([send, recv]), max_time=1.0)
        return m, exc.value, t_kill

    def test_dead_link_detected_within_budget(self):
        m, err, t_kill = self.trip()
        budget = m.config.asic.watchdog_detection_budget
        trips = [r for r in m.trace.records if r.tag == "scu.link_down"]
        assert trips, "watchdog never escalated"
        # detection runs from the last forward progress, which precedes
        # the kill by at most one base timeout (the ladder's sample period)
        for r in trips:
            assert r.time - t_kill <= budget + m.config.asic.watchdog_timeout
        assert err.reason in ("no-ack-progress", "recv-stall", "resend-storm")
        counters = [n.scu.transfer_counters() for n in m.nodes.values()]
        assert sum(c["watchdog_trips"] for c in counters) >= 1
        assert sum(c["backoff_waits"] for c in counters) >= 1
        assert sum(c["link_down"] for c in counters) >= 1

    def test_link_down_raises_hard_fault_partition_interrupt(self):
        m, _err, _t = self.trip()
        m.sim.run()  # let the interrupt flood settle
        assert m.link_down_log
        for node_id in m.nodes:
            assert m.interrupts[node_id].presented_bits & FAULT_IRQ_BIT

    def test_link_down_supervisor_word_reaches_a_neighbour(self):
        m, _err, _t = self.trip()
        m.sim.run()
        reported = set()
        for node in m.nodes.values():
            for word in node.scu.supervisor_reg.values():
                decoded = decode_link_down(word)
                if decoded is not None:
                    reported.add(decoded)
        assert reported, "no LINK_DOWN supervisor word delivered"
        assert reported <= {(n, d) for n, d, _ in m.link_down_log}

    def test_stuck_link_trips_resend_storm(self):
        m, err, _t = self.trip(mode="stuck")
        reasons = {reason for _, _, reason in m.link_down_log}
        assert "resend-storm" in reasons
        assert isinstance(err, LinkDownError)

    def test_watchdog_disabled_by_default(self):
        m = pair_machine(watchdog=False)
        assert all(not n.scu.watchdog_enabled for n in m.nodes.values())
        send, recv, d = start_transfer(m)
        m.sim.schedule(5e-6, m.network.fail_link, 0, d, "dead")
        m.sim.run()  # heap drains: the transfer just hangs, no trip
        assert not send.triggered and not recv.triggered
        assert m.link_down_log == []
        assert all(
            n.scu.transfer_counters()["watchdog_trips"] == 0
            for n in m.nodes.values()
        )

    def test_clean_transfer_never_trips(self):
        m = pair_machine()
        send, recv, _d = start_transfer(m)
        m.sim.run(until=m.sim.all_of([send, recv]), max_time=1.0)
        assert all(
            n.scu.transfer_counters()["watchdog_trips"] == 0
            for n in m.nodes.values()
        )
        assert m.audit_checksums() == []


# ---------------------------------------------------------------------------
# partition abort + machine reuse
# ---------------------------------------------------------------------------
class TestPartitionAbort:
    def test_faulted_job_aborts_and_machine_stays_usable(self):
        m = QCDOCMachine(
            MachineConfig(dims=(2, 2, 2, 2, 1, 1)), word_batch=4096, watchdog=True
        )
        m.bring_up()
        r = rng_stream(3, "abort-reuse")
        geom = LatticeGeometry((4, 4, 4, 2))
        gauge = GaugeField.weak(geom, r, eps=0.3)
        b = r.standard_normal((geom.volume, 4, 3)) + 0j

        doomed = m.partition(
            GROUPS, origin=(0, 0, 0, 0, 0, 0), extents=(2, 2, 2, 1, 1, 1)
        )
        m.sim.schedule(1e-3, m.network.fail_link, 0, 0, "dead")
        with pytest.raises(LinkDownError):
            solve_on_machine(m, doomed, gauge, b, mass=0.3, tol=1e-8, max_time=1e9)

        # same machine, healthy axis-3 hyperplane: runs to completion
        healthy = m.partition(
            GROUPS, origin=(0, 0, 0, 1, 0, 0), extents=(2, 2, 2, 1, 1, 1)
        )
        res = solve_on_machine(m, healthy, gauge, b, mass=0.3, tol=1e-8, max_time=1e9)
        assert res.converged

        # and it matches a never-faulted machine bit for bit
        m2 = QCDOCMachine(MachineConfig(dims=(2, 2, 2, 2, 1, 1)), word_batch=4096)
        m2.bring_up()
        p2 = m2.partition(GROUPS, extents=(2, 2, 2, 1, 1, 1))
        ref = solve_on_machine(m2, p2, gauge, b, mass=0.3, tol=1e-8, max_time=1e9)
        assert res.x.tobytes() == ref.x.tobytes()
        assert tuple(res.residuals) == tuple(ref.residuals)

    #: fault -> (raised type, message, sim.now after the abort drain,
    #: sha256 of the sorted trace records, wires whose checksums differ)
    ABORTED = {
        "link-dead": (
            LinkDownError,
            "node 2 direction 1: link declared down (recv-stall)",
            "0x1.cd4a23f05c4f7p-8",
            "9482c372c6d0a6312d36e49bbd593e584470e7a26dbdd028fb39726cbfafd2ed",
            ["n2.d1->n0"],
        ),
        "node-dead": (
            LinkDownError,
            "node 0 direction 2: link declared down (recv-stall)",
            "0x1.cd4a23f05c4f7p-8",
            "86c1dec06e34df35aaab08d833cdbf525950d4d78e3ff717771b3a8fd54760b2",
            [],
        ),
        "cancelled": (
            FaultError,
            "recv transfer cancelled: mid-exchange",
            "0x1.8782214d4aa75p-15",
            "c15ea7c752d63382bb164c94c71d9179e90e682568db535a541bda119f64cfde",
            [],
        ),
        "cancelled-13us": (
            FaultError,
            "recv transfer cancelled: mid-exchange",
            "0x1.8782214d4aa75p-15",
            "d7162006be774bd6d8413f53aaded6bfdbc0856aa651c61883df44bf2d9ec059",
            [],
        ),
    }

    #: simulated time at which node 0's transfers are cancelled; at
    #: +13 us the other ranks are taking a transfer that has already
    #: landed at the instant the fault interrupts them
    CANCEL_AT = {"cancelled": 5e-6, "cancelled-13us": 13e-6}

    @pytest.mark.parametrize("fault", sorted(ABORTED))
    def test_aborted_cg_is_pinned(self, fault):
        """A 2-D Wilson CG aborted mid-solve, pinned to the bit: the raised
        fault, the clock once the abort has drained, every trace record
        with its time, and the wires whose end-of-run checksums disagree.
        Each end sums a word when it is acknowledged, so a cancel leaves
        none, and neither does a dead node (no word sent into it was
        acknowledged); a dead cable leaves the data direction whose ACKs
        it carried, ``n2.d1->n0``: words node 0 accepted whose ACKs never
        reached node 2.  The
        watchdog needs milliseconds without progress to declare a link
        dead, so its faults find the rank asleep in the halo drain;
        ``cancelled`` abandons node 0's transfers while its rank computes
        the interior, so the drain meets a transfer that has already
        failed."""
        m, part = booted((2, 2, 1, 1, 1, 1), word_batch=4096, watchdog=True, trace=True)
        gauge, b = system((5, "drain-fault"), (4, 4, 2, 2), start="weak", eps=0.3)
        if fault in self.CANCEL_AT:
            m.sim.schedule(
                self.CANCEL_AT[fault],
                m.nodes[0].scu.cancel_active_transfers,
                "mid-exchange",
            )
        else:
            node, direction = (0, 0) if fault == "link-dead" else (1, None)
            FaultSchedule(
                [FaultEvent(time=4.5e-3, kind=fault, node=node, direction=direction)]
            ).arm(m)
        error, message, now, trace, wires = self.ABORTED[fault]
        with pytest.raises(error) as raised:
            solve_on_machine(m, part, gauge, b, mass=0.3, tol=1e-8, max_time=1e9)
        assert str(raised.value) == message
        assert m.sim.now == float.fromhex(now)
        records = sorted(
            repr((r.time, r.tag, sorted(r.fields.items()))) for r in m.trace.records
        )
        assert hashlib.sha256(repr(records).encode()).hexdigest() == trace
        assert [line.split(":")[0] for line in m.audit_checksums()] == [
            f"link {wire}" for wire in wires
        ]


# ---------------------------------------------------------------------------
# CG checkpoint store + bit-identical resume
# ---------------------------------------------------------------------------
def _cg_state(it, n=4):
    return {
        "it": it,
        "x": np.full(n, 1.0 + it),
        "resid": np.full(n, 2.0 + it),
        "p": np.full(n, 3.0 + it),
        "rr": 0.5,
        "bb": 1.0,
        "residuals": [1.0, 0.5],
    }


class TestCGCheckpointStore:
    def test_cadence(self):
        s = CGCheckpointStore(every=10)
        assert s.due(0, False)
        assert not s.due(7, False)
        assert s.due(10, False)
        assert s.due(13, True)  # convergence always checkpoints

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            CGCheckpointStore(every=0)

    def test_put_validates_and_deep_copies(self):
        s = CGCheckpointStore(every=5)
        with pytest.raises(ConfigError):
            s.put(0, 0, {"it": 0})
        state = _cg_state(0)
        s.put(0, 0, state)
        state["x"][:] = -99.0  # solver keeps mutating its buffers
        assert s.latest_complete_states(1)[0]["x"][0] == 1.0

    def test_complete_generation_requires_every_rank(self):
        s = CGCheckpointStore(every=5)
        s.put(0, 5, _cg_state(5))
        s.put(1, 5, _cg_state(5))
        s.put(0, 10, _cg_state(10))  # rank 1 died mid-stride
        assert s.complete_iterations(2) == [5]
        states = s.latest_complete_states(2)
        assert states[0]["it"] == 5 and states[1]["it"] == 5

    def test_pruning_keeps_bounded_history(self):
        s = CGCheckpointStore(every=5)
        for it in (0, 5, 10, 15):
            s.put(0, it, _cg_state(it))
        s.latest_complete_states(1)
        assert s.complete_iterations(1) == [10, 15]


class TestCGResumeBitIdentical:
    def test_resume_midstream_continues_history_exactly(self, chaos_baseline):
        gauge, b = chaos_problem()
        store = CGCheckpointStore(every=10)

        # run 1: die (deterministically) after 25 iterations
        m1, d1 = build_chaos()
        a1 = d1.allocate("first", GROUPS, extents=EXTENTS)
        partial = solve_on_machine(
            m1, a1.partition, gauge, b, mass=0.3, tol=1e-8,
            maxiter=25, max_time=1e9, checkpoint=store,
        )
        assert not partial.converged
        assert store.complete_iterations(16)[-1] == 20

        # run 2: fresh machine, resume from the newest complete generation
        m2, d2 = build_chaos()
        a2 = d2.allocate("second", GROUPS, extents=EXTENTS)
        res = solve_on_machine(
            m2, a2.partition, gauge, b, mass=0.3, tol=1e-8,
            max_time=1e9, checkpoint=store, resume=True,
        )
        assert res.converged
        assert res.iterations == chaos_baseline["iterations"]
        assert tuple(res.residuals) == chaos_baseline["residuals"]
        assert res.x.tobytes() == chaos_baseline["x"]

    def test_resume_without_store_rejected(self):
        m, d = build_chaos()
        a = d.allocate("bad", GROUPS, extents=EXTENTS)
        gauge, b = chaos_problem()
        with pytest.raises(ConfigError):
            solve_on_machine(
                m, a.partition, gauge, b, mass=0.3, resume=True, max_time=1e9
            )


# ---------------------------------------------------------------------------
# HMC checkpoint/resume
# ---------------------------------------------------------------------------
class TestHMCCheckpointResume:
    def fresh(self, seed=42):
        geom = LatticeGeometry((2, 2, 2, 2))
        gauge = GaugeField.hot(geom, rng_stream(7, "ft-hmc-start"))
        return HMC(gauge, beta=5.5, seed=seed, n_steps=4, dt=0.1)

    def test_resume_is_bit_identical(self):
        full, cks = run_with_checkpoints(self.fresh(), 8, every=3)

        # resume from the trajectory-3 snapshot on a fresh driver
        ck = next(c for c in cks if c.trajectory_index == 3)
        resumed_hmc = ck.restore(self.fresh())
        tail, _ = run_with_checkpoints(resumed_hmc, 5, every=3)

        assert [t.index for t in tail] == [t.index for t in full[3:]]
        for a, b in zip(tail, full[3:]):
            assert a.accepted == b.accepted
            assert a.delta_h == b.delta_h
            assert a.plaquette == b.plaquette  # bit-identical, not approx

    def test_snapshot_is_isolated_from_later_evolution(self):
        hmc = self.fresh()
        ck = HMCCheckpoint.save(hmc)
        before = ck.links.copy()
        hmc.run(3, reunitarise_every=0)
        assert np.array_equal(ck.links, before)

    def test_seed_mismatch_refused(self):
        ck = HMCCheckpoint.save(self.fresh(seed=1))
        with pytest.raises(ConfigError, match="splice"):
            ck.restore(self.fresh(seed=2))

    def test_checkpoint_cadence_validated(self):
        with pytest.raises(ConfigError):
            run_with_checkpoints(self.fresh(), 2, every=0)


# ---------------------------------------------------------------------------
# qdaemon: health monitoring, diagnosis, remapped allocation
# ---------------------------------------------------------------------------
def small_daemon(**kw):
    m = QCDOCMachine(MachineConfig(dims=(2, 2, 1, 1, 1, 1)), watchdog=True)
    d = Qdaemon(m, **kw)
    return m, d


class TestQdaemonRecovery:
    def test_boot_times_out_on_silent_node(self):
        _m, d = small_daemon(silent_nodes=[3])
        ok = d.boot()
        assert ok == {0: True, 1: True, 2: True, 3: False}
        assert d.failed[3].startswith("boot-timeout")
        assert d.booted  # the machine came up without node 3

    def test_boot_irq_check_skips_failed_nodes(self):
        # seed bug: all(...) over every controller counted nodes that can
        # never present the interrupt, failing an otherwise usable machine
        _m, d = small_daemon(silent_nodes=[1], faulty_nodes=[2])
        ok = d.boot()
        assert ok[0] and ok[3]
        assert not ok[1] and not ok[2]
        assert d.failed[2] == "hw-fail"

    def test_health_check_detects_mid_run_death(self):
        _m, d = small_daemon()
        d.boot()
        assert all(d.health_check().values())
        d.silence_node(2)  # power loss: not yet marked failed
        assert 2 not in d.failed
        verdict = d.health_check()
        assert verdict[2] is False and verdict[0] is True
        assert d.failed[2] == "rpc-timeout"

    def test_allocate_remaps_around_dead_node(self):
        m, d = small_daemon()
        d.boot()
        extents = (2, 1, 1, 1, 1, 1)
        original = d.allocate("a", [(0,)], extents=extents)
        original_nodes = {
            original.partition.physical_node(r) for r in range(2)
        }
        d.release(original)
        victim = sorted(original_nodes)[0]
        m.network.fail_node(victim)
        d.mark_failed(victim, "test")
        remapped = d.allocate("b", [(0,)], extents=extents)
        new_nodes = {remapped.partition.physical_node(r) for r in range(2)}
        assert victim not in new_nodes
        assert remapped.partition.logical_dims == original.partition.logical_dims

    def test_allocate_degraded_when_no_placement_survives(self):
        m, d = small_daemon()
        d.boot()
        for victim in (0, 1):  # one dead node in each axis-1 hyperplane
            m.network.fail_node(victim)
            d.mark_failed(victim, "test")
        with pytest.raises(DegradedMachineError) as exc:
            d.allocate("a", [(0,)], extents=(2, 1, 1, 1, 1, 1))
        assert tuple(exc.value.failed_nodes) == (0, 1)

    def test_handle_fault_quarantines_both_cable_ends(self):
        m, d = small_daemon()
        d.boot()
        send, recv, direction = start_transfer(m, nwords=2000)
        m.sim.schedule(5e-6, m.network.fail_link, 0, direction, "dead")
        with pytest.raises(LinkDownError):
            m.sim.run(until=m.sim.all_of([send, recv]), max_time=1.0)
        diagnosis = d.handle_fault()
        cables = set(diagnosis["quarantined_cables"])
        for node, dirn, _reason in m.link_down_log:
            assert (node, dirn) in cables
            other = m.topology.neighbour_by_direction(node, dirn)
            assert (other, m.topology.opposite(dirn)) in cables
        # interrupts acknowledged so the next job starts clean
        assert all(c.presented_bits == 0 for c in m.interrupts.values())


# ---------------------------------------------------------------------------
# chaos acceptance: kill hardware mid-CG, resume bit-identically
# ---------------------------------------------------------------------------
class TestChaosAcceptance:
    def run_chaos(self, kind, node, direction, baseline):
        m, d = build_chaos()
        gauge, b = chaos_problem()
        t_fault = m.sim.now + 0.4 * baseline["duration"]
        sched = FaultSchedule(
            [FaultEvent(time=t_fault, kind=kind, node=node, direction=direction)]
        )
        sched.arm(m, d)
        job = solve_through_faults(d, gauge, b, checkpoint_every=10)
        return m, d, job, t_fault

    def check_bit_identity(self, job, baseline):
        assert job.state is JobState.DONE
        res = job.result
        assert res.converged
        assert job.restarts == 1 and len(job.diagnoses) == 1
        assert res.iterations == baseline["iterations"]
        assert tuple(res.residuals) == baseline["residuals"]
        assert res.x.tobytes() == baseline["x"]
        ev = job.diagnoses[0]
        assert ev.resumed_from is not None and ev.resumed_from > 0
        return ev

    def test_link_dead_mid_cg(self, chaos_baseline):
        m, _d, job, t_fault = self.run_chaos(
            "link-dead", node=0, direction=0, baseline=chaos_baseline
        )
        ev = self.check_bit_identity(job, chaos_baseline)
        # detection within the ASIC's declared watchdog budget
        budget = m.config.asic.watchdog_detection_budget
        trips = [r.time for r in m.trace.records if r.tag == "scu.link_down"]
        assert trips
        assert min(trips) - t_fault <= budget + m.config.asic.watchdog_timeout
        # the job moved off the broken hyperplane
        assert sorted(ev.partition_nodes) != chaos_baseline["nodes"]

    def test_node_dead_mid_cg(self, chaos_baseline):
        victim = 4
        m, d, job, _t = self.run_chaos(
            "node-dead", node=victim, direction=None, baseline=chaos_baseline
        )
        ev = self.check_bit_identity(job, chaos_baseline)
        assert victim not in ev.partition_nodes
        # the RPC sweep saw the death, not just the mesh watchdogs
        assert d.failed[victim] == "rpc-timeout"
        assert victim in ev.diagnosis["dead_nodes"]

    def test_restart_budget_exhausted(self, chaos_baseline):
        m, d = build_chaos()
        gauge, b = chaos_problem()
        sched = FaultSchedule(
            [
                FaultEvent(
                    time=m.sim.now + 0.4 * chaos_baseline["duration"],
                    kind="link-dead",
                    node=0,
                    direction=0,
                )
            ]
        )
        sched.arm(m, d)
        job = solve_through_faults(d, gauge, b, max_restarts=0)
        assert job.state is JobState.FAILED and job.result is None
        with pytest.raises(MachineError, match="restart budget"):
            raise job.error


# ---------------------------------------------------------------------------
# protocol/boot satellites
# ---------------------------------------------------------------------------
class TestEotTruncationRegression:
    def test_truncated_dma_raises_even_when_seq_matches_total(self):
        # seed bug: ``stored != total and seq != total`` let a truncated
        # transfer slip through whenever the liar's EOT carried seq==total
        m = pair_machine(watchdog=False)
        d_in = m.topology.opposite(m.topology.direction(0, +1))
        m.nodes[1].memory.alloc("rx", np.zeros(8, dtype=np.uint64))
        ru = m.nodes[1].scu.recv_units[d_in]
        ru.post(DmaDescriptor("rx", block_len=8))
        with pytest.raises(ProtocolError, match="truncated DMA"):
            ru.on_eot(8)  # no data words ever arrived

    def test_unexpected_eot_on_idle_receiver_raises(self):
        m = pair_machine(watchdog=False)
        d_in = m.topology.opposite(m.topology.direction(0, +1))
        ru = m.nodes[1].scu.recv_units[d_in]
        with pytest.raises(ProtocolError, match="unexpected EOT"):
            ru.on_eot(4)

    def test_honest_transfer_still_completes(self):
        m = pair_machine(watchdog=False)
        send, recv, _d = start_transfer(m, nwords=64)
        m.sim.run(until=m.sim.all_of([send, recv]), max_time=1.0)
        got = m.nodes[1].memory.get("rx")
        assert np.array_equal(got, np.arange(1, 65, dtype=np.uint64))


class TestGlobalSumDtypeRegression:
    def test_dtype_mismatch_rejected(self):
        sim = Simulator()
        eng = GlobalOpsEngine(sim, ASICConfig(), (2, 1, 1, 1, 1, 1))
        eng.contribute_sum(0, np.ones(2, dtype=np.float64))
        with pytest.raises(MachineError, match="dtype"):
            # silent promotion would change the canonical bit pattern
            eng.contribute_sum(1, np.ones(2, dtype=np.float32))

    def test_matching_dtype_accepted(self):
        sim = Simulator()
        eng = GlobalOpsEngine(sim, ASICConfig(), (2, 1, 1, 1, 1, 1))
        evs = [
            eng.contribute_sum(r, np.ones(2, dtype=np.complex128))
            for r in range(2)
        ]
        sim.run(until=sim.all_of(evs))
        assert np.array_equal(evs[0].value, np.full(2, 2.0 + 0j))


# ---------------------------------------------------------------------------
# hard faults across a shard boundary (E16)
# ---------------------------------------------------------------------------
class TestCrossShardFaults:
    """A dead cable *between* shards of the sharded event engine.

    The fault machinery above all runs on the single-heap simulator;
    these tests pin the sharded equivalents: the watchdog trip happens on
    the lane that owns the cable, the LINK_DOWN escalation reaches the
    machine log through the window barrier (not a cross-lane callback),
    and detection still lands within the ASIC's declared budget plus at
    most one conservative window of barrier latency.
    """

    def test_boundary_cable_trips_within_budget_plus_window(self):
        m = QCDOCMachine(
            MachineConfig(dims=(2, 2, 2, 1, 1, 1)),
            watchdog=True,
            trace=True,
            shards=2,
        )
        m.bring_up()
        d = m.topology.direction(0, +1)
        dst = m.topology.neighbour_by_direction(0, d)
        assert m.shard_of(0) == 0 and m.shard_of(dst) == 1  # boundary cable

        nwords = 2000
        m.nodes[0].memory.alloc("tx", np.arange(1, nwords + 1, dtype=np.uint64))
        m.nodes[dst].memory.alloc("rx", np.zeros(nwords, dtype=np.uint64))
        with m.sim.context(1):
            recv = m.nodes[dst].scu.recv(
                m.topology.opposite(d), DmaDescriptor("rx", block_len=nwords)
            )
        with m.sim.context(0):
            send = m.nodes[0].scu.send(d, DmaDescriptor("tx", block_len=nwords))
            t_kill = m.sim.now + 5e-6
            m.sim.schedule(5e-6, m.network.fail_link, 0, d, "dead")

        with pytest.raises(LinkDownError) as exc:
            m.sim.run(until=m.sim.all_of([send, recv]), max_time=1.0)
        assert exc.value.reason in ("no-ack-progress", "recv-stall", "resend-storm")
        m.quiesce()  # flush the barrier so escalations reach the log

        budget = m.config.asic.watchdog_detection_budget
        window = m.sim.lookahead
        trips = [r for r in m.trace.records if r.tag == "scu.link_down"]
        assert trips, "watchdog never escalated across the boundary"
        for r in trips:
            assert r.time - t_kill <= (
                budget + m.config.asic.watchdog_timeout + window
            )
        # the LINK_DOWN escalation crossed the barrier into the machine log
        assert m.link_down_log
        assert all(node in (0, dst) for node, _d, _r in m.link_down_log)
        counters = [n.scu.transfer_counters() for n in m.nodes.values()]
        assert sum(c["watchdog_trips"] for c in counters) >= 1
        assert sum(c["link_down"] for c in counters) >= 1

    def test_sharded_remap_resume_bit_identical(self, chaos_baseline):
        """Kill a *boundary* cable mid-CG on a 2-shard chaos machine; the
        daemon must diagnose, remap off the broken hyperplane, and resume
        to the unsharded baseline's exact residual history and answer."""
        m = QCDOCMachine(
            MachineConfig(dims=DIMS),
            word_batch=4096,
            watchdog=True,
            trace=True,
            shards=2,
        )
        d = Qdaemon(m)
        ok = d.boot()
        assert all(ok.values())
        gauge, b = chaos_problem()
        # cable (0, 0) leaves node 0 along axis 0: its far end lives on
        # the other shard of the id-contiguous split
        far = m.topology.neighbour_by_direction(0, 0)
        assert m.shard_of(0) != m.shard_of(far)
        t_fault = m.sim.now + 0.4 * chaos_baseline["duration"]
        sched = FaultSchedule(
            [FaultEvent(time=t_fault, kind="link-dead", node=0, direction=0)]
        )
        sched.arm(m, d)
        job = solve_through_faults(d, gauge, b, checkpoint_every=10)
        res = job.result
        assert res.converged
        assert job.restarts == 1
        assert res.iterations == chaos_baseline["iterations"]
        assert tuple(res.residuals) == chaos_baseline["residuals"]
        assert res.x.tobytes() == chaos_baseline["x"]
        ev = job.diagnoses[0]
        assert sorted(ev.partition_nodes) != chaos_baseline["nodes"]
        # detection budget holds with one window of barrier latency
        budget = m.config.asic.watchdog_detection_budget
        trips = [r.time for r in m.trace.records if r.tag == "scu.link_down"]
        assert trips
        assert min(trips) - t_fault <= (
            budget + m.config.asic.watchdog_timeout + m.sim.lookahead
        )


# ---------------------------------------------------------------------------
# the transient/permanent boundary (property-based)
# ---------------------------------------------------------------------------
class TestTransientPermanentBoundary:
    @given(
        ber=st.floats(min_value=1e-4, max_value=4e-3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_flaky_link_below_threshold_never_trips(self, ber, seed):
        """Transient bit errors are go-back-N's job, not the watchdog's.

        A lossy-but-alive link must complete its transfer through resends
        with **zero** watchdog trips — the boundary between the paper's
        section-2.2 transient machinery and this PR's hard-fault path.
        """
        m = pair_machine(bit_error_rate=ber, seed=seed)
        send, recv, d = start_transfer(m, nwords=400)
        m.sim.run(until=m.sim.all_of([send, recv]), max_time=1.0)
        assert np.array_equal(
            m.nodes[1].memory.get("rx"),
            np.arange(1, 401, dtype=np.uint64),
        )
        for node in m.nodes.values():
            c = node.scu.transfer_counters()
            assert c["watchdog_trips"] == 0
            assert c["link_down"] == 0
        assert m.link_down_log == []
        assert m.audit_checksums() == []
