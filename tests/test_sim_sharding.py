"""Cross-shard determinism suite for the sharded event engine (E16).

The sharded simulator (:mod:`repro.sim.shard`) must be *observably
indistinguishable* from the single-heap engine: same results bit for bit,
same counters, same trace multiset — for any shard count, any fermion
action, and both executors.  This suite locks that contract down:

* unit tests of the window protocol's deterministic delivery order
  (``(time, src_shard, src_seq)``, coordinator posts first) and of the
  exact-horizon edge case (a message landing precisely at ``T + W``);
* bit-identity of Wilson / domain-wall / staggered dslash and a short CG
  solve across ``shards = 1 / 2 / 4``;
* window-boundary edge cases: word-exact protocol (``word_batch=1``,
  control frames at the lookahead bound), zero-traffic windows, shards
  that own no nodes, and partitions leaving a shard idle;
* a Hypothesis property sweep over machine/shard/batch configurations;
* serial vs forked executor equivalence (POSIX only).

Trace comparison is by **multiset** of ``(time, tag, fields)``: the
engines may interleave simultaneous events differently (different ``seq``
assignment), but every record must exist at the same simulated time with
the same payload.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fermions import WilsonDirac
from repro.machine.asic import ASICConfig, MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import solve_on_machine
from repro.sim.shard import ShardedSimulator
from repro.sim.sync import COORDINATOR, CrossShardRouter
from repro.util.errors import ConfigError, SimulationError
from tests.harness import (
    applied,
    assert_same_observables,
    booted,
    scattered,
    system,
)

pytestmark = pytest.mark.sharding

# ---------------------------------------------------------------------------
# window-protocol units
# ---------------------------------------------------------------------------


class _ProbeLink:
    """Duck-typed delivery endpoint for router unit tests."""

    def __init__(self, log, name):
        self.log = log
        self.name = name

    def _deliver(self, item):
        self.log.append((self.name, item))


class TestWindowProtocol:
    def test_lookahead_closed_form(self):
        # one bare header on the wire plus its time of flight, on the
        # sheet; the machine hands that figure to the sharded engine
        # (there is no second copy of the formula for it to disagree with)
        asic = ASICConfig()
        expect = asic.frame_header_bits / asic.clock_hz + asic.wire_latency
        assert asic.shard_lookahead == expect
        m, _ = booted((2, 1, 1, 1, 1, 1), shards=2)
        assert m.sim.lookahead == asic.shard_lookahead

    def test_post_flush_order_is_time_shard_seq(self):
        log = []
        router = CrossShardRouter(3, lambda: 2)
        router.register_link("a", _ProbeLink(log, "a"))
        router.register_link("b", _ProbeLink(log, "b"))
        # posted out of time order, same-time posts from one shard keep
        # their emission (seq) order
        router.post_frame(0, 2.0, "a", "late")
        router.post_frame(0, 1.0, "b", "early")
        router.post_frame(0, 2.0, "b", "late2")
        posts, notes = router.drain()
        assert notes == []
        assert [(p.time, p.src_shard, p.src_seq) for p in posts] == [
            (1.0, 2, 1),
            (2.0, 2, 0),
            (2.0, 2, 2),
        ]
        # a second drain is empty (buffers are consumed)
        assert router.drain() == ([], [])

    def test_coordinator_posts_sort_before_worker_posts(self):
        router = CrossShardRouter(2, lambda: 1)
        router.post_frame(0, 5.0, "k", "worker")
        router.coordinator_post("gsum", 0, 5.0, (0, 0, 0), (None, None))
        posts, _ = router.drain()
        posts.extend(router.drain_coordinator())
        ordered = sorted(posts, key=lambda p: p.order)
        assert ordered[0].src_shard == COORDINATOR
        assert ordered[1].src_shard == 1

    def test_unhandled_note_kind_raises(self):
        router = CrossShardRouter(2, lambda: 0)
        router.notify("mystery", x=1)
        _, notes = router.drain()
        with pytest.raises(SimulationError, match="mystery"):
            router.dispatch_notes(notes)

    def test_message_exactly_at_lookahead_horizon(self):
        """A frame timed precisely at ``T + W`` is window-safe.

        The window is half-open ``[T, T + W)``: the sending event runs
        inside the window, the delivery is exchanged at the barrier and
        executes in the *next* window — after any lane-local event
        scheduled earlier for the same instant (lower lane seq).
        """
        sim = ShardedSimulator(2, lookahead=1.0)
        log = []
        sim.router.register_link("x", _ProbeLink(log, "x"))

        def local_tick():
            log.append(("local", sim.now))

        def sender():
            sim.router.post_frame(1, sim.now + 1.0, "x", "edge")

        with sim.context(1):
            sim.schedule(1.0, local_tick)  # lane-local event at exactly T+W
        with sim.context(0):
            sim.schedule(0.0, sender)
        sim.run()
        assert log == [("local", 1.0), ("x", "edge")]

    def test_zero_traffic_windows_drain(self):
        """Lanes with no cross-shard traffic just tick through windows."""
        sim = ShardedSimulator(3, lookahead=1.0)
        seen = []
        for k in range(3):
            with sim.context(k):
                for i in range(4):
                    sim.schedule(
                        10.0 * i + k, (lambda k=k, i=i: seen.append((k, i)))
                    )
        sim.run()
        assert sorted(seen) == [(k, i) for k in range(3) for i in range(4)]
        assert sim.peek() == float("inf")

    def test_single_heap_context_compatibility(self):
        """The plain Simulator exposes the same shard-addressing API."""
        from repro.sim.core import Simulator

        sim = Simulator()
        assert sim.n_shards == 1 and sim.current_shard == 0
        with sim.context(0):
            sim.schedule(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.context(1)

    def test_shard_context_range_checked(self):
        sim = ShardedSimulator(2, lookahead=1.0)
        with pytest.raises(SimulationError):
            sim.context(2)
        with pytest.raises(SimulationError):
            ShardedSimulator(0, lookahead=1.0)
        with pytest.raises(SimulationError):
            ShardedSimulator(2, lookahead=0.0)

    def test_deadlock_with_stop_unmet_raises(self):
        sim = ShardedSimulator(2, lookahead=1.0)
        with sim.context(0):
            sim.schedule(0.0, lambda: None)
        with pytest.raises(SimulationError, match="stop condition unmet"):
            sim.run(stop=lambda: False)


# ---------------------------------------------------------------------------
# bit-identity across shard counts: all three fermion actions + CG
# ---------------------------------------------------------------------------

DIMS_8 = (2, 2, 2, 1, 1, 1)
DIMS_4 = (2, 2, 1, 1, 1, 1)

#: family -> (machine dims, RNG stream, lattice, operator, its parameters);
#: ASQTAD's comm-axis local extents must be >= 3 for the Naik halo: (8, 8)
#: over a (2, 2) logical machine gives local (4, 4, 2, 2)
FAMILIES = {
    "wilson": (DIMS_8, (77, "shard-wilson"), (4, 4, 4, 2), "wilson", {"mass": 0.3}),
    "dwf": (
        DIMS_4, (18, "shard-dwf"), (4, 4, 2, 2), "dwf",
        {"Ls": 4, "M5": 1.8, "mf": 0.1},
    ),
    "staggered": (DIMS_4, (19, "shard-stag"), (8, 8, 2, 2), "asqtad", {"mass": 0.1}),
}


def dslash(family, shards, word_batch=4096, **machine_kwargs):
    """One traced application of a family's operator on its machine."""
    dims, stream, shape, op, params = FAMILIES[family]
    gauge, src = system(stream, shape, op, Ls=params.get("Ls"))
    m, part = booted(
        dims, shards=shards, word_batch=word_batch, trace=True, **machine_kwargs
    )
    return m, applied(m, part, op, gauge, src, **params), gauge, src


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_wilson_dslash(self, shards):
        m1, r1, gauge, psi = dslash("wilson", 1)
        mN, rN, _, _ = dslash("wilson", shards)
        assert np.array_equal(r1, rN)
        # and both equal the serial operator (physics is right, not just
        # consistently wrong)
        assert np.allclose(r1, WilsonDirac(gauge, mass=0.3).apply(psi), atol=1e-12)
        assert_same_observables(m1, mN)
        assert mN.audit_checksums() == []

    @pytest.mark.parametrize("shards", [2, 4])
    def test_dwf_dslash(self, shards):
        m1, r1, _, _ = dslash("dwf", 1)
        mN, rN, _, _ = dslash("dwf", shards)
        assert np.array_equal(r1, rN)
        assert_same_observables(m1, mN)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_staggered_dslash(self, shards):
        m1, r1, _, _ = dslash("staggered", 1)
        mN, rN, _, _ = dslash("staggered", shards)
        assert np.array_equal(r1, rN)
        assert_same_observables(m1, mN)

    def test_short_cg_residual_history(self):
        gauge, b = system((21, "shard-cg"), (4, 4, 2, 2))

        def solve(shards):
            m, part = booted(DIMS_4, shards=shards, word_batch=4096, trace=True)
            res = solve_on_machine(
                m, part, gauge, b, mass=0.3, tol=1e-6, maxiter=6
            )
            m.quiesce()
            return m, res

        m1, res1 = solve(1)
        m2, res2 = solve(2)
        assert res1.iterations == res2.iterations
        assert res1.residuals == res2.residuals  # bitwise float equality
        assert np.array_equal(res1.x, res2.x)
        assert res2.checksum_mismatches == []
        assert_same_observables(m1, m2)

    def test_repeat_run_is_bit_identical(self):
        """Same sharded config twice: identical trace *sequence*."""
        m_a, r_a, _, _ = dslash("wilson", 2)
        m_b, r_b, _, _ = dslash("wilson", 2)
        assert np.array_equal(r_a, r_b)
        m_a.quiesce(), m_b.quiesce()
        rec_a, rec_b = (
            [(r.time, r.tag, sorted(r.fields.items())) for r in m.trace.records]
            for m in (m_a, m_b)
        )
        assert rec_a == rec_b


# ---------------------------------------------------------------------------
# window-boundary edge cases on the real machine
# ---------------------------------------------------------------------------


class TestMachineEdgeCases:
    def test_word_exact_protocol_across_boundary(self):
        """``word_batch=1``: every ACK/RESEND control frame arrives exactly
        at the lookahead bound (bare header + flight)."""
        m1, r1, _, _ = dslash("wilson", 1, word_batch=1)
        m2, r2, _, _ = dslash("wilson", 2, word_batch=1)
        assert np.array_equal(r1, r2)
        assert_same_observables(m1, m2)

    def test_more_shards_than_nodes(self):
        """Surplus shards own no nodes and idle through every window."""
        m, part = booted(DIMS_4, shards=6, word_batch=4096, trace=True)
        owners = {m.shard_of(i) for i in range(m.n_nodes)}
        assert len(owners) < 6  # some shards are empty

        def program(api):
            total = yield api.global_sum(np.ones(2) * (api.rank + 1))
            return total

        results = m.run_partition(part, program)
        m.quiesce()
        assert all(np.array_equal(r, results[0]) for r in results)
        assert np.array_equal(results[0], np.ones(2) * 10.0)

    def test_sub_partition_leaves_shard_idle(self):
        """A partition confined to shard 0's nodes: shard 1 sees zero
        traffic at every barrier, the run still completes and matches."""

        def run(shards):
            m = QCDOCMachine(
                MachineConfig(dims=DIMS_8), word_batch=4096, shards=shards,
                trace=True,
            )
            m.bring_up()
            # node ids are C-order (last axis fastest): pinning axis 0 to
            # the origin keeps all four nodes in ids 0..3 == shard 0
            part = m.partition(
                groups=[(1,), (2,)],
                origin=(0, 0, 0, 0, 0, 0),
                extents=(1, 2, 2, 1, 1, 1),
                require_periodic=False,
            )
            assert {m.shard_of(part.physical_node(r)) for r in range(4)} <= {0}

            def program(api):
                total = yield api.global_sum(np.arange(3) + api.rank)
                yield api.barrier()
                return total

            results = m.run_partition(part, program)
            m.quiesce()
            return m, results

        m1, r1 = run(1)
        m2, r2 = run(2)
        assert all(np.array_equal(a, b) for a, b in zip(r1, r2))
        assert_same_observables(m1, m2)

    def test_shards_knob_validation(self):
        with pytest.raises(ConfigError):
            QCDOCMachine(MachineConfig(dims=DIMS_8), shards=0)
        with pytest.raises(ConfigError):
            QCDOCMachine(MachineConfig(dims=DIMS_8), shard_workers="threads")


# ---------------------------------------------------------------------------
# property sweep
# ---------------------------------------------------------------------------


class TestShardingProperties:
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(
        shards=st.integers(min_value=2, max_value=5),
        word_batch=st.sampled_from([1, 7, 4096]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_gsum_and_halo_identical_to_single_heap(
        self, shards, word_batch, seed
    ):
        gauge, psi = system((seed, "shard-prop"), (4, 2, 2, 2))

        def run(n):
            m, part = booted(DIMS_4, shards=n, word_batch=word_batch, trace=True)
            context = scattered(part, "wilson", gauge, mass=0.25)
            lpsi = context.scatter(psi)

            def program(api):
                out = yield from context(api).apply(lpsi[api.rank])
                norm = yield api.global_sum(
                    np.array([np.vdot(out, out).real])
                )
                return out, norm

            results = m.run_partition(part, program)
            return m, results

        m1, res1 = run(1)
        mN, resN = run(shards)
        for (out1, norm1), (outN, normN) in zip(res1, resN):
            assert np.array_equal(out1, outN)
            assert np.array_equal(norm1, normN)
        assert_same_observables(m1, mN)


# ---------------------------------------------------------------------------
# fork executor
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs POSIX fork")
class TestForkExecutor:
    def test_fork_matches_serial(self):
        m_s, r_s, _, _ = dslash("wilson", 2)
        m_f, r_f, _, _ = dslash("wilson", 2, shard_workers="fork")
        assert np.array_equal(r_s, r_f)
        assert_same_observables(m_s, m_f)
        assert m_f.audit_checksums() == []

    def test_fork_gsum_only(self):
        def run(workers):
            m, part = booted(
                DIMS_8, shards=2, word_batch=4096, trace=True, shard_workers=workers
            )

            def program(api):
                a = yield api.global_sum(np.arange(4.0) * (api.rank + 1))
                yield api.barrier()
                b = yield api.global_sum(a * 0.5)
                return b

            results = m.run_partition(part, program)
            m.quiesce()
            return m, results

        m_s, r_s = run("serial")
        m_f, r_f = run("fork")
        assert all(np.array_equal(a, b) for a, b in zip(r_s, r_f))
        assert_same_observables(m_s, m_f)
