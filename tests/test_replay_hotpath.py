"""Hot-path equivalence: face batching and compiled event-trace replay.

Two optimisation layers claim bit-identity with the reference protocol
and this suite is their contract:

* **Face batching** (``word_batch="face"``): every halo face moves as one
  frame instead of per-word frames.  Results and payload accounting must
  be bit-identical to ``word_batch=1`` for all three fermion families —
  including under injected wire faults, where a corrupt face frame
  triggers a mid-face go-back-N retransmission (wire-level counters such
  as frames/resends legitimately differ; physics and payload may not).

* **Compiled replay** (:mod:`repro.machine.replay`): from the second
  application of an operator, the SCU event schedule is replayed from
  the compiled schedule instead of interpreted.  *Everything* observable
  must match the interpreted machine bit-for-bit: results, residual
  histories, the full counter sample, the trace multiset and the simulated
  clock — under ``shards`` ∈ {1, 2, 4}.  The suite also pins the validity
  gate: replay engages in steady state, never on watchdog-armed machines,
  and a descriptor re-store invalidates the compiled schedule (relearn,
  same bits); and the abort path: a replayed transfer's state lives in
  its SCU units, so a partition abort cancels and drains it like any
  other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.replay import ReplayEngine
from repro.machine.scu import DmaDescriptor, RecvUnit, SendUnit
from repro.parallel import solve_on_machine
from repro.parallel.pcg import _apply_rank_program, cg_rank_program
from repro.telemetry import observable_diff
from repro.util.errors import ProtocolError
from tests.harness import (
    GROUPS,
    applied,
    assert_boot_state,
    assert_same_observables,
    booted,
    scattered,
    system,
    transfer_counters,
)

DIMS_1D = (2, 1, 1, 1, 1, 1)
DIMS_2D = (2, 2, 1, 1, 1, 1)


def payload_counters(m):
    """Payload-level transfer accounting (fault-pattern independent)."""
    out = {}
    for nid in sorted(m.nodes):
        scu = m.nodes[nid].scu
        for d, u in sorted(scu.send_units.items()):
            out[(nid, "send", d)] = (u.payload_words, u.transfers_completed)
        for d, u in sorted(scu.recv_units.items()):
            out[(nid, "recv", d)] = (u.payload_words, u.transfers_completed)
    return out


# ---------------------------------------------------------------------------
# the operator runner, parameterised on family and machine kwargs
# ---------------------------------------------------------------------------

#: family -> (RNG stream, lattice, operator, its parameters)
FAMILIES = {
    "wilson": ("hotpath-eq-wilson", (4, 2, 2, 2), "wilson", {"mass": 0.3}),
    "dwf": ("hotpath-eq-dwf", (4, 2, 2, 2), "dwf", {"Ls": 4, "M5": 1.8, "mf": 0.1}),
    "staggered": ("hotpath-eq-stag", (8, 4, 2, 2), "asqtad", {"mass": 0.1}),
}


def run(family, data_seed, applies=1, word_batch="face", **machine_kwargs):
    """``applies`` chained applications on a fresh 2-node machine.

    The machine *and* the operator context each take the ``word_batch``
    setting (the context drives the stored halo descriptors), so a
    ``word_batch=1`` sweep reaches both explicitly.
    """
    stream, shape, op, params = FAMILIES[family]
    gauge, src = system((data_seed, stream), shape, op, Ls=params.get("Ls"))
    m, part = booted(DIMS_1D, word_batch=word_batch, **machine_kwargs)
    out = applied(
        m, part, op, gauge, src, applies=applies, word_batch=word_batch, **params
    )
    return m, out


# ---------------------------------------------------------------------------
# face batching == word_batch=1, with and without wire faults
# ---------------------------------------------------------------------------


class TestFaceBatchBitExact:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=st.integers(1, 10**6), fault=st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_face_vs_per_word(self, family, seed, fault):
        """Face-batched exchange ``==`` per-word exchange, bit for bit.

        With ``fault=True`` both machines run over lossy wires (the face
        machine recovers corrupt face frames via mid-face go-back-N, the
        per-word machine per word); fault *patterns* differ between the
        two framings, so only physics and payload accounting are
        compared — never wire-level frame/bit/resend counts.
        """
        kwargs = {}
        if fault:
            kwargs = {"bit_error_rate": 2e-6, "seed": seed % 997 + 1}
        m_face, r_face = run(family, seed, applies=2, word_batch="face", **kwargs)
        m_word, r_word = run(family, seed, applies=2, word_batch=1, **kwargs)
        assert np.array_equal(r_face, r_word)
        m_face.quiesce()
        m_word.quiesce()
        assert payload_counters(m_face) == payload_counters(m_word)
        assert m_face.audit_checksums() == []
        assert m_word.audit_checksums() == []

    def test_midface_go_back_n_recovery(self):
        """A seed chosen so corrupt face frames force go-back-N resends:
        recovery is exercised, physics is untouched."""
        m_clean, r_clean = run("wilson", 5, applies=3, word_batch="face")
        m_faulty, r_faulty = run(
            "wilson", 5, applies=3, word_batch="face", bit_error_rate=2e-5, seed=3
        )
        m_faulty.quiesce()
        resends = sum(
            u.resends
            for nid in m_faulty.nodes
            for u in m_faulty.nodes[nid].scu.send_units.values()
        )
        assert resends > 0, "seed failed to corrupt any face frame"
        assert np.array_equal(r_clean, r_faulty)
        assert payload_counters(m_clean) == payload_counters(m_faulty)
        assert m_faulty.audit_checksums() == []


# ---------------------------------------------------------------------------
# compiled replay == interpreted protocol
# ---------------------------------------------------------------------------


class TestReplayBitIdentity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_operator_applications(self, family):
        m_int, r_int = run(family, 31, applies=4, replay=False, trace=True)
        m_rep, r_rep = run(family, 31, applies=4, replay=True, trace=True)
        assert np.array_equal(r_int, r_rep)
        stats = m_rep.replay_stats()
        assert stats["epochs_replayed"] > 0, "replay never engaged"
        assert stats["replayed_transfers"] > 0
        assert m_int.replay_stats()["replayed_transfers"] == 0
        assert_same_observables(m_int, m_rep)
        assert m_rep.audit_checksums() == []

    #: operator parameters of the shape sweep below
    PARAMS = {
        "wilson": {"mass": 0.3},
        "dwf": {"Ls": 2, "M5": 1.8, "mf": 0.1},
        "asqtad": {"mass": 0.1},
    }

    @pytest.mark.parametrize(
        "dims, op, shape",
        [
            # replayed and interpreted timelines were one float rounding
            # apart on these at 3f4da18 (trace timestamps on all six, the
            # clock on five, link busy_seconds on three) ...
            (DIMS_1D, "wilson", (4, 4, 4, 4)),
            (DIMS_1D, "dwf", (8, 4, 4, 2)),
            (DIMS_1D, "asqtad", (8, 2, 2, 2)),
            (DIMS_2D, "wilson", (8, 2, 2, 2)),
            (DIMS_2D, "wilson", (16, 4, 4, 4)),
            (DIMS_2D, "asqtad", (8, 8, 4, 4)),
            # ... and never on these
            (DIMS_1D, "wilson", (8, 4, 4, 2)),
            (DIMS_1D, "dwf", (4, 4, 4, 4)),
            (DIMS_2D, "dwf", (8, 2, 2, 2)),
        ],
    )
    def test_clock_and_trace_across_shapes(self, dims, op, shape):
        """Replay clocks its legs out through the wire the interpreter
        uses, so the two agree at every size, not at the sizes where two
        spellings of one sum happen to round alike."""
        params = self.PARAMS[op]
        gauge, src = system((31, f"replay-shape-{op}"), shape, op, Ls=params.get("Ls"))

        def four_applications(replay):
            m, part = booted(dims, word_batch="face", trace=True, replay=replay)
            out = applied(
                m, part, op, gauge, src, applies=4, word_batch="face", **params
            )
            return m, out

        m_int, r_int = four_applications(False)
        m_rep, r_rep = four_applications(True)
        assert np.array_equal(r_int, r_rep)
        assert m_rep.replay_stats()["replayed_transfers"] > 0
        assert_same_observables(m_int, m_rep)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_short_cg_residual_history(self, shards):
        gauge, b = system((23, "replay-cg"), (4, 4, 2, 2))

        def solve(replay, nshards):
            m, part = booted(
                DIMS_2D, shards=nshards, trace=True, replay=replay,
                word_batch="face",
            )
            res = solve_on_machine(
                m, part, gauge, b, mass=0.3, tol=1e-6, maxiter=6
            )
            m.quiesce()
            return m, res

        m_int, res_int = solve(False, shards)
        m_rep, res_rep = solve(True, shards)
        assert res_int.iterations == res_rep.iterations
        assert res_int.residuals == res_rep.residuals  # bitwise equality
        assert np.array_equal(res_int.x, res_rep.x)
        assert res_rep.checksum_mismatches == []
        assert_same_observables(m_int, m_rep)
        if shards == 1:
            # unsharded: every pair is in-process, so the steady state
            # must actually be running from the compiled schedule
            assert m_rep.replay_stats()["epochs_replayed"] > 0


class TestReplayValidityGate:
    def test_watchdog_armed_machines_never_replay(self):
        """Fault-tolerance machinery needs real protocol stalls: a
        watchdog-armed machine must run fully interpreted."""
        m, r = run("wilson", 41, applies=3, watchdog=True)
        m.quiesce()
        stats = m.replay_stats()
        assert stats["replayed_transfers"] == 0
        # and the physics is the same as the replaying twin's
        m2, r2 = run("wilson", 41, applies=3)
        assert np.array_equal(r, r2)

    def test_descriptor_store_invalidates(self):
        """Re-storing descriptors (a second context on the same nodes)
        drops the compiled schedule; the engine relearns and the output
        stays bit-identical to the never-replayed machine."""
        gauge, psi = system((47, "replay-invalidate"), (4, 2, 2, 2))

        def run(replay):
            m, part = booted(DIMS_1D, replay=replay, word_batch="face")
            context = scattered(part, "wilson", gauge, mass=0.3)
            lpsi = context.scatter(psi)

            def program(api):
                ctx = context(api)
                out = lpsi[api.rank]
                for _ in range(3):
                    out = yield from ctx.apply(out)
                # Re-store every descriptor in place (same contents, new
                # register write): the compiled schedule is now stale and
                # must be dropped and relearned.
                scu = api.node.scu
                for (kind, direction), (desc, grp, batch) in sorted(
                    scu._stored.items()
                ):
                    scu.store_descriptor(
                        kind, direction, desc, group=grp, word_batch=batch
                    )
                for _ in range(3):
                    out = yield from ctx.apply(out)
                return out

            results = m.run_partition(part, program)
            m.quiesce()
            return m, context.gather(np.stack(results))

        m_rep, r_rep = run(True)
        m_int, r_int = run(False)
        stats = m_rep.replay_stats()
        assert stats["invalidations"] > 0
        assert stats["epochs_replayed"] > 0  # replayed again after relearn
        assert np.array_equal(r_rep, r_int)
        assert payload_counters(m_rep) == payload_counters(m_int)


# ---------------------------------------------------------------------------
# a replayed transfer lives in its units: abort, drain, reuse
# ---------------------------------------------------------------------------


def pending_callee(entry):
    """What a heap entry will run: the landing callback for a frame on
    the wire (``SerialLink._land(ptype, seq, nwords, land, cargo)``),
    else the scheduled function itself."""
    _time, _seq, fn, args = entry
    return args[3] if fn.__name__ == "_land" else fn


def int_counters(machine):
    sample = machine.counters()
    return {k: v for k, v in sample.items() if isinstance(v, int)}


def assert_next_job_as_fresh(m, job, **machine_kwargs):
    """``job(machine)`` on the used machine ``m`` — every earlier run on it
    finalized — is the job a machine booted for it runs: the same fields,
    the same integer counters moved, the same replay statistics (its
    first epoch of a tag learns, the rest replay) and the same simulated
    time taken."""

    def measured(machine):
        machine.quiesce()
        counters, stats, t0 = (
            int_counters(machine), machine.replay_stats(), machine.sim.now
        )
        out = job(machine)
        machine.quiesce()
        moved = {k: v - counters[k] for k, v in int_counters(machine).items()}
        learned = {k: v - stats[k] for k, v in machine.replay_stats().items()}
        return out, moved, learned, machine.sim.now - t0

    fresh, _ = booted(m.config.dims, **machine_kwargs)
    got, want = measured(m), measured(fresh)
    assert np.array_equal(got[0], want[0])
    assert observable_diff({"counters": want[1]}, {"counters": got[1]}) == {}
    assert got[2] == want[2]
    # two clocks started at different offsets: equal to rounding
    assert got[3] == pytest.approx(want[3], rel=1e-9)
    return fresh


class TestReplayAbort:
    """A partition abort while replayed transfers are in every phase.

    At 3f4da18 replay kept its transfers in private engine state, outside
    ``SCU.in_flight_words()`` / ``SerialLink.in_transit`` and the drain
    filter: ``quiesced()`` held with payloads still on the heap, which
    then landed in freed buffers (``KeyError``) or in the next job's.
    """

    SHAPE = (8, 8, 4, 4)

    #: the replay-scheduled heap entry the abort interrupts: the first
    #: word's DMA delay, the data frame in flight, the ACK in flight, the
    #: store pipe, the EOT clocking out
    PHASES = ["_tx_data", "_rx_data", "_rx_ack", "_complete", "finish"]

    def launch(self, m, part, gauge, psi, applies):
        context = scattered(part, "wilson", gauge, mass=0.3)
        return m.launch_partition(
            part,
            _apply_rank_program,
            context=context,
            local_src=context.scatter(psi),
            applies=applies,
            dagger=False,
        )

    @pytest.mark.parametrize("phase", PHASES)
    def test_abort_drains_replayed_transfers(self, phase):
        gauge, psi = system((7, "replay-abort"), self.SHAPE)
        m, part = booted(DIMS_1D, word_batch="face")
        run = self.launch(m, part, gauge, psi, applies=50)

        def in_phase():
            return m.replay_stats()["epochs_replayed"] >= 6 and any(
                getattr(pending_callee(entry), "__name__", "") == phase
                for entry in m.sim._heap
            )

        m.sim.run(stop=in_phase)
        assert not run.settled
        run.abort()
        m.sim.run(stop=run.quiesced)

        # nothing left on the heap can write memory or move a unit: no
        # frame is on a wire, and what replay or a unit still has queued
        # is guarded by the completion event the abort has already failed
        for entry in m.sim._heap:
            callee = pending_callee(entry)
            assert entry[2].__name__ != "_land", entry
            owner = getattr(callee, "__self__", None)
            if isinstance(owner, (ReplayEngine, SendUnit, RecvUnit)):
                done = entry[3][-1]
                assert done.triggered and not done.ok, entry

        run.finalize()
        nodes = [m.nodes[part.physical_node(r)] for r in range(part.n_nodes)]
        for node in nodes:
            assert node.memory.buffer_names() == []
            # the next job's buffers, under the names the aborted one used
            for name in ("halo_fwd0", "halo_bwd0"):
                node.memory.alloc(name, np.zeros(8192, dtype=np.uint64))
        counters = transfer_counters(m, part)
        m.sim.run()  # a full drain: raises nothing, writes nothing
        assert transfer_counters(m, part) == counters
        for node in nodes:
            for name in ("halo_fwd0", "halo_bwd0"):
                assert not node.memory.get(name).any()
                node.memory.free(name)
            scu = node.scu
            assert scu.in_flight_words() == 0
            assert not any(u.active for u in scu.send_units.values())
            assert all(
                u.descriptor is None and u.done is None and not u.held
                for u in scu.recv_units.values()
            )

        assert_boot_state(m, sorted(m.nodes))

        # both ends summed what was acknowledged, drained ACKs included:
        # every wire audits clean, and the same nodes run the next job
        # exactly as a fresh machine does
        assert m.audit_checksums() == []
        m_new = assert_next_job_as_fresh(
            m,
            lambda machine: applied(
                machine,
                machine.partition(groups=GROUPS),
                "wilson",
                gauge,
                psi,
                applies=3,
                mass=0.3,
            ),
            word_batch="face",
        )
        assert m.audit_checksums() == m_new.audit_checksums() == []

    @pytest.mark.parametrize("word_batch", [1, "face"])
    def test_clean_settle_then_a_job_of_another_shape(self, word_batch):
        """The same promise on the path no fault takes.  At 6677975 a run
        that settled cleanly left its 12 stored descriptors in every SCU,
        and a second job of another shape on overlapping nodes started
        them: ``KeyError: ('recv', 2)`` in ``start_stored_events``."""
        folded = [[0], [1], [2], [3, 4, 5]]
        m, part = booted((2, 2, 2, 1, 1, 1), groups=folded, word_batch=word_batch)
        gauge, psi = system((7, "replay-abort"), (4, 4, 4, 2))
        applied(m, part, "wilson", gauge, psi, applies=3, mass=0.3)
        assert_boot_state(m, sorted(m.nodes))

        gauge2, src2 = system((9, "another-shape"), (4, 2, 2, 2), "dwf", Ls=4)

        def second(machine):  # another operator, on two of the eight nodes
            sub = machine.partition(groups=folded, extents=(2, 1, 1, 1, 1, 1))
            return applied(machine, sub, "dwf", gauge2, src2, applies=3, Ls=4)

        m_new = assert_next_job_as_fresh(m, second, word_batch=word_batch)
        assert_boot_state(m, sorted(m.nodes))
        assert m.audit_checksums() == m_new.audit_checksums() == []

    def test_abort_with_a_resume_still_queued(self):
        """A rank whose wake-up is already on the heap when ``abort()``
        queues its interrupt runs on first, into one more hot epoch — with
        the records dropped and the descriptors cancelled it *learns*, and
        compiles, an empty schedule.  After ``finalize()`` no engine holds
        an epoch, open, half-learned or compiled."""
        gauge, b = system((7, "abort-queued"), (4, 2, 2, 2), start="weak", eps=0.3)
        for skip in range(6):  # at 6677975 the third and fourth leave a record
            m, part = booted(DIMS_1D, word_batch="face")
            context = scattered(part, "wilson", gauge, mass=0.3)
            run = m.launch_partition(
                part,
                cg_rank_program,
                context=context,
                local_b=context.scatter(b),
                tol=1e-10,
                maxiter=50,
            )
            seen = []

            def resume_queued():
                if m.replay_stats()["epochs_replayed"] < 4:
                    return False
                if any(
                    when == m.sim.now
                    and getattr(fn, "__name__", "") == "_resume"
                    and getattr(fn, "__self__", None) in run.processes
                    for when, _seq, fn, _args in m.sim._heap
                ):
                    seen.append(m.sim.now)
                return len(seen) > skip

            m.sim.run(stop=resume_queued)
            assert not run.settled
            run.abort()
            m.sim.run(stop=run.quiesced)
            run.finalize()
            assert_boot_state(m, sorted(m.nodes))
            m.sim.run()  # what is left on the heap raises nothing

    def test_nodes_of_different_histories_count_epochs_alike(self):
        """Two of four nodes run a job first; all four then join one
        partition.  At 6677975 ``epoch_seq`` outlived the first job, the
        two veterans keyed their verdicts ``(direction, tag, 6..9)`` and
        the newcomers ``(…, 1..4)``, and no endpoint ever read the verdict
        its neighbour had written for it."""
        m, part = booted(DIMS_2D, word_batch="face")
        sub = m.partition(groups=GROUPS, extents=DIMS_1D)
        gauge, psi = system((3, "history"), (4, 2, 2, 2))
        applied(m, sub, "wilson", gauge, psi, applies=5, mass=0.3)

        gauge, psi = system((4, "joined"), (4, 4, 2, 2))
        applies, before = 4, {i: n.scu.replay.stats() for i, n in m.nodes.items()}
        run = self.launch(m, part, gauge, psi, applies)
        m.sim.run(stop=lambda: run.settled)
        assert not run.faults
        ledgers = {
            i: {key[1:] for key in n.scu.replay._verdicts}
            for i, n in sorted(m.nodes.items())
        }
        assert len({frozenset(keys) for keys in ledgers.values()}) == 1, ledgers
        for i, node in sorted(m.nodes.items()):
            stats = node.scu.replay.stats()
            # the first application learns forward and backward hopping
            # alike; every later one replays, on every node
            assert stats["epochs_replayed"] - before[i]["epochs_replayed"] == (
                applies - 1
            )
            assert stats["interpreted_fallbacks"] == 0
        run.finalize()
        assert_boot_state(m, sorted(m.nodes))

    def test_interpreted_send_refused_while_replayed_one_is_in_flight(self):
        """A replayed transfer claims its send unit like any other."""
        gauge, psi = system((7, "replay-abort"), (4, 2, 2, 2))
        m, part = booted(DIMS_1D, word_batch="face")
        run = self.launch(m, part, gauge, psi, applies=8)
        m.sim.run(
            stop=lambda: any(
                getattr(pending_callee(entry), "__name__", "") == "_rx_data"
                for entry in m.sim._heap
            )
        )
        scu = m.nodes[0].scu
        busy = [d for d, unit in sorted(scu.send_units.items()) if unit.active]
        assert busy and m.replay_stats()["replayed_transfers"] > 0
        m.nodes[0].memory.alloc("intruder", np.zeros(4, dtype=np.uint64))
        with pytest.raises(ProtocolError, match="already has an active transfer"):
            scu.send(busy[0], DmaDescriptor("intruder", block_len=4))
        m.nodes[0].memory.free("intruder")
        m.sim.run(stop=lambda: run.settled)
        assert not run.faults
