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
  the compiled closed-form timeline instead of interpreted.  *Everything*
  observable must match the interpreted machine bit-for-bit: results,
  residual histories, the full counter bank, and the trace multiset —
  under ``shards`` ∈ {1, 2, 4}.  The suite also pins the validity gate:
  replay engages in steady state, never on watchdog-armed machines, and
  a descriptor re-store invalidates the compiled schedule (relearn, same
  bits).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import solve_on_machine
from tests.harness import (
    applied,
    assert_same_observables,
    booted,
    scattered,
    system,
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
