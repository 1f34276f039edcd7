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

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import PhysicsMapping, solve_on_machine
from repro.parallel.pdirac import DistributedWilsonContext
from repro.parallel.pdwf import DistributedDWFContext
from repro.util import rng_stream

GROUPS_2 = [(0,), (1,), (2,), (3,)]
DIMS_1D = (2, 1, 1, 1, 1, 1)
DIMS_2D = (2, 2, 1, 1, 1, 1)


def make_machine(dims, **kwargs):
    m = QCDOCMachine(MachineConfig(dims=dims), **kwargs)
    m.bring_up()
    return m, m.partition(groups=GROUPS_2)


def pop_word_batch(kwargs):
    """Split the ``word_batch`` setting out of runner kwargs.

    The machine *and* the operator context each take the setting: the
    context drives the stored halo descriptors (its default is
    ``"face"``), so a ``word_batch=1`` sweep must reach it explicitly or
    the comparison degenerates to face-vs-face.
    """
    return kwargs.pop("word_batch", "face"), kwargs


def canon_fields(fields):
    return tuple(sorted(fields.items()))


def observables(m):
    m.quiesce()
    sample = m.counter_bank().sample()
    multiset = Counter(
        (r.time, r.tag, canon_fields(r.fields)) for r in m.trace.records
    )
    return sample, multiset


def assert_observables_match(m_ref, m_got):
    ref_sample, ref_trace = observables(m_ref)
    got_sample, got_trace = observables(m_got)
    diffs = {
        k: (ref_sample.get(k), got_sample.get(k))
        for k in set(ref_sample) | set(got_sample)
        if ref_sample.get(k) != got_sample.get(k)
    }
    assert diffs == {}, f"counter drift replay-vs-interpreted: {diffs}"
    assert ref_trace == got_trace, (
        "trace multiset drift replay-vs-interpreted: "
        f"only-ref={list((ref_trace - got_trace))[:5]} "
        f"only-got={list((got_trace - ref_trace))[:5]}"
    )


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
# operator runners (one per family), parameterised on machine kwargs
# ---------------------------------------------------------------------------


def wilson_apply(data_seed, applies=1, **kwargs):
    word_batch, kwargs = pop_word_batch(kwargs)
    rng = rng_stream(data_seed, "hotpath-eq-wilson")
    geom = LatticeGeometry((4, 2, 2, 2))
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
        (geom.volume, 4, 3)
    )
    m, part = make_machine(DIMS_1D, word_batch=word_batch, **kwargs)
    mapping = PhysicsMapping(geom, part)
    links = mapping.scatter_gauge(gauge)
    lpsi = mapping.scatter_field(psi)

    def program(api):
        ctx = DistributedWilsonContext(
            api, mapping.local_shape, links[api.rank], mass=0.3,
            word_batch=word_batch,
        )
        out = lpsi[api.rank]
        for _ in range(applies):
            out = yield from ctx.apply(out)
        return out

    results = m.run_partition(part, program)
    return m, mapping.gather_field(np.stack(results))


def dwf_apply(data_seed, applies=1, **kwargs):
    word_batch, kwargs = pop_word_batch(kwargs)
    Ls = 4
    rng = rng_stream(data_seed, "hotpath-eq-dwf")
    geom = LatticeGeometry((4, 2, 2, 2))
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((Ls, geom.volume, 4, 3)) + 1j * rng.standard_normal(
        (Ls, geom.volume, 4, 3)
    )
    m, part = make_machine(DIMS_1D, word_batch=word_batch, **kwargs)
    mapping = PhysicsMapping(geom, part)
    links = mapping.scatter_gauge(gauge)
    lb = np.stack([mapping.scatter_field(psi[s]) for s in range(Ls)], axis=1)

    def program(api):
        ctx = DistributedDWFContext(
            api, mapping.local_shape, links[api.rank], Ls=Ls, M5=1.8, mf=0.1,
            word_batch=word_batch,
        )
        out = lb[api.rank]
        for _ in range(applies):
            out = yield from ctx.apply(out)
        return out

    results = m.run_partition(part, program)
    return m, np.stack(results)


def staggered_apply(data_seed, applies=1, **kwargs):
    from repro.fermions.staggered import fat_links, long_links
    from repro.parallel.pstaggered import DistributedStaggeredContext

    word_batch, kwargs = pop_word_batch(kwargs)
    rng = rng_stream(data_seed, "hotpath-eq-stag")
    geom = LatticeGeometry((8, 4, 2, 2))
    gauge = GaugeField.hot(geom, rng)
    m, part = make_machine(DIMS_1D, word_batch=word_batch, **kwargs)
    mapping = PhysicsMapping(geom, part)
    fat, lng = fat_links(gauge), long_links(gauge)
    ndim, v = geom.ndim, mapping.tiling.local_volume
    lfat = np.empty((mapping.n_ranks, ndim, v, 3, 3), dtype=np.complex128)
    llong = np.empty_like(lfat)
    for mu in range(ndim):
        lfat[:, mu] = mapping.tiling.scatter(fat[mu])
        llong[:, mu] = mapping.tiling.scatter(lng[mu])
    chi = rng.standard_normal((geom.volume, 3)) + 1j * rng.standard_normal(
        (geom.volume, 3)
    )
    lchi = mapping.scatter_field(chi)

    def program(api):
        ctx = DistributedStaggeredContext(
            api, mapping.local_shape, lfat[api.rank], llong[api.rank], mass=0.1,
            word_batch=word_batch,
        )
        out = lchi[api.rank]
        for _ in range(applies):
            out = yield from ctx.apply(out)
        return out

    results = m.run_partition(part, program)
    return m, np.stack(results)


RUNNERS = {
    "wilson": wilson_apply,
    "dwf": dwf_apply,
    "staggered": staggered_apply,
}


# ---------------------------------------------------------------------------
# face batching == word_batch=1, with and without wire faults
# ---------------------------------------------------------------------------


class TestFaceBatchBitExact:
    @pytest.mark.parametrize("family", sorted(RUNNERS))
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
        run = RUNNERS[family]
        kwargs = {}
        if fault:
            kwargs = {"bit_error_rate": 2e-6, "seed": seed % 997 + 1}
        m_face, r_face = run(seed, applies=2, word_batch="face", **kwargs)
        m_word, r_word = run(seed, applies=2, word_batch=1, **kwargs)
        assert np.array_equal(r_face, r_word)
        m_face.quiesce()
        m_word.quiesce()
        assert payload_counters(m_face) == payload_counters(m_word)
        assert m_face.audit_checksums() == []
        assert m_word.audit_checksums() == []

    def test_midface_go_back_n_recovery(self):
        """A seed chosen so corrupt face frames force go-back-N resends:
        recovery is exercised, physics is untouched."""
        m_clean, r_clean = wilson_apply(5, applies=3, word_batch="face")
        m_faulty, r_faulty = wilson_apply(
            5, applies=3, word_batch="face", bit_error_rate=2e-5, seed=3
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
    @pytest.mark.parametrize("family", sorted(RUNNERS))
    def test_operator_applications(self, family):
        run = RUNNERS[family]
        m_int, r_int = run(31, applies=4, replay=False, trace=True)
        m_rep, r_rep = run(31, applies=4, replay=True, trace=True)
        assert np.array_equal(r_int, r_rep)
        stats = m_rep.replay_stats()
        assert stats["epochs_replayed"] > 0, "replay never engaged"
        assert stats["replayed_transfers"] > 0
        assert m_int.replay_stats()["replayed_transfers"] == 0
        assert_observables_match(m_int, m_rep)
        assert m_rep.audit_checksums() == []

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_short_cg_residual_history(self, shards):
        rng = rng_stream(23, "replay-cg")
        geom = LatticeGeometry((4, 4, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        b = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (geom.volume, 4, 3)
        )

        def solve(replay, nshards):
            m, part = make_machine(
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
        assert_observables_match(m_int, m_rep)
        if shards == 1:
            # unsharded: every pair is in-process, so the steady state
            # must actually be running from the compiled schedule
            assert m_rep.replay_stats()["epochs_replayed"] > 0


class TestReplayValidityGate:
    def test_watchdog_armed_machines_never_replay(self):
        """Fault-tolerance machinery needs real protocol stalls: a
        watchdog-armed machine must run fully interpreted."""
        m, r = wilson_apply(41, applies=3, watchdog=True)
        m.quiesce()
        stats = m.replay_stats()
        assert stats["replayed_transfers"] == 0
        # and the physics is the same as the replaying twin's
        m2, r2 = wilson_apply(41, applies=3)
        assert np.array_equal(r, r2)

    def test_descriptor_store_invalidates(self):
        """Re-storing descriptors (a second context on the same nodes)
        drops the compiled schedule; the engine relearns and the output
        stays bit-identical to the never-replayed machine."""
        rng = rng_stream(47, "replay-invalidate")
        geom = LatticeGeometry((4, 2, 2, 2))
        gauge = GaugeField.hot(geom, rng)
        psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
            (geom.volume, 4, 3)
        )

        def run(replay):
            m, part = make_machine(DIMS_1D, replay=replay, word_batch="face")
            mapping = PhysicsMapping(geom, part)
            links = mapping.scatter_gauge(gauge)
            lpsi = mapping.scatter_field(psi)

            def program(api):
                ctx = DistributedWilsonContext(
                    api, mapping.local_shape, links[api.rank], mass=0.3
                )
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
            return m, mapping.gather_field(np.stack(results))

        m_rep, r_rep = run(True)
        m_int, r_int = run(False)
        stats = m_rep.replay_stats()
        assert stats["invalidations"] > 0
        assert stats["epochs_replayed"] > 0  # replayed again after relearn
        assert np.array_equal(r_rep, r_int)
        assert payload_counters(m_rep) == payload_counters(m_int)
