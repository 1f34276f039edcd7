"""Halo-buffer race sanitizer suite (PR 4).

Three contracts:

1. **Clean pipeline** — the unmodified overlapped (and serialised)
   distributed Wilson, DWF and ASQTAD dslash run with *zero* race reports in
   ``record`` mode, while the sanitizer demonstrably watched something
   (claims opened, CPU checkpoints hit, all claims released at the
   end).  Any false positive here would make the sanitizer unusable as
   a CI gate.

2. **Seeded race detected** — a deliberately premature read of a halo
   receive buffer (injected through the pipeline's test seam *between*
   transfer start and the completion wait) raises
   :class:`HaloRaceError` whose report names the node, the buffer, and
   the logical (axis, sign) of the in-flight transfer — everything
   needed to find the missing wait.

3. **Off = off** — without a sanitizer attached (the default), every
   hook level holds ``None`` and the guarded checkpoints reduce to one
   attribute check; no shadow state exists anywhere in the machine.

Plus unit tests of the shadow-state race matrix itself (read/send ok,
read/recv race, write races with everything).
"""

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    HaloRaceError,
    HaloRaceSanitizer,
    RaceReport,
)
from repro.lattice import GaugeField, LatticeGeometry
from repro.sim.core import Simulator
from repro.util import rng_stream
from tests.harness import booted, scattered, source

pytestmark = pytest.mark.analysis

DIMS = (2, 1, 1, 1, 1, 1)  # 2 nodes, decomposed along axis 0


#: operator -> the forward-halo receive buffer its pipeline reads.  The
#: seam and the checkpoints live in the one pipeline (parallel/halo.py), so
#: every operator spec gets the same coverage; swept inside the tests.
HALO_BUFFER = {"wilson": "halo_fwd0", "dwf": "halo_fwd0", "asqtad": "raw_halo0"}


#: operator -> its parameters (ASQTAD's global lattice is (8, 2, 2, 2): it
#: needs an even local extent >= 4 on the decomposed axis)
PARAMS = {"wilson": {"mass": 0.2}, "dwf": {"Ls": 2}, "asqtad": {"mass": 0.2}}


def run_dslash(op="wilson", sanitizer=None, overlap=True, inject_rank=None):
    """2-node dslash of one operator; returns (machine, outputs)."""
    machine, partition = booted(DIMS, word_batch=4096, sanitizer=sanitizer)
    rng = rng_stream(23, "race-sanitizer")
    geom = LatticeGeometry((8, 2, 2, 2) if op == "asqtad" else (4, 2, 2, 2))
    gauge = GaugeField.hot(geom, rng)
    context = scattered(partition, op, gauge, overlap=overlap, **PARAMS[op])
    if op == "dwf":  # drawn slice by slice
        src = context.scatter(np.stack([source(rng, geom) for _ in range(2)]))
    else:
        src = context.scatter(source(rng, geom, op))

    def program(api):
        ctx = context(api)
        if inject_rank is not None and api.rank == inject_rank:
            # the seam fires right after the "early" group starts: both
            # receives are in flight, and this CPU read does not wait.
            ctx.race_injection_hook = lambda c: c.api.cpu_read(HALO_BUFFER[op])
        out = yield from ctx.apply(src[api.rank])
        return out

    results = machine.run_partition(partition, program)
    return machine, results


# ---------------------------------------------------------------------------
# clean runs: zero false positives while actually watching
# ---------------------------------------------------------------------------


class TestCleanPipeline:
    def test_overlapped_pipeline_is_race_free(self):
        for op in HALO_BUFFER:
            san = HaloRaceSanitizer(mode="record")
            run_dslash(op, sanitizer=san, overlap=True)
            assert san.reports == [], op
            # ... and it genuinely watched the run:
            assert san.claims_opened > 0, op
            assert san.checks > 0, op
            assert san.quiesced, f"{op}: DMA claims left open after the run drained"

    def test_monolithic_pipeline_is_race_free(self):
        # the serialised order of the same pipeline
        for op in HALO_BUFFER:
            san = HaloRaceSanitizer(mode="record")
            run_dslash(op, sanitizer=san, overlap=False)
            assert san.reports == [], op
            assert san.claims_opened > 0 and san.quiesced, op

    def test_sanitized_run_is_bit_identical(self):
        _, plain = run_dslash(sanitizer=None)
        _, watched = run_dslash(sanitizer=HaloRaceSanitizer(mode="record"))
        for a, b in zip(plain, watched):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# seeded race: detected, with an actionable diagnostic
# ---------------------------------------------------------------------------


class TestSeededRace:
    def test_premature_read_raises_with_full_diagnostic(self):
        for op, buffer in HALO_BUFFER.items():
            san = HaloRaceSanitizer(mode="raise")
            with pytest.raises(HaloRaceError) as excinfo:
                run_dslash(op, sanitizer=san, inject_rank=0)
            report = excinfo.value.report
            assert report.access == "read", op
            assert report.dma_kind == "recv", op
            assert report.node == 0, op
            assert report.buffer == buffer
            assert report.axis == 0  # logical coordinates, not raw link ids
            assert report.sign == +1, op
            message = str(excinfo.value)
            for needle in (buffer, "node 0", "axis 0", "recv", "completion"):
                assert needle in message, f"diagnostic lacks {needle!r}: {message}"

    def test_record_mode_accumulates_and_keeps_running(self):
        for op, buffer in HALO_BUFFER.items():
            san = HaloRaceSanitizer(mode="record")
            machine, results = run_dslash(op, sanitizer=san, inject_rank=0)
            assert len(san.reports) >= 1, op
            assert san.reports[0].buffer == buffer
            # record mode let the run finish; physics is numerically intact
            # (numpy holds final values early — the race is *simulated*)
            assert all(np.isfinite(r).all() for r in results), op
            assert san.quiesced, op

    def test_injected_write_also_detected(self):
        san = HaloRaceSanitizer(mode="raise")
        machine, partition = booted(DIMS, word_batch=4096, sanitizer=san)

        def program(api):
            api.alloc("halo", np.zeros((8, 3), dtype=complex))
            if api.rank == 0:
                api.alloc("face", np.ones((8, 3), dtype=complex))
                done = api.send_buffer(0, +1, "face")
                # writing the send source while the DMA still reads it
                api.cpu_write("face")
                yield done
            else:
                done = api.recv_buffer(0, -1, "halo")
                yield done
            return None

        with pytest.raises(HaloRaceError) as excinfo:
            machine.run_partition(partition, program)
        assert excinfo.value.report.access == "write"
        assert excinfo.value.report.dma_kind == "send"
        assert excinfo.value.report.buffer == "face"


# ---------------------------------------------------------------------------
# off = off: the default machine carries no sanitizer state at all
# ---------------------------------------------------------------------------


class TestOffByDefault:
    def test_no_sanitizer_anywhere_by_default(self):
        machine, _ = booted(DIMS, word_batch=4096)
        assert machine.sanitizer is None
        for node in machine.nodes.values():
            assert node.sanitizer is None
            assert node.scu.sanitizer is None

    def test_api_checkpoints_are_noops_when_off(self):
        machine, partition = booted(DIMS, word_batch=4096)
        seen = []

        def program(api):
            seen.append(api.sanitizer)
            # guarded checkpoints: with sanitizer None these must be
            # pure no-ops (the single-attribute-check contract)
            api.cpu_read("anything")
            api.cpu_write("anything")
            return None
            yield  # pragma: no cover - makes this a generator

        machine.run_partition(partition, program)
        assert seen == [None] * len(seen) and seen

    def test_detached_sanitizer_sees_nothing(self):
        """A sanitizer that exists but is not attached proves the hook
        sites are the only entry points: no claims, no checks."""
        san = HaloRaceSanitizer(mode="raise")
        run_dslash(sanitizer=None)
        assert san.claims_opened == 0
        assert san.checks == 0
        assert san.quiesced


# ---------------------------------------------------------------------------
# the shadow-state race matrix, unit level
# ---------------------------------------------------------------------------


def claimed(san, kind="recv", direction=3):
    """Open one claim on node 0's ``buf``; returns its completion event."""
    done = Simulator().event()
    san.claim(done, 0, "buf", kind, direction, 96)
    return done


def complete(done):
    """Fire ``done`` and run the heap entries its callbacks scheduled."""
    done.succeed()
    done.sim.run()


class TestRaceMatrix:
    def test_read_during_send_is_safe(self):
        san = HaloRaceSanitizer(mode="raise")
        done = claimed(san, "send")
        san.cpu_read(0, "buf")  # read/read: fine
        complete(done)
        assert san.reports == [] and san.quiesced

    def test_read_during_recv_races(self):
        san = HaloRaceSanitizer(mode="raise")
        claimed(san)
        with pytest.raises(HaloRaceError):
            san.cpu_read(0, "buf")

    def test_write_races_with_any_dma(self):
        for kind in ("send", "recv"):
            san = HaloRaceSanitizer(mode="raise")
            claimed(san, kind)
            with pytest.raises(HaloRaceError):
                san.cpu_write(0, "buf")

    def test_release_clears_ownership(self):
        san = HaloRaceSanitizer(mode="raise")
        complete(claimed(san))
        san.cpu_read(0, "buf")  # transfer done: fine
        san.cpu_write(0, "buf")
        assert san.reports == [] and san.quiesced

    def test_release_is_the_completion_event_firing(self):
        """The claim is released when ``done`` fires, not before and not
        never: a read during the receive races, one after it is clean."""
        san = HaloRaceSanitizer(mode="record")
        sim = Simulator()
        done = sim.event()
        san.claim(done, 0, "buf", "recv", 3, 96)
        assert not san.quiesced
        for t in (1e-6, 3e-6):
            sim.schedule(t, lambda: san.cpu_read(0, "buf", now=sim.now))
        sim.schedule(2e-6, done.succeed)
        sim.run()
        assert [r.time for r in san.reports] == [1e-6]
        assert san.quiesced

    def test_other_buffers_and_nodes_unaffected(self):
        san = HaloRaceSanitizer(mode="raise")
        claimed(san)
        san.cpu_read(0, "other")  # different buffer
        san.cpu_read(1, "buf")  # different node
        assert san.reports == []

    def test_record_mode_collects_without_raising(self):
        san = HaloRaceSanitizer(mode="record")
        claimed(san)
        san.cpu_read(0, "buf", now=1.5e-6)
        san.cpu_write(0, "buf", now=2.0e-6)
        assert [r.access for r in san.reports] == ["read", "write"]
        assert san.reports[0].time == pytest.approx(1.5e-6)

    def test_unregistered_link_reports_physical_direction(self):
        san = HaloRaceSanitizer(mode="record")
        claimed(san, direction=7)
        san.cpu_read(0, "buf")
        assert "direction 7" in san.reports[0].describe()

    def test_logical_registration_upgrades_the_report(self):
        san = HaloRaceSanitizer(mode="record")
        san.register_logical(0, 7, axis=2, sign=-1)
        claimed(san, direction=7)
        san.cpu_read(0, "buf")
        assert "axis 2 sign -1" in san.reports[0].describe()

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            HaloRaceSanitizer(mode="explode")

    def test_report_is_a_frozen_value(self):
        report = RaceReport(
            access="read",
            node=0,
            buffer="halo_fwd0",
            dma_kind="recv",
            direction=1,
            axis=0,
            sign=1,
            time=0.0,
            nwords=96,
        )
        with pytest.raises(AttributeError):
            report.node = 1
