"""Runtime enforcement of the zero-copy hot-path contract (DESIGN.md §12).

The static half lives in reprolint rule REPRO105 (no numpy allocator
calls in ``@hot_path`` bodies).  This suite is the dynamic half: it
patches every Python-level numpy allocation entry point with a counting
wrapper, runs each distributed operator to steady state on a live
2-node machine, and asserts that **zero** allocations are attributed to
the operator layer (``parallel/``, the spin/colour kernels) during the
steady-state window.  Warmup applications and context construction are
exempt — that is exactly where the scratch buffers are *supposed* to be
allocated — as is the machine wire-sim layer (frames, checksums,
global-op staging), which is the simulator, not the simulated hot path.

The serial operators are under the same watch with one difference: their
``hopping`` / ``apply`` hand the caller a fresh array (the Krylov loops
keep ``A p`` across iterations), so a warmed-up application allocates
exactly its results, from an untagged method, and nothing else.
"""

import traceback

import numpy as np
import pytest

from repro.fermions import AsqtadDirac, DomainWallDirac, WilsonDirac
from repro.fermions.staggered import NaiveStaggeredDirac
from repro.parallel.halo import HaloPipeline
from repro.util.hotpath import is_hot_path
from tests.harness import applied, booted, scattered, system

#: numpy entry points whose call means "a fresh array buffer" (the same
#: catalogue REPRO105 checks statically)
ALLOCATORS = (
    "zeros",
    "empty",
    "ones",
    "full",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
    "array",
    "asarray",
    "ascontiguousarray",
    "concatenate",
    "stack",
    "vstack",
    "hstack",
)

#: allocation is a violation when the nearest repro frame on the stack
#: is operator-layer code (the simulated hot path); machine/sim/comms
#: frames are the simulator itself and are out of contract scope
WATCHED = (
    "parallel/halo.py",
    "parallel/pdirac.py",
    "parallel/pdwf.py",
    "parallel/pstaggered.py",
    "fermions/gamma.py",
    "fermions/wilson.py",
    "fermions/clover.py",
    "fermions/dwf.py",
    "fermions/staggered.py",
    "lattice/gauge.py",
)


class AllocationTracker:
    """Count allocator calls attributed to the operator layer."""

    def __init__(self, monkeypatch):
        self.armed = False
        self.violations = []
        for name in ALLOCATORS:
            real = getattr(np, name)

            def wrapper(*args, _real=real, _name=name, **kwargs):
                if self.armed:
                    self._record(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, wrapper)

    def _record(self, name):
        for frame in reversed(traceback.extract_stack()[:-2]):
            if "/repro/" not in frame.filename:
                continue
            for watched in WATCHED:
                if frame.filename.endswith(watched):
                    self.violations.append(
                        f"np.{name} from {watched}:{frame.lineno} in {frame.name}"
                    )
                    return
            return  # nearest repro frame is simulator code: in contract


@pytest.fixture
def tracker(monkeypatch):
    return AllocationTracker(monkeypatch)


#: both orders of the one pipeline are under the contract; swept inside
#: each test (not as a parameter) so one tracker sees both
ORDERS = {"overlapped": True, "serialised": False}


def steady_state_program(context, local_src, tracker, warmup=2, steady=3):
    """Program template: warmup applies, barrier, counted applies.

    The barrier guarantees every rank is past warmup before the tracker
    arms; outputs are fed back as inputs so buffer recycling (the
    context-owned return buffers) is exercised under counting.
    """

    def program(api):
        ctx = context(api)
        out = local_src[api.rank]
        for _ in range(warmup):
            out = yield from ctx.apply(out)
        yield api.barrier()
        tracker.armed = True
        for _ in range(steady):
            out = yield from ctx.apply(out)
        d_out = yield from ctx.apply_dagger(out)
        return d_out

    return program


def run_and_check(tracker, op, stream, shape, dims=(2, 1, 1, 1, 1, 1), **params):
    """Steady-state program on a fresh face-batched machine of ``dims``
    (2 nodes by default) per pipeline order, over one seeded (real-source)
    system."""
    gauge, src = system(stream, shape, op, Ls=params.get("Ls"), imag=False)
    for order, overlap in ORDERS.items():
        machine, part = booted(dims, word_batch="face")
        context = scattered(part, op, gauge, overlap=overlap, **params)
        program = steady_state_program(context, context.scatter(src), tracker)
        machine.run_partition(part, program)
        tracker.armed = False
        assert tracker.violations == [], (
            f"steady-state {order} dslash allocated in the operator layer:\n  "
            + "\n  ".join(sorted(set(tracker.violations)))
        )


class TestSteadyStateAllocationFree:
    @pytest.mark.parametrize("compress", [True, False])
    def test_wilson(self, tracker, compress):
        run_and_check(
            tracker, "wilson", (91, "hotpath-wilson"), (4, 2, 2, 2),
            mass=0.3, compress=compress,
        )

    def test_dwf(self, tracker):
        run_and_check(
            tracker, "dwf", (92, "hotpath-dwf"), (4, 2, 2, 2),
            Ls=4, M5=1.8, mf=0.1,
        )

    def test_staggered(self, tracker):
        run_and_check(tracker, "asqtad", (93, "hotpath-stag"), (8, 2, 2, 2), mass=0.1)

    @pytest.mark.parametrize(
        "op, params",
        [
            ("wilson", {"mass": 0.3}),
            ("wilson", {"mass": 0.3, "c_sw": 1.0}),
            ("dwf", {"Ls": 2}),
        ],
        ids=["wilson", "clover", "dwf"],
    )
    def test_all_boundary_tile(self, tracker, op, params):
        # the 16-site tile of the service and CG workloads, every axis
        # cut: the batched hop terms and their strided per-sign views,
        # and the whole-tile merge, where their host cost is measured
        run_and_check(
            tracker, op, (98, f"hotpath-tile16-{op}"), (4, 4, 4, 4),
            dims=(2, 2, 2, 2, 1, 1), **params,
        )


class TestSerialOperators:
    """A warmed-up serial application allocates its results and no more."""

    #: operator -> (constructor, arrays one ``apply`` hands out: its own,
    #: plus one per slice from the domain-wall operator's 4D kernel)
    CASES = {
        "wilson": (lambda gauge: WilsonDirac(gauge, mass=0.3), 1),
        "asqtad": (lambda gauge: AsqtadDirac(gauge, mass=0.1), 1),
        "dwf": (lambda gauge: DomainWallDirac(gauge, Ls=4), 1 + 4),
    }

    @pytest.mark.parametrize("op", CASES)
    def test_apply_allocates_only_what_it_returns(self, tracker, op):
        build, results = self.CASES[op]
        gauge, src = system(
            (94, f"hotpath-serial-{op}"), (4, 4, 2, 2), op, Ls=4 if op == "dwf" else None
        )
        dirac = build(gauge)
        out = dirac.apply(dirac.apply(src))  # warm-up: resident links, tables
        tracker.armed = True
        out = dirac.apply(out)
        tracker.armed = False
        assert len(tracker.violations) == results, tracker.violations
        for violation in tracker.violations:
            assert violation.startswith("np.empty_like from fermions/"), violation
            assert violation.endswith((" in hopping", " in apply")), violation

    def test_the_tracker_sees_a_serial_kernel_allocation(self, tracker, monkeypatch):
        # the guard above must be able to fail: an allocation under the
        # tagged kernel is attributed to the operator's file and counted
        gauge, src = system((95, "hotpath-serial-leak"), (4, 4, 2, 2))
        dirac = WilsonDirac(gauge, mass=0.3)
        real = WilsonDirac._hop_half_spinors

        def leaking(self, psi, out):
            np.zeros(3)
            return real(self, psi, out)

        monkeypatch.setattr(WilsonDirac, "_hop_half_spinors", leaking)
        dirac.apply(src)
        tracker.armed = True
        dirac.apply(src)
        tracker.armed = False
        assert len(tracker.violations) == 2


class TestSerialBytes:
    """Serial against distributed, to the byte, signed zeros included."""

    @pytest.mark.parametrize("dagger", [False, True])
    def test_point_source_with_negative_zeros(self, dagger):
        gauge, src = system((96, "serial-bytes"), (4, 4, 2, 2))
        point = np.zeros_like(src)
        point.reshape(-1)[1::2] = -0.0
        point[5] = src[5]
        serial = WilsonDirac(gauge, mass=0.3)
        want = (serial.apply_dagger if dagger else serial.apply)(point)
        machine, part = booted((2, 2, 1, 1, 1, 1), word_batch="face")
        got = applied(machine, part, "wilson", gauge, point, dagger=dagger, mass=0.3)
        assert got.tobytes() == want.tobytes()


class TestHotPathTags:
    """The contract only bites if the steady-state entry points are tagged."""

    def test_operator_hot_paths_tagged(self):
        from repro.parallel import pdirac, pdwf, pstaggered

        # the one generator every operator's hopping/apply runs, and its
        # one transposed copy of the source ...
        assert is_hot_path(pdirac.DistributedWilsonContext.exchange)
        assert is_hot_path(HaloPipeline.transpose_source)
        assert is_hot_path(pdirac.DistributedWilsonContext.merge)
        assert is_hot_path(pdirac.DistributedWilsonContext.apply)
        assert is_hot_path(pdwf.DistributedDWFContext.exchange)
        assert is_hot_path(pdwf.DistributedDWFContext.merge)
        assert is_hot_path(pstaggered.DistributedStaggeredContext.merge)
        assert is_hot_path(pstaggered.DistributedStaggeredContext.exchange)
        # ... and every site kernel it calls between the steps
        for ctx in (
            pdirac.DistributedWilsonContext,
            pdwf.DistributedDWFContext,
            pstaggered.DistributedStaggeredContext,
        ):
            for kernel in ("stage", "interior", "land"):
                assert is_hot_path(getattr(ctx, kernel)), (ctx, kernel)
        assert is_hot_path(pdirac.WilsonHops.project)
        assert is_hot_path(pdirac.WilsonHops.hop_matvecs)

    def test_per_frame_path_tagged(self):
        # every body the interpreted SCU/HSSL protocol runs once per frame
        # (per word at word_batch=1): REPRO105 then refuses a numpy
        # allocator creeping back into one.  A payload is normalised where
        # its transfer starts (SendUnit.start), which is not tagged.
        from repro.machine.hssl import SerialLink
        from repro.machine.packets import Frame, LinkChecksum
        from repro.machine.replay import ReplayEngine
        from repro.machine.scu import SCU, RecvUnit, SendUnit

        for fn in (
            LinkChecksum.update,
            Frame.__init__,
            SerialLink.transmit,
            SerialLink.carry,
            SerialLink._land,
            SerialLink._deliver,
            # the legs of a replayed transfer run once per face
            ReplayEngine._tx_data,
            ReplayEngine._rx_data,
            ReplayEngine._accept,
            ReplayEngine._rx_ack,
            SCU.on_frame,
            RecvUnit.on_data,
            RecvUnit._accept,
            SendUnit._pump,
            SendUnit.on_ack,
        ):
            assert is_hot_path(fn), fn.__qualname__
        assert not is_hot_path(SendUnit.start)

    def test_serial_kernels_tagged(self):
        # REPRO105 then refuses an allocator in any of them statically
        assert is_hot_path(WilsonDirac._hop_half_spinors)
        for kernel in ("_hop", "_direction", "_transport"):
            assert is_hot_path(getattr(NaiveStaggeredDirac, kernel)), kernel
        assert is_hot_path(AsqtadDirac._direction)

    def test_untagged_serial_reference(self):
        # apply and hopping allocate the array they return
        assert not is_hot_path(WilsonDirac.apply)
        assert not is_hot_path(WilsonDirac.hopping)
        assert not is_hot_path(NaiveStaggeredDirac.hopping)
