"""The six workloads: inputs from a seed, a timed region, an oracle.

Every loop is **closed**: one client, the next operation issued when the
previous one returns (``service-mix`` submits its batch and drains it).
A workload's ``repeat`` runs the timed region once and returns a
:class:`Sample`; everything outside ``wall_s`` — fresh machines, counter
snapshots, gathers, the oracle — is untimed.  The timed region runs under
the workload's :class:`timing.Stopwatch`, which is handed a public
progress counter to sample (``sim.events_processed``, stencil-table
lookups).  The program under test receives only the generated gauge
fields, sources and fault schedules.

Figures in ``Sample.exact`` are deterministic (simulated clock or
counts); the harness keeps those of the *first* timed repeat, which
always starts from the same state, so they compare bit-for-bit between
runs whatever the number of repeats.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fermions import WilsonDirac
from repro.fermions.dwf import DomainWallDirac
from repro.fermions.flops import WORD_BYTES, operator_cost
from repro.fermions.staggered import AsqtadDirac
from repro.hmc.checkpoint import HMCCheckpoint
from repro.host.qdaemon import Qdaemon
from repro.lattice import GaugeField, LatticeGeometry, stencil
from repro.machine.asic import MachineConfig
from repro.machine.faults import FaultEvent, FaultSchedule
from repro.machine.machine import QCDOCMachine
from repro.parallel import PhysicsMapping
from repro.parallel.pcg import solve_on_machine
from repro.parallel.pdirac import DistributedWilsonContext
from repro.parallel.pdwf import DistributedDWFContext
from repro.parallel.phmc import DistributedTwoFlavorHMC
from repro.parallel.pstaggered import DistributedStaggeredContext
from repro.service import QcdocService, WilsonJobSpec
from repro.solvers import canonical_dot, cgne, mixed_precision_cg, multishift_cg
from repro.util import rng_stream
from repro.util.errors import FaultError

from spans import NullTracer, instrument, uninstrument
from timing import Curve, Stopwatch

NULL = NullTracer()
GROUPS4 = [(0,), (1,), (2,), (3,)]
DIMS16 = (2, 2, 2, 2, 1, 1)
DIMS64 = (2, 2, 2, 2, 2, 2)
#: the 64-node torus as a 4-d logical machine (2, 2, 2, 8)
GROUPS64 = [(0,), (1,), (2,), (3, 4, 5)]


@dataclass
class Sample:
    """One timed repeat."""

    #: the timed region, cumulative seconds against progress
    curve: Curve
    #: oracle outcomes of this repeat: (what was checked, passed)
    checks: List[Tuple[str, bool]]
    #: deterministic figures, keyed by per-layer metric name
    exact: Dict[str, float] = field(default_factory=dict)
    #: host-clock figures measurable without a tracer (timed segments)
    host: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.curve.seconds[-1]


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- public-counter snapshots ----------------------------------------------------


def counters(machine) -> dict:
    """Everything the figures below need, read from public counters."""
    scu = [
        machine.nodes[i].scu.transfer_counters() for i in sorted(machine.nodes)
    ]
    links = machine.network.links
    return {
        "events": machine.sim.events_processed,
        "now": machine.sim.now,
        "flops": sum(machine.nodes[i].flops_charged for i in sorted(machine.nodes)),
        "compute": {i: n.compute_time for i, n in machine.nodes.items()},
        "busy": {k: l.busy_seconds for k, l in links.items()},
        "active": {k for k, _ in machine.network.active_links()},
        "payload": sum(c["payload_words_sent"] for c in scu),
        "wire": sum(c["wire_words_sent"] for c in scu),
        "resends": sum(c["resends"] for c in scu),
        "watchdog_trips": sum(c["watchdog_trips"] for c in scu),
        "replay": machine.replay_stats(),
    }


def _overlap(before: dict, after: dict) -> List[float]:
    """``MachineReport.overlap_fraction`` per node, over a window."""
    elapsed = after["now"] - before["now"]
    out = []
    for node, cpu_after in after["compute"].items():
        t_cpu = cpu_after - before["compute"][node]
        t_comm = max(
            (
                after["busy"][k] - before["busy"][k]
                for k in after["active"]
                if k[0] == node
            ),
            default=0.0,
        )
        low = min(t_cpu, t_comm)
        if low > 0:
            out.append(max(0.0, min(1.0, (t_cpu + t_comm - elapsed) / low)))
    return out


def machine_figures(
    windows: Sequence[Tuple[dict, dict]], peak_flops: Optional[float] = None
) -> Dict[str, float]:
    """Exact machine-side figures over one or more counter windows
    (one window per machine the timed region drove, run back to back).

    ``peak_flops`` is the aggregate FPU peak of the partition's nodes;
    given, the paper's sustained fraction of peak is included.
    """

    def delta(key: str) -> float:
        return sum(after[key] - before[key] for before, after in windows)

    def replay(key: str) -> float:
        return sum(a["replay"].get(key, 0) - b["replay"].get(key, 0) for b, a in windows)

    sim_s, events, payload = delta("now"), delta("events"), delta("payload")
    link_seconds = sum(len(a["active"]) * (a["now"] - b["now"]) for b, a in windows)
    busy = sum(a["busy"][k] - b["busy"][k] for b, a in windows for k in a["active"])
    overlap = [f for b, a in windows for f in _overlap(b, a)]
    replayed, fallbacks = replay("replayed_transfers"), replay("interpreted_fallbacks")
    figures = {
        "sim.events": events,
        "workload.simulated_s": sim_s,
        "machine.scu.payload_words": payload,
        "machine.scu.wire_words": delta("wire"),
        "machine.scu.resends": delta("resends"),
        "machine.scu.watchdog_trips": delta("watchdog_trips"),
        "machine.scu.wire_overhead": delta("wire") / payload if payload else 0.0,
        "machine.scu.events_per_word": events / payload if payload else 0.0,
        "machine.hssl.link_busy_frac": busy / link_seconds if link_seconds > 0 else 0.0,
        "machine.replay.epochs_replayed": replay("epochs_replayed"),
        "machine.replay.fallbacks": fallbacks,
        "machine.replay.hit_frac": (
            replayed / (replayed + fallbacks) if replayed + fallbacks else 0.0
        ),
        "parallel.overlap_fraction": sum(overlap) / len(overlap) if overlap else 0.0,
    }
    if peak_flops is not None and sim_s > 0:
        figures["workload.sustained_peak_fraction"] = delta("flops") / (peak_flops * sim_s)
    return figures


def _report(machine, tracer):
    """One ``machine.report()``; a span when tracing (outside ``wall_s``)."""
    with tracer.span("telemetry.report"):
        return machine.report()


def _stencil_lookups() -> int:
    """Progress of a solve that runs no simulator: every operator
    application looks its hopping tables up in the stencil memo."""
    info = stencil.cache_info()
    return info["hits"] + info["misses"]


def _close(got: np.ndarray, want: np.ndarray, rel: float = 1e-12) -> bool:
    return bool(np.abs(got - want).max() <= rel * np.abs(want).max())


class Workload:
    """Base: ``setup`` once, then ``repeat`` as often as the run allows."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)
        #: times the timed regions; the harness swaps in a sampling one
        self.watch = Stopwatch()

    def rng(self, label: str = ""):
        return rng_stream(self.seed, f"bench-{self.name}{label}")

    def setup(self) -> None:
        raise NotImplementedError

    def repeat(self, tracer=NULL, shrink: bool = False) -> Sample:
        """Run the timed region once.  ``shrink`` is the cProfile pass,
        which keeps only shares: a workload may run a shorter region and
        skip its oracle there."""
        raise NotImplementedError

    def derive(self, layer: Dict[str, float]) -> None:
        """Add per-layer figures that need the traced pass's span numbers."""


# -- dslash-wire -------------------------------------------------------------------


class DslashWire(Workload):
    name = "dslash-wire"
    shape = (4, 4, 4, 4)
    mass = 0.3

    def setup(self) -> None:
        self.applies = 1 if self.smoke else 4
        rng = self.rng()
        self.geom = LatticeGeometry(self.shape)
        self.gauge = GaugeField.hot(self.geom, rng)
        self.psi = _complex_normal(rng, (self.geom.volume, 4, 3))
        serial = WilsonDirac(self.gauge, mass=self.mass)
        self.reference = self.psi
        for _ in range(self.applies):
            self.reference = serial.apply(self.reference)
        self._once(NULL, applies=1)  # warm-up: imports, memo tables, allocator

    def repeat(self, tracer=NULL, shrink: bool = False) -> Sample:
        return self._once(tracer, self.applies)

    def _once(self, tracer, applies: int) -> Sample:
        machine = QCDOCMachine(MachineConfig(dims=DIMS16), word_batch=1, replay=False)
        instrument(machine, tracer)
        with tracer.span("machine.machine.bring_up"):
            machine.bring_up()
        part = machine.partition(groups=GROUPS4, extents=DIMS16)
        mapping = PhysicsMapping(self.geom, part)
        with tracer.span("parallel.decomp.scatter"):
            links = mapping.scatter_gauge(self.gauge)
            lpsi = mapping.scatter_field(self.psi)

        def program(api):
            ctx = DistributedWilsonContext(
                api, mapping.local_shape, links[api.rank], mass=self.mass
            )
            out = lpsi[api.rank]
            for _ in range(applies):
                out = yield from ctx.apply(out)
            return out

        before = counters(machine)
        with self.watch.region(lambda: machine.sim.events_processed):
            results = machine.run_partition(part, program)
            with tracer.span("machine.machine.quiesce"):
                machine.quiesce()
        curve = self.watch.take()
        after = counters(machine)
        _report(machine, tracer)
        with tracer.span("parallel.decomp.gather"):
            out = mapping.gather_field(np.stack(results))
        exact = machine_figures([(before, after)], part.n_nodes * machine.asic.peak_flops)
        exact["parallel.pdirac.sim_us_per_apply"] = exact["workload.simulated_s"] / applies * 1e6
        return Sample(
            curve,
            [
                ("gathered field bit-identical to serial", out.tobytes() == self.reference.tobytes()),
                ("link checksums clean", machine.audit_checksums() == []),
            ],
            exact,
            {"parallel.pdirac.host_ms_per_apply": curve.seconds[-1] / applies * 1e3},
        )


# -- dslash-hot --------------------------------------------------------------------


@dataclass
class _HotOp:
    """One operator of the hot mix, on its own machine."""

    layer: str  # parallel.<layer>.* metric prefix
    machine: QCDOCMachine
    partition: object
    build: Callable  # api -> distributed context
    source: np.ndarray  # per-rank local source
    gather: Callable  # per-rank results -> global field
    applies: int
    reference: np.ndarray
    bit_exact: bool
    contexts: Dict[int, object] = field(default_factory=dict)
    applied: int = 0  # applications so far (the crosscheck's count)

    def program(self, applies: int):
        def program(api):
            # a Distributed*Context cannot be built twice on one machine
            # ("buffer 'work' already allocated"): build once per rank
            ctx = self.contexts.get(api.rank)
            if ctx is None:
                ctx = self.contexts[api.rank] = self.build(api)
            out = self.source[api.rank]
            for _ in range(applies):
                out = yield from ctx.apply(out)
            return out

        return program

    def run(self, applies: int) -> list:
        results = self.machine.run_partition(self.partition, self.program(applies))
        self.machine.quiesce()
        self.applied += applies
        return results


class DslashHot(Workload):
    name = "dslash-hot"
    Ls = 4

    def _machine(self):
        machine = QCDOCMachine(MachineConfig(dims=self.dims), word_batch="face")
        machine.bring_up()
        part = machine.partition(groups=GROUPS4, extents=self.dims)
        return machine, part, PhysicsMapping(self.geom, part)

    def setup(self) -> None:
        # ASQTAD needs >= 3 sites per communicating axis, and an even
        # number (the distributed context takes its staggered phases from
        # local coordinates): 8^4 is the smallest lattice the 2^4 machine
        # takes, so the smoke size shrinks the machine instead
        self.dims = (2, 2, 1, 1, 1, 1) if self.smoke else DIMS16
        self.geom = LatticeGeometry((8, 8, 2, 2) if self.smoke else (8,) * 4)
        # applies per operator: each about a third of a ~1.6 s repeat
        n_wilson, n_dwf, n_asqtad = (2, 2, 2) if self.smoke else (15, 6, 22)
        rng = self.rng()
        volume, Ls = self.geom.volume, self.Ls
        gauge = GaugeField.hot(self.geom, rng)
        psi = _complex_normal(rng, (volume, 4, 3))
        psi5 = _complex_normal(rng, (Ls, volume, 4, 3))
        chi = _complex_normal(rng, (volume, 3))

        machine, part, mapping = self._machine()
        links = mapping.scatter_gauge(gauge)
        local_shape = self.local_shape = mapping.local_shape
        self.logical_dims = part.logical_dims
        wilson = _HotOp(
            "pdirac", machine, part,
            lambda api: DistributedWilsonContext(api, local_shape, links[api.rank], mass=0.3),
            mapping.scatter_field(psi),
            lambda res, m=mapping: m.gather_field(np.stack(res)),
            n_wilson, self._chain(WilsonDirac(gauge, mass=0.3), psi, n_wilson), True,
        )

        machine, part, mapping = self._machine()

        def gather5(res, m=mapping):
            stacked = np.stack(res)  # (ranks, Ls, v, 4, 3)
            return np.stack([m.gather_field(stacked[:, s]) for s in range(Ls)])

        dwf = _HotOp(
            "pdwf", machine, part,
            lambda api: DistributedDWFContext(
                api, local_shape, links[api.rank], Ls=Ls, M5=1.8, mf=0.1
            ),
            np.stack([mapping.scatter_field(psi5[s]) for s in range(Ls)], axis=1),
            gather5,
            n_dwf,
            self._chain(DomainWallDirac(gauge, Ls=Ls, M5=1.8, mf=0.1), psi5, n_dwf),
            False,
        )

        machine, part, mapping = self._machine()
        serial = AsqtadDirac(gauge, mass=0.1)  # smears the links once, for both sides
        fat, long = serial.fat, serial.long
        local_volume = mapping.tiling.local_volume
        lfat = np.empty((mapping.n_ranks, 4, local_volume, 3, 3), dtype=np.complex128)
        llong = np.empty_like(lfat)
        for mu in range(4):
            lfat[:, mu] = mapping.tiling.scatter(fat[mu])
            llong[:, mu] = mapping.tiling.scatter(long[mu])
        asqtad = _HotOp(
            "pstaggered", machine, part,
            lambda api: DistributedStaggeredContext(
                api, local_shape, lfat[api.rank], llong[api.rank], mass=0.1
            ),
            mapping.scatter_field(chi),
            lambda res, m=mapping: m.gather_field(np.stack(res)),
            n_asqtad, self._chain(serial, chi, n_asqtad), False,
        )

        self.ops = [wilson, dwf, asqtad]
        for op in self.ops:
            op.run(2)  # builds the contexts, learns the replay epochs

    @staticmethod
    def _chain(operator, field_, applies: int) -> np.ndarray:
        for _ in range(applies):
            field_ = operator.apply(field_)
        return field_

    def repeat(self, tracer=NULL, shrink: bool = False) -> Sample:
        windows, outputs, host = [], [], {}
        # one timed region per operator; counter snapshots sit between them
        for op in self.ops:
            instrument(op.machine, tracer)
            before = counters(op.machine)
            t0 = self.watch.elapsed
            with self.watch.region(lambda: op.machine.sim.events_processed):
                outputs.append(op.run(op.applies))
            seconds = self.watch.elapsed - t0
            windows.append((before, counters(op.machine)))
            uninstrument(op.machine)
            host[f"parallel.{op.layer}.host_ms_per_apply"] = seconds / op.applies * 1e3

        wilson = self.ops[0]
        exact = machine_figures(
            windows, wilson.partition.n_nodes * wilson.machine.asic.peak_flops
        )
        checks = []
        for op, (before, after), results in zip(self.ops, windows, outputs):
            exact[f"parallel.{op.layer}.sim_us_per_apply"] = (
                (after["now"] - before["now"]) / op.applies * 1e6
            )
            with tracer.span("parallel.decomp.gather"):
                got = op.gather(results)
            same = (
                got.tobytes() == op.reference.tobytes()
                if op.bit_exact
                else _close(got, op.reference)
            )
            fell_back = after["replay"]["interpreted_fallbacks"] - before["replay"]["interpreted_fallbacks"]
            checks += [
                (f"{op.layer}: gathered field matches serial", same),
                (f"{op.layer}: no interpreted fallbacks", fell_back == 0),
                (f"{op.layer}: link checksums clean", op.machine.audit_checksums() == []),
            ]
        crosscheck = _report(wilson.machine, tracer).crosscheck(
            "wilson",
            self.local_shape,
            self.logical_dims,
            n_ranks=wilson.partition.n_nodes,
            n_applications=wilson.applied,
        )
        exact["perfmodel.crosscheck_max_rel_err"] = max(
            entry.rel_error for entry in crosscheck.entries
        )
        return Sample(self.watch.take(), checks, exact, host)


# -- torus64-cg --------------------------------------------------------------------


class Torus64CG(Workload):
    name = "torus64-cg"
    shape = (4, 4, 4, 16)
    mass = 0.3

    def setup(self) -> None:
        self.tol = 1e-1 if self.smoke else 2e-2
        rng = self.rng()
        geom = LatticeGeometry(self.shape)
        self.gauge = GaugeField.weak(geom, rng, eps=0.3)
        self.b = _complex_normal(rng, (geom.volume, 4, 3))
        serial = WilsonDirac(self.gauge, mass=self.mass)
        # machine CGNE sums in canonical site order: serial cgne matches
        # its iteration count only with the same dot
        self.reference = cgne(
            serial.apply, serial.apply_dagger, self.b, tol=self.tol, dot=canonical_dot
        )
        # warm-up, and the head of the residual history every repeat
        # must reproduce to the bit
        self.head = self._solve(NULL, maxiter=2)[0].residuals
        self.first = None

    def _solve(self, tracer, maxiter: int = 2000):
        # a second solve on one machine fails ("buffer 'work' already
        # allocated"), so each solve gets a fresh machine; replay is
        # learned inside the timed solve, as every user solve pays it
        machine = QCDOCMachine(MachineConfig(dims=DIMS64), word_batch="face", shards=4)
        instrument(machine, tracer)
        with tracer.span("machine.machine.bring_up"):
            machine.bring_up()
        part = machine.partition(groups=GROUPS64)
        before = counters(machine)
        with self.watch.region(lambda: machine.sim.events_processed):
            result = solve_on_machine(
                machine, part, self.gauge, self.b, mass=self.mass, tol=self.tol, maxiter=maxiter
            )
        after = counters(machine)
        _report(machine, tracer)
        exact = machine_figures([(before, after)], part.n_nodes * machine.asic.peak_flops)
        return result, self.watch.take(), exact

    def repeat(self, tracer=NULL, shrink: bool = False) -> Sample:
        if shrink:  # shares only: half the iterations, no oracle
            _, curve, exact = self._solve(tracer, maxiter=5)
            return Sample(curve, [], exact)
        result, curve, exact = self._solve(tracer)
        if self.first is None:
            self.first = list(result.residuals)
        ref = self.reference
        iters = result.iterations
        exact["workload.iterations"] = iters
        exact["parallel.pcg.sim_us_per_iter"] = exact["workload.simulated_s"] / iters * 1e6
        checks = [
            ("converged", bool(result.converged)),
            ("iteration count equals serial cgne (canonical dot)", iters == ref.iterations),
            ("solution allclose to serial", bool(np.allclose(result.x, ref.x, rtol=1e-8, atol=1e-10))),
            ("residual history reproduces warm-up head", list(result.residuals[: len(self.head)]) == list(self.head)),
            ("residual history bit-identical across repeats", list(result.residuals) == self.first),
            ("link checksums clean", result.checksum_mismatches == []),
        ]
        host = {"parallel.pcg.host_ms_per_iter": curve.seconds[-1] / iters * 1e3}
        return Sample(curve, checks, exact, host)


# -- serial-krylov -----------------------------------------------------------------


class SerialKrylov(Workload):
    name = "serial-krylov"
    shifts = (0.0, 0.01, 0.05, 0.2, 1.0)
    tol = 1e-8

    def setup(self) -> None:
        self.geom = LatticeGeometry((4,) * 4 if self.smoke else (6,) * 4)
        rng = self.rng()
        gauge = GaugeField.weak(self.geom, rng, eps=0.3)
        self.b = _complex_normal(rng, (self.geom.volume, 4, 3))
        self.dirac = WilsonDirac(gauge, mass=0.3)
        self.rhs = self.dirac.apply_dagger(self.b)  # normal-equation source
        self.first = None
        self._run(NULL, maxiter=3)  # warm-up

    def _run(self, tracer, maxiter: int = 2000):
        d = self.dirac
        if tracer.enabled:

            def spanned(fn):
                def call(v):
                    with tracer.span("fermions.wilson.apply"):
                        return fn(v)

                return call

            apply, dagger = spanned(d.apply), spanned(d.apply_dagger)
        else:
            apply, dagger = d.apply, d.apply_dagger

        def normal(v):
            return dagger(apply(v))

        out, seconds = {}, {}
        for key, solve in (
            ("cg", lambda: cgne(apply, dagger, self.b, tol=self.tol, maxiter=maxiter)),
            ("multishift", lambda: multishift_cg(normal, self.rhs, self.shifts, tol=self.tol, maxiter=maxiter)),
            ("mixed", lambda: mixed_precision_cg(normal, self.rhs, tol=self.tol, maxiter=maxiter)),
        ):
            t0 = self.watch.elapsed
            with self.watch.region(_stencil_lookups), tracer.span(f"solvers.{key}"):
                out[key] = solve()
            seconds[key] = self.watch.elapsed - t0
        return out, seconds, self.watch.take()

    def _residual(self, x: np.ndarray, shift: float) -> float:
        d = self.dirac
        r = self.rhs - (d.apply_dagger(d.apply(x)) + shift * x)
        return float(np.linalg.norm(r) / np.linalg.norm(self.rhs))

    def repeat(self, tracer=NULL, shrink: bool = False) -> Sample:
        out, seconds, curve = self._run(tracer)
        iters = {key: out[key].iterations for key in out}
        if self.first is None:
            self.first = iters
        bound = 10 * self.tol
        checks = [("cg: true residual <= 10 tol", out["cg"].true_residual <= bound)]
        checks += [
            (f"multishift sigma={s}: true residual <= 10 tol", self._residual(out["multishift"][s], s) <= bound)
            for s in self.shifts
        ]
        checks += [
            ("mixed: true residual <= 10 tol", self._residual(out["mixed"].x, 0.0) <= bound),
            ("iteration counts equal across repeats", iters == self.first),
        ]
        exact = {f"solvers.{key}.iterations": n for key, n in iters.items()}
        exact["workload.iterations"] = sum(iters.values())
        cost = operator_cost("wilson")
        exact["fermions.wilson.computed_bytes_per_apply"] = cost.words_per_site * WORD_BYTES * self.geom.volume
        host = {f"solvers.{key}.host_ms_per_iter": seconds[key] / iters[key] * 1e3 for key in iters}
        return Sample(curve, checks, exact, host)

    def derive(self, layer: Dict[str, float]) -> None:
        seconds = layer["fermions.wilson.host_ms_per_apply"] * 1e-3
        flops = operator_cost("wilson").flops_per_site * self.geom.volume
        layer["fermions.wilson.host_gflops"] = flops / seconds / 1e9


# -- hmc-chaos ---------------------------------------------------------------------


class HmcChaos(Workload):
    """E18 (``benchmarks/bench_e18_dynamical_hmc.py``) as committed, with
    the gauge field and the Markov chain drawn from the seed."""

    name = "hmc-chaos"
    dims = (2, 2, 2, 1, 1, 1)
    #: 4-node jobs on the 8-node machine; the spare hyperplane along
    #: machine axis 2 is what the qdaemon remaps onto after the fault
    extents = (2, 2, 1, 1, 1, 1)
    shape = (4, 4, 2, 2)
    word_batch = 4096
    cable = (0, 0)  # (node, direction) of the cable that dies
    n_traj = 2

    def setup(self) -> None:
        machine, daemon = self._build(NULL)
        alloc = daemon.allocate("ref", GROUPS4, extents=self.extents)
        self.ref = self._driver(machine, alloc.partition)
        t0 = machine.sim.now
        self.traj_end = []
        for _ in range(self.n_traj):
            self.ref.trajectory()
            self.traj_end.append(machine.sim.now - t0)
        # a dead cable is noticed only once something is sent on it: the
        # longest the doomed cable stays quiet in the undisturbed chain is
        # how long detection may lag the watchdog's own budget
        sends = [
            r.time for r in machine.trace.records
            if r.tag == "scu.send" and r.time >= t0
            and (r.fields["node"], r.fields["direction"]) == self.cable
        ]
        self.quiet = max(b - a for a, b in zip(sends, sends[1:]))

    def _build(self, tracer):
        machine = QCDOCMachine(
            MachineConfig(dims=self.dims), word_batch=self.word_batch,
            shards=2, watchdog=True, trace=True,
        )
        daemon = Qdaemon(machine)
        with tracer.span("host.qdaemon.boot"):
            ok = daemon.boot()
        if not all(ok.values()):
            raise RuntimeError("hmc-chaos: a node failed to boot")
        instrument(machine, tracer)
        return machine, daemon

    def _driver(self, machine, partition):
        gauge = GaugeField.hot(LatticeGeometry(self.shape), self.rng())
        return DistributedTwoFlavorHMC(
            machine, partition, gauge, beta=5.5, mass=0.5, seed=self.seed,
            n_steps=1, dt=0.05, word_batch=self.word_batch,
        )

    def _chaos_chain(self, machine, daemon, tracer):
        """The timed region: the chain through the cable's death."""
        with tracer.span("host.qdaemon.allocate"):
            alloc = daemon.allocate("hmc", GROUPS4, extents=self.extents)
        hmc = self._driver(machine, alloc.partition)
        t_start = machine.sim.now
        # the cable dies 40 % into trajectory 2
        t_fault = t_start + self.traj_end[0] + 0.4 * (self.traj_end[1] - self.traj_end[0])
        schedule = FaultSchedule([FaultEvent(time=t_fault, kind="link-dead", node=self.cable[0], direction=self.cable[1])])
        schedule.arm(machine, daemon)
        with tracer.span("hmc.checkpoint.save"):
            checkpoints = [HMCCheckpoint.save(hmc)]
        restarts = 0
        while hmc.trajectory_index < self.n_traj:
            try:
                hmc.trajectory()
                with tracer.span("hmc.checkpoint.save"):
                    checkpoints.append(HMCCheckpoint.save(hmc))
            except FaultError:
                restarts += 1
                daemon.release(alloc)
                with tracer.span("host.qdaemon.handle_fault"):
                    daemon.handle_fault()
                with tracer.span("host.qdaemon.allocate"):
                    alloc = daemon.allocate("hmc", GROUPS4, extents=self.extents)
                hmc.rebind(machine, alloc.partition)
                with tracer.span("hmc.checkpoint.restore"):
                    checkpoints[-1].restore(hmc)
        return hmc, schedule, t_start, t_fault, restarts

    def repeat(self, tracer=NULL, shrink: bool = False) -> Sample:
        machine, daemon = self._build(tracer)
        boot_sim_s = machine.sim.now
        before = counters(machine)
        with self.watch.region(lambda: machine.sim.events_processed):
            hmc, schedule, t_start, t_fault, restarts = self._chaos_chain(machine, daemon, tracer)
        curve = self.watch.take()
        after = counters(machine)
        _report(machine, tracer)

        ref = self.ref
        simulated = machine.sim.now - t_start
        trips = [r.time for r in machine.trace.records if r.tag == "scu.link_down"]
        detection = min(trips) - t_fault if trips else 0.0
        budget = (
            machine.asic.watchdog_detection_budget + machine.asic.watchdog_timeout + self.quiet
        )
        checks = [
            ("delta_h identical to reference", [t.delta_h for t in hmc.history] == [t.delta_h for t in ref.history]),
            ("acceptances identical to reference", [t.accepted for t in hmc.history] == [t.accepted for t in ref.history]),
            ("cg_iterations identical to reference", hmc.cg_iterations == ref.cg_iterations),
            ("fingerprint identical to reference", hmc.fingerprint() == ref.fingerprint()),
            ("exactly one restart", restarts == 1),
            ("fault detected within the watchdog budget of the cable's next use", bool(trips) and detection <= budget),
        ]
        exact = machine_figures([(before, after)])
        exact.update({
            "workload.simulated_s": simulated,
            "workload.iterations": sum(hmc.cg_iterations),
            "workload.fault_overhead_frac": simulated / self.traj_end[-1] - 1.0,
            "workload.detection_latency_sim_s": detection,
            "parallel.phmc.sim_s_per_trajectory": simulated / self.n_traj,
            "host.qdaemon.boot_sim_s": boot_sim_s,
            "machine.faults.injected": len(schedule.injected),
            "telemetry.trace_records": len(machine.trace.records),
        })
        host = {"parallel.phmc.host_s_per_trajectory": curve.seconds[-1] / self.n_traj}
        return Sample(curve, checks, exact, host)


# -- service-mix -------------------------------------------------------------------


class ServiceMix(Workload):
    """E17 (``benchmarks/bench_e17_service.py``) in miniature: a 16-node
    machine of four 4-node slots, four jobs to fill them, one urgent job
    to preempt one, two hard faults."""

    name = "service-mix"
    dims, shards, n_jobs, n_urgent = DIMS16, 2, 4, 1
    extents = (2, 2, 1, 1, 1, 1)  # 4-node sub-tori
    tenants = ("alice", "bob", "carol", "dave")
    n_problems = 4
    mass = 0.3
    tol = 1e-6

    def setup(self) -> None:
        geom = LatticeGeometry((4, 4, 2, 2))
        self.problems = []
        for k in range(self.n_problems):
            rng = self.rng(f"-problem{k}")
            gauge = GaugeField.weak(geom, rng, eps=0.3)
            self.problems.append((gauge, rng.standard_normal((geom.volume, 4, 3)) + 0j))
        # one pristine-machine reference solve per distinct problem
        self.baselines = []
        for gauge, b in self.problems:
            machine = QCDOCMachine(MachineConfig(dims=self.extents), word_batch="face", watchdog=True)
            machine.bring_up()
            part = machine.partition(GROUPS4, extents=self.extents)
            res = solve_on_machine(machine, part, gauge, b, mass=self.mass, tol=self.tol, max_time=1e9)
            if not res.converged:
                raise RuntimeError("service-mix: a baseline solve did not converge")
            self.baselines.append((res.x.tobytes(), tuple(res.residuals)))

    def _spec(self, k: int) -> WilsonJobSpec:
        gauge, b = self.problems[k]
        return WilsonJobSpec(gauge, b, mass=self.mass, groups=GROUPS4, extents=self.extents, tol=self.tol)

    def _faults(self, machine, first_job, t0: float) -> FaultSchedule:
        """Two seeded hard faults.  The first always costs a restart: a
        cable under the job that started first is cut while that job
        runs — the scheduler revokes last-started jobs first, so the
        urgent arrivals cannot preempt it away before the watchdog
        trips.  The second powers off a node elsewhere before the urgent
        job arrives, so with all four slots busy it lands under a running
        job too: that job is restarted, or revoked for the urgent one
        first, and either way every seed interrupts three runs."""
        rng = self.rng("-faults")
        part = first_job.alloc.partition
        under_job = [part.physical_node(r) for r in range(part.n_nodes)]
        elsewhere = [n for n in range(machine.n_nodes) if n not in under_job]
        axis, sign = int(rng.integers(0, 2)), (1, -1)[int(rng.integers(0, 2))]
        return FaultSchedule([
            FaultEvent(
                time=t0 + 0.2e-3 + 0.8e-3 * float(rng.random()), kind="link-dead",
                node=under_job[int(rng.integers(0, len(under_job)))],
                direction=machine.topology.direction(axis, sign),
            ),
            FaultEvent(
                time=t0 + 1.2e-3 + 0.6e-3 * float(rng.random()), kind="node-dead",
                node=elsewhere[int(rng.integers(0, len(elsewhere)))], direction=None,
            ),
        ])

    def _campaign(self, machine, daemon, tracer):
        """The timed region: submit, run into the faults and the urgent
        arrival, drain."""
        service = QcdocService(daemon, checkpoint_every=10)
        jobs = []

        def submit(i: int, priority: int) -> None:
            k = i % self.n_problems
            with tracer.span("service.submit"):
                job = service.submit(self._spec(k), tenant=self.tenants[i % 4], priority=priority)
            jobs.append((k, job))

        for i in range(self.n_jobs):
            submit(i, 0)
        t0 = machine.sim.now
        with tracer.span("service.drain"):
            while service.pump():
                pass
            schedule = self._faults(machine, jobs[0][1], t0)
            schedule.arm(machine, daemon)
            service.advance(horizon=2e-3)
            # urgent work arrives with the machine full: checkpoint-gated
            # preemption has to make room
            for i in range(self.n_urgent):
                submit(i, 1)
            report = service.run_until_drained()
        return jobs, schedule, t0, report

    def repeat(self, tracer=NULL, shrink: bool = False) -> Sample:
        machine = QCDOCMachine(
            MachineConfig(dims=self.dims), word_batch="face", watchdog=True, shards=self.shards
        )
        daemon = Qdaemon(machine)
        with tracer.span("host.qdaemon.boot"):
            ok = daemon.boot()
        if not all(ok.values()):
            raise RuntimeError("service-mix: a node failed to boot")
        instrument(machine, tracer)
        boot_sim_s = machine.sim.now
        before = counters(machine)
        with self.watch.region(lambda: machine.sim.events_processed):
            jobs, schedule, t0, report = self._campaign(machine, daemon, tracer)
        curve = self.watch.take()
        after = counters(machine)
        _report(machine, tracer)

        done = [job for _, job in jobs if job.result is not None]
        identical = len(done) == len(jobs) and all(
            (job.result.x.tobytes(), tuple(job.result.residuals)) == self.baselines[k]
            for k, job in jobs
        )
        checks = [
            ("no job lost", report["jobs"]["lost"] == 0),
            ("every job DONE", report["jobs"]["states"] == {"done": len(jobs)}),
            ("every (x, residuals) byte-identical to its baseline", identical),
            ("no words in flight", report["machine"]["in_flight_words"] == 0),
            ("no nodes held", report["machine"]["held_nodes"] == 0),
            ("at least one fault restart", report["jobs"]["restarts"] >= 1),
            ("at least one preemption", report["jobs"]["preemptions"] >= 1),
        ]
        exact = machine_figures([(before, after)])
        exact.update({
            "workload.simulated_s": machine.sim.now - t0,
            "workload.iterations": sum(job.result.iterations for job in done),
            "service.queue_latency_p99_sim_s": report["queue_latency"]["p99"],
            "service.makespan_sim_s": report["packing"]["makespan"],
            "service.packing_efficiency": report["packing"]["efficiency"],
            "service.restarts": report["jobs"]["restarts"],
            "service.preemptions": report["jobs"]["preemptions"],
            "machine.faults.injected": len(schedule.injected),
            "host.qdaemon.boot_sim_s": boot_sim_s,
        })
        host = {"service.host_ms_per_job": curve.seconds[-1] / len(jobs) * 1e3}
        return Sample(curve, checks, exact, host)


REGISTRY = {
    cls.name: cls
    for cls in (DslashWire, DslashHot, Torus64CG, SerialKrylov, HmcChaos, ServiceMix)
}
