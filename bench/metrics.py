"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

This table is the single definition; ``BENCHMARK.json`` at the repo root
is :func:`manifest` written out (``bench/run.py --write-manifest``) and
``bench/tests`` checks the two agree.

Clocks: ``host`` is the simulator's wall-clock on the machine running the
benchmark; ``simulated`` is ``machine.sim.now`` — what the modelled QCDOC
would take — and is deterministic, so it repeats to the bit; ``count`` is
a deterministic event/operation count or a ratio of such counts.

Sources of per-layer numbers (all taken from outside the program):
``S`` a benchmark-side span around a public call; ``X`` the stepping
proxy round the rank programs; ``C`` a public counter; ``P`` a cProfile
pass bucketed by source file (a share of profiled time); ``probe`` a
sub-second isolated call run in the traced pass only; ``D`` derived from
the figures above.
"""

from typing import Dict, List, NamedTuple, Tuple

from layers import LAYERS

RUN_SECONDS = 17
#: pinned to 1 in every worker's environment before numpy is imported:
#: the load generator is one process, one thread
THREAD_PINS = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")
COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

ALL = (
    "dslash-wire",
    "dslash-hot",
    "torus64-cg",
    "serial-krylov",
    "hmc-chaos",
    "service-mix",
)
MACHINE = tuple(w for w in ALL if w != "serial-krylov")

#: name -> the one-line reason the workload exists
WORKLOADS: Dict[str, str] = {
    "dslash-wire": (
        "16 nodes, 4^4 lattice, word-at-a-time SCU protocol, replay off: the "
        "event kernel and the SCU/HSSL word protocol do the work"
    ),
    "dslash-hot": (
        "same machine, 8^4 lattice, one frame per face, compiled replay; "
        "Wilson, DWF and ASQTAD each a third, so all three halo pipelines show"
    ),
    "torus64-cg": (
        "64 nodes in 4 shard lanes, CG to 2e-2 with replay learned inside the "
        "solve: the sharded engine, replay verdicts and the global-sum tree"
    ),
    "serial-krylov": (
        "no machine: CGNE, multishift and mixed-precision CG on a 6^4 Wilson "
        "operator; bypasses sim/machine/parallel, so engine changes must not move it"
    ),
    "hmc-chaos": (
        "E18 over 2 trajectories: dynamical HMC through a cable death, quarantine, remap "
        "and checkpoint restore; the always-interpreted fault path with tracing on"
    ),
    "service-mix": (
        "E17 in miniature: 5 jobs, 4 tenants, a preemption and 2 hard faults on "
        "a 16-node machine of 4 slots in 2 shard lanes; the host/service loop and checkpoints"
    ),
}


#: oracle checks per timed repeat: what a workload that dies is charged
N_CHECKS: Dict[str, int] = {
    "dslash-wire": 2,
    "dslash-hot": 9,
    "torus64-cg": 6,
    "serial-krylov": 8,
    "hmc-chaos": 6,
    "service-mix": 7,
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" | "simulated" | "count"
    source: str  # S X C P probe D
    workloads: Tuple[str, ...]  # where it is measured (0.0 elsewhere)
    moves: str  # the end-to-end figure it should move, and where
    bound: float = 0.0  # end-to-end only: share of the parent's median


END_TO_END: List[Metric] = [
    Metric(
        "setup_s", "s", "lower", "host", "S", ALL,
        "worker-process entry (imports included) to the first timed repeat: "
        "machine build, bring_up / Qdaemon.boot, partition, field generation "
        "and scatter, oracle/reference runs, warm-up; the faster of two fresh "
        "processes",
        0.25,
    ),
    Metric(
        "wall_s", "s", "lower", "host", "S", ALL,
        "undisturbed host time of the workload's timed region: cut into ~25 ms "
        "bins of equal progress, each bin's fastest time over the run's repeats, "
        "summed (bench/timing.py)",
        0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", "host", "C", ALL,
        "ru_maxrss of the workload's worker process",
        0.10,
    ),
]

_WALL = "wall_s"
_SIM = "workload.simulated_s, workload.sustained_peak_fraction"


def _shares() -> List[Metric]:
    where = {
        "sim.core": "wall_s on dslash-wire; less on torus64-cg, service-mix",
        "sim.shard": "wall_s, peak_rss_mb on torus64-cg, service-mix (shards>1)",
        "machine.scu": "wall_s on dslash-wire",
        "machine.hssl": "wall_s on dslash-wire",
        "machine.replay": "wall_s on torus64-cg, dslash-hot",
        "machine.globalops": "wall_s on torus64-cg",
        "parallel": "wall_s on dslash-hot",
        "fermions": "wall_s on dslash-hot, serial-krylov",
        "lattice": "wall_s on dslash-hot, serial-krylov",
        "solvers": "wall_s on serial-krylov",
        "hmc": "wall_s on hmc-chaos",
        "host": "wall_s on hmc-chaos, service-mix",
        "service": "wall_s on service-mix",
    }
    return [
        Metric(
            f"{layer}.self_share", "fraction", "lower", "host", "P", ALL,
            where.get(layer, "wall_s, by its share"),
        )
        for layer in LAYERS
    ]


PER_LAYER: List[Metric] = _shares() + [
    # -- sim ---------------------------------------------------------------
    Metric("sim.events", "count", "lower", "count", "C", MACHINE,
           "wall_s through the event count, every machine workload"),
    Metric("sim.host_us_per_event", "us", "lower", "host", "D", MACHINE,
           "wall_s / sim.events; wall_s on dslash-wire"),
    Metric("sim.kernel_events_per_host_s", "1/s", "higher", "host", "probe",
           ("dslash-wire",), "bare Simulator, no machine; wall_s on dslash-wire"),
    Metric("sim.shard.events_per_host_s.s1", "1/s", "higher", "host", "probe",
           ("torus64-cg",), "E16 64-node dslash, shards=1; the executor curve"),
    Metric("sim.shard.events_per_host_s.s2", "1/s", "higher", "host", "probe",
           ("torus64-cg",), "E16 64-node dslash, shards=2 serial"),
    Metric("sim.shard.events_per_host_s.s4", "1/s", "higher", "host", "probe",
           ("torus64-cg",), "E16 64-node dslash, shards=4 serial; wall_s on torus64-cg"),
    Metric("sim.shard.events_per_host_s.fork2", "1/s", "higher", "host", "probe",
           ("torus64-cg",), "E16 64-node dslash, 2 forked workers (host_cores stamped)"),
    # -- machine -----------------------------------------------------------
    Metric("machine.engine_s", "s", "lower", "host", "X", MACHINE,
           "run_partition_s - rank_program_s; wall_s on dslash-wire"),
    Metric("machine.machine.run_partition_s", "s", "lower", "host", "S",
           tuple(w for w in MACHINE if w != "service-mix"),
           "wall_s (service-mix launches without blocking: see service.drain_s)"),
    Metric("machine.machine.bring_up_s", "s", "lower", "host", "S",
           ("dslash-wire", "torus64-cg"), "setup_s"),
    Metric("machine.machine.quiesce_s", "s", "lower", "host", "S",
           ("dslash-wire",), _WALL),
    Metric("machine.scu.payload_words", "count", "lower", "count", "C", MACHINE, _SIM),
    Metric("machine.scu.wire_words", "count", "lower", "count", "C", MACHINE, _SIM),
    Metric("machine.scu.resends", "count", "lower", "count", "C", MACHINE, _SIM),
    Metric("machine.scu.watchdog_trips", "count", "lower", "count", "C", MACHINE,
           "workload.detection_latency_sim_s on hmc-chaos"),
    Metric("machine.scu.wire_overhead", "ratio", "lower", "count", "D", MACHINE,
           "wire / payload words; " + _SIM),
    Metric("machine.scu.events_per_word", "ratio", "lower", "count", "D", MACHINE,
           "sim.events / payload words; wall_s on dslash-wire"),
    Metric("machine.hssl.link_busy_frac", "fraction", "higher", "simulated", "C", MACHINE, _SIM),
    Metric("machine.replay.epochs_replayed", "count", "higher", "count", "C", MACHINE,
           "wall_s on torus64-cg, dslash-hot"),
    Metric("machine.replay.fallbacks", "count", "lower", "count", "C", MACHINE,
           "wall_s on torus64-cg"),
    Metric("machine.replay.hit_frac", "fraction", "higher", "count", "D", MACHINE,
           "replayed / (replayed + fallback) transfers; wall_s on torus64-cg, dslash-hot; "
           "0 on dslash-wire, hmc-chaos (replay off)"),
    Metric("machine.globalops.sim_us_per_sum", "sim_us", "lower", "simulated", "probe",
           ("torus64-cg",), "one 64-rank global sum; parallel.pcg.sim_us_per_iter"),
    Metric("machine.globalops.host_us_per_sum", "us", "lower", "host", "probe",
           ("torus64-cg",), "wall_s on torus64-cg"),
    Metric("machine.faults.injected", "count", "lower", "count", "C",
           ("hmc-chaos", "service-mix"), "fixed by the workload; a check, not a lever"),
    # -- parallel ----------------------------------------------------------
    Metric("parallel.rank_program_s", "s", "lower", "host", "X", MACHINE,
           "wall_s on dslash-hot"),
    Metric("parallel.pdirac.host_ms_per_apply", "ms", "lower", "host", "S",
           ("dslash-wire", "dslash-hot"), "wall_s on dslash-hot"),
    Metric("parallel.pdirac.sim_us_per_apply", "sim_us", "lower", "simulated", "C",
           ("dslash-wire", "dslash-hot"), _SIM),
    Metric("parallel.pdwf.host_ms_per_apply", "ms", "lower", "host", "S",
           ("dslash-hot",), "wall_s on dslash-hot"),
    Metric("parallel.pdwf.sim_us_per_apply", "sim_us", "lower", "simulated", "C",
           ("dslash-hot",), _SIM),
    Metric("parallel.pstaggered.host_ms_per_apply", "ms", "lower", "host", "S",
           ("dslash-hot",), "wall_s on dslash-hot"),
    Metric("parallel.pstaggered.sim_us_per_apply", "sim_us", "lower", "simulated", "C",
           ("dslash-hot",), _SIM),
    Metric("parallel.overlap_fraction", "fraction", "higher", "simulated", "C", MACHINE, _SIM),
    Metric("parallel.pcg.host_ms_per_iter", "ms", "lower", "host", "D",
           ("torus64-cg",), "wall_s on torus64-cg"),
    Metric("parallel.pcg.sim_us_per_iter", "sim_us", "lower", "simulated", "D",
           ("torus64-cg",), "workload.simulated_s on torus64-cg"),
    Metric("parallel.decomp.scatter_s", "s", "lower", "host", "S",
           ("dslash-wire",), "setup_s"),
    Metric("parallel.decomp.gather_s", "s", "lower", "host", "S",
           ("dslash-wire", "dslash-hot"), "outside wall_s; the oracle's cost"),
    Metric("parallel.phmc.host_s_per_trajectory", "s", "lower", "host", "D",
           ("hmc-chaos",), "wall_s on hmc-chaos"),
    Metric("parallel.phmc.sim_s_per_trajectory", "sim_s", "lower", "simulated", "D",
           ("hmc-chaos",), "workload.simulated_s on hmc-chaos"),
    # -- fermions, lattice -------------------------------------------------
    Metric("fermions.wilson.host_ms_per_apply", "ms", "lower", "host", "S",
           ("serial-krylov",), "wall_s on serial-krylov"),
    Metric("fermions.wilson.host_gflops", "Gflop/s", "higher", "host", "D",
           ("serial-krylov",), "computed: fermions/flops.py flops per site x volume / host time"),
    Metric("fermions.wilson.computed_bytes_per_apply", "B", "lower", "count", "D",
           ("serial-krylov",), "computed from array sizes (flops.py words per site), not measured"),
    Metric("lattice.stencil.cache_hit_frac", "fraction", "higher", "count", "C", ALL,
           "wall_s on dslash-hot, serial-krylov"),
    # -- solvers -----------------------------------------------------------
    Metric("solvers.cg.iterations", "count", "lower", "count", "C",
           ("serial-krylov",), "workload.iterations, wall_s on serial-krylov"),
    Metric("solvers.cg.host_ms_per_iter", "ms", "lower", "host", "S",
           ("serial-krylov",), "wall_s on serial-krylov"),
    Metric("solvers.multishift.iterations", "count", "lower", "count", "C",
           ("serial-krylov",), "workload.iterations, wall_s on serial-krylov"),
    Metric("solvers.multishift.host_ms_per_iter", "ms", "lower", "host", "S",
           ("serial-krylov",), "wall_s on serial-krylov"),
    Metric("solvers.mixed.iterations", "count", "lower", "count", "C",
           ("serial-krylov",), "workload.iterations, wall_s on serial-krylov"),
    Metric("solvers.mixed.host_ms_per_iter", "ms", "lower", "host", "S",
           ("serial-krylov",), "wall_s on serial-krylov"),
    Metric("solvers.loop_self_frac", "fraction", "lower", "host", "S",
           ("serial-krylov",), "solve spans minus the operator applies inside them; wall_s"),
    # -- hmc, host, service, telemetry, perfmodel --------------------------
    Metric("hmc.checkpoint.save_ms", "ms", "lower", "host", "S", ("hmc-chaos",),
           "wall_s on hmc-chaos"),
    Metric("hmc.checkpoint.restore_ms", "ms", "lower", "host", "S", ("hmc-chaos",),
           "wall_s, workload.fault_overhead_frac on hmc-chaos"),
    Metric("host.qdaemon.boot_s", "s", "lower", "host", "S",
           ("hmc-chaos", "service-mix"), "setup_s"),
    Metric("host.qdaemon.boot_sim_s", "sim_s", "lower", "simulated", "C",
           ("hmc-chaos", "service-mix"), "the modelled boot time (paper section 3.1)"),
    Metric("host.qdaemon.allocate_ms", "ms", "lower", "host", "S", ("hmc-chaos",),
           "wall_s on hmc-chaos"),
    Metric("host.qdaemon.handle_fault_ms", "ms", "lower", "host", "S", ("hmc-chaos",),
           "wall_s on hmc-chaos"),
    Metric("service.submit_us_per_job", "us", "lower", "host", "S", ("service-mix",),
           "wall_s on service-mix"),
    Metric("service.drain_s", "s", "lower", "host", "S", ("service-mix",),
           "wall_s on service-mix"),
    Metric("service.host_ms_per_job", "ms", "lower", "host", "D", ("service-mix",),
           "wall_s / jobs on service-mix"),
    Metric("service.restarts", "count", "lower", "count", "C", ("service-mix",),
           "service.makespan_sim_s"),
    Metric("service.preemptions", "count", "lower", "count", "C", ("service-mix",),
           "service.queue_latency_p99_sim_s"),
    Metric("telemetry.report_ms", "ms", "lower", "host", "S", MACHINE,
           "outside wall_s: one machine.report()"),
    Metric("telemetry.trace_records", "count", "lower", "count", "C", ("hmc-chaos",),
           "wall_s, peak_rss_mb on hmc-chaos (trace=True)"),
    Metric("perfmodel.crosscheck_max_rel_err", "ratio", "lower", "count", "C",
           ("dslash-hot",),
           "model vs measured words/flops on the Wilson part; the twin has no "
           "hardware reference, so this is model self-consistency, not accuracy"),
    Metric("bench.trace_overhead_frac", "fraction", "lower", "host", "D", ALL,
           "traced repeat wall / untraced repeat wall - 1"),
    # -- exact workload-level figures.  The issue lists these as end-to-end
    #    metrics; the driver's contract wants every end-to-end metric on
    #    every workload and never 0, which none of these can be, so they
    #    ride here and are compared bit-for-bit by --check-repeat.
    Metric("workload.simulated_s", "sim_s", "lower", "simulated", "C", MACHINE,
           "machine.sim.now advance over one timed region"),
    Metric("workload.sustained_peak_fraction", "fraction", "higher", "simulated", "C",
           ("dslash-wire", "dslash-hot", "torus64-cg"),
           "flops charged / (partition nodes x peak x simulated_s): the paper's headline"),
    Metric("workload.iterations", "count", "lower", "count", "C",
           ("torus64-cg", "serial-krylov", "hmc-chaos", "service-mix"),
           "Krylov iterations to the stated tolerance, summed over one timed region"),
    Metric("workload.fault_overhead_frac", "fraction", "lower", "simulated", "C",
           ("hmc-chaos",), "chaos-chain simulated time / undisturbed reference - 1"),
    Metric("workload.detection_latency_sim_s", "sim_s", "lower", "simulated", "C",
           ("hmc-chaos",), "first scu.link_down trace record - fault time"),
    Metric("service.queue_latency_p99_sim_s", "sim_s", "lower", "simulated", "C",
           ("service-mix",), "QcdocService.report()"),
    Metric("service.makespan_sim_s", "sim_s", "lower", "simulated", "C",
           ("service-mix",), "QcdocService.report()"),
    Metric("service.packing_efficiency", "fraction", "higher", "simulated", "C",
           ("service-mix",), "QcdocService.report()"),
]

#: per-layer metrics that repeat to the bit run over run
EXACT = frozenset(m.name for m in PER_LAYER if m.clock != "host")


def manifest() -> dict:
    """``BENCHMARK.json``, in the shape the driver's contract prescribes."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
