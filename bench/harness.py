"""The worker side of the benchmark: one workload, in this process.

``bench/run.py`` starts a fresh worker process per workload (so
``peak_rss_mb`` and the process-wide stencil memo are per workload) and
this module is what runs there: set-up, the time-boxed repeat loop with
its oracle, and — in the traced pass — the span repeat, the cProfile
repeat and the probes that produce the per-layer numbers.
"""

import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy

from repro.lattice import stencil

from layers import LAYERS, OTHER, layer_of
from metrics import PER_LAYER, THREAD_PINS
from probes import PROBES
from spans import RANK_PROGRAM, NullTracer, Tracer
from timing import PERIOD_S, Stopwatch, undisturbed_seconds
from workloads import REGISTRY, Sample

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src" / "repro") + os.sep
OUT = ROOT / "bench" / "out"

#: a run that fits fewer repeats than this into its seconds runs on ...
MIN_REPEATS = 6
#: ... to at most this many times its seconds
STRETCH = 1.25

#: S metrics: name -> (span, "total" seconds or "mean" per span, scale)
SPAN_METRICS: Dict[str, Tuple[str, str, float]] = {
    "machine.machine.run_partition_s": ("machine.machine.run_partition", "total", 1.0),
    "machine.machine.bring_up_s": ("machine.machine.bring_up", "total", 1.0),
    "machine.machine.quiesce_s": ("machine.machine.quiesce", "total", 1.0),
    "parallel.rank_program_s": (RANK_PROGRAM, "total", 1.0),
    "parallel.decomp.scatter_s": ("parallel.decomp.scatter", "total", 1.0),
    "parallel.decomp.gather_s": ("parallel.decomp.gather", "total", 1.0),
    "fermions.wilson.host_ms_per_apply": ("fermions.wilson.apply", "mean", 1e3),
    "hmc.checkpoint.save_ms": ("hmc.checkpoint.save", "mean", 1e3),
    "hmc.checkpoint.restore_ms": ("hmc.checkpoint.restore", "mean", 1e3),
    "host.qdaemon.boot_s": ("host.qdaemon.boot", "total", 1.0),
    "host.qdaemon.allocate_ms": ("host.qdaemon.allocate", "mean", 1e3),
    "host.qdaemon.handle_fault_ms": ("host.qdaemon.handle_fault", "mean", 1e3),
    "service.submit_us_per_job": ("service.submit", "mean", 1e6),
    "service.drain_s": ("service.drain", "total", 1.0),
    "telemetry.report_ms": ("telemetry.report", "mean", 1e3),
}
#: spans under which the engine runs: their self time is engine time
ENGINE_SPANS = ("machine.machine.run_partition", "service.drain")
SOLVE_SPANS = ("solvers.cg", "solvers.multishift", "solvers.mixed")


def host_stamp() -> dict:
    """Where and on what the numbers were taken."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "host_cores": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def measure(workload, seconds: float, repeats: Optional[int]) -> List[Sample]:
    """The closed repeat loop: exactly ``repeats`` when given, else as
    many as fit ``seconds`` — another repeat starts only while half of it
    is still expected to fit, so the loop overshoots by at most half a
    repeat.  When the host is so slow that fewer than ``MIN_REPEATS`` fit
    — just when the undisturbed time needs them most — the loop runs on,
    to at most ``STRETCH`` times ``seconds``.  Progress is sampled inside
    the timed regions; every repeat starts from a collected heap, so the
    collector runs at the same points of each."""
    workload.watch = Stopwatch(PERIOD_S)
    samples: List[Sample] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        samples.append(workload.repeat(NullTracer()))
        elapsed = time.perf_counter() - start
        if repeats is not None:
            if len(samples) >= repeats:
                return samples
            continue
        ends = elapsed + 0.5 * elapsed / len(samples)  # half a repeat on
        if ends > seconds and (len(samples) >= MIN_REPEATS or ends > STRETCH * seconds):
            return samples


def profile_shares(fn) -> Tuple[Dict[str, float], List[str]]:
    """Run ``fn`` under cProfile; bucket ``tottime`` by source file into
    layers.  Absolute times under cProfile are inflated, so only shares of
    profiled time are kept.  Returns the shares and the files under
    ``src/repro/`` that no layer claims (counted as ``other``)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    totals = dict.fromkeys(LAYERS, 0.0)
    unmapped = set()
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        layer = OTHER
        if filename.startswith(SRC):
            rel = filename[len(SRC):].replace(os.sep, "/")
            layer = layer_of(rel)
            if layer is None:
                unmapped.add(rel)
                layer = OTHER
        totals[layer] += tottime
    whole = sum(totals.values())
    return {f"{k}.self_share": v / whole for k, v in totals.items()}, sorted(unmapped)


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """The S and X per-layer numbers of one traced repeat."""
    out: Dict[str, float] = {}
    for metric, (span, how, scale) in SPAN_METRICS.items():
        n = tracer.count(span)
        if n:
            total = tracer.total(span)
            out[metric] = (total if how == "total" else total / n) * scale
    self_times = tracer.self_times()
    if RANK_PROGRAM in self_times:
        out["machine.engine_s"] = sum(self_times.get(s, 0.0) for s in ENGINE_SPANS)
    solve_total = sum(tracer.total(s) for s in SOLVE_SPANS)
    if solve_total > 0:
        out["solvers.loop_self_frac"] = (
            sum(self_times.get(s, 0.0) for s in SOLVE_SPANS) / solve_total
        )
    return out


def traced_pass(workload, name: str) -> Tuple[Dict[str, float], dict, List[Sample]]:
    """One untraced reference repeat, one repeat with spans and the
    stepping proxy, one cProfile repeat, then the workload's probes.
    Returns every per-layer metric (0 where not measured on this
    workload), the trace document for ``bench/out`` and the two checked
    samples (reference first)."""
    reference = workload.repeat(NullTracer())
    tracer = Tracer(name)
    traced = workload.repeat(tracer)
    shares, unmapped = profile_shares(lambda: workload.repeat(NullTracer(), shrink=True))

    layer: Dict[str, float] = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    layer.update(shares)
    layer.update(reference.exact)
    layer.update(reference.host)
    layer.update(span_metrics(tracer))
    for probe in PROBES.get(name, ()):
        layer.update(probe())
    events = reference.exact.get("sim.events", 0)
    if events:
        layer["sim.host_us_per_event"] = reference.wall_s / events * 1e6
    workload.derive(layer)
    cache = stencil.cache_info()
    lookups = cache["hits"] + cache["misses"]
    layer["lattice.stencil.cache_hit_frac"] = cache["hits"] / lookups if lookups else 0.0
    layer["bench.trace_overhead_frac"] = traced.wall_s / reference.wall_s - 1.0

    unknown = sorted(set(layer) - {m.name for m in PER_LAYER})
    if unknown:
        raise KeyError(f"per-layer figures without a metric definition: {unknown}")
    document = {
        "workload": name,
        "traceEvents": tracer.chrome_events(),
        "self_seconds": tracer.self_times(),
        "rank_program_steps": tracer.count(RANK_PROGRAM),
        "shares": shares,
        "unmapped_files": unmapped,
        "reference_wall_s": reference.wall_s,
        "traced_wall_s": traced.wall_s,
    }
    return layer, document, [reference, traced]


def run_worker(
    name: str,
    seed: int,
    seconds: float,
    repeats: Optional[int],
    trace: bool,
    smoke: bool,
    setup_only: bool,
    spawned_at: float,
) -> dict:
    """Set up ``name`` and measure it; the JSON-ready result."""
    workload = REGISTRY[name](seed, smoke=smoke)
    workload.setup()
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": time.time() - spawned_at,
        "host": host_stamp(),
    }
    if setup_only:
        return result

    if trace:
        result["per_layer"], document, samples = traced_pass(workload, name)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{name}.trace.json").write_text(json.dumps(document) + "\n")
    else:
        samples = measure(workload, seconds, repeats)
        curves = [s.curve for s in samples]
        result["wall_s"] = undisturbed_seconds(curves)
        # how far the figure leans on any one repeat: it again, without each
        result["wall_without_one"] = [
            undisturbed_seconds(curves[:i] + curves[i + 1:]) for i in range(len(curves))
        ] if len(curves) > 1 else [result["wall_s"]]
        result["repeat_walls"] = [s.wall_s for s in samples]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = [check for s in samples for check in s.checks]
    result["attempted"] = len(checks)
    result["failures"] = [label for label, ok in checks if not ok]
    result["exact"] = samples[0].exact
    return result
