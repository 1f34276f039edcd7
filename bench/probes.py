"""Sub-second isolated probes, run in the traced pass only.

Each probe exercises one layer with nothing else in the way and reports
per-layer metrics by name.  A probe belongs to one workload (the one whose
dominant layer it isolates); elsewhere its metrics read 0.
"""

import os
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import PhysicsMapping
from repro.parallel.pdirac import DistributedWilsonContext
from repro.sim.core import Simulator
from repro.util import rng_stream

from workloads import DIMS64, GROUPS64


def event_kernel() -> Dict[str, float]:
    """The bare event kernel: 200k timeouts plus ping-pong processes on a
    :class:`Simulator` with no machine attached."""
    sim = Simulator()

    def ticker(n: int):
        for _ in range(n):
            yield sim.timeout(1e-9)

    def pinger(mine, theirs, n: int):
        for _ in range(n):
            theirs[0].succeed()
            theirs[0] = sim.event()
            yield mine[0]

    for _ in range(100):
        sim.process(ticker(2000))
    ping, pong = [sim.event()], [sim.event()]
    sim.process(pinger(ping, pong, 10000))
    sim.process(pinger(pong, ping, 10000))
    start = time.perf_counter()
    sim.run()  # to a dry heap: the pair ends blocked on each other's last event
    seconds = time.perf_counter() - start
    return {"sim.kernel_events_per_host_s": sim.events_processed / seconds}


def _dslash64(shards: int, workers: str) -> Tuple[float, bytes]:
    """E16's sweep point: one Wilson dslash on the 64-node torus.
    Returns events per host second and the gathered result."""
    machine = QCDOCMachine(
        MachineConfig(dims=DIMS64), word_batch=4096, shards=shards, shard_workers=workers
    )
    machine.bring_up()
    part = machine.partition(groups=GROUPS64)
    geom = LatticeGeometry((4, 4, 4, 16))
    rng = rng_stream(64, "bench-probe-shards")
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((geom.volume, 4, 3)) + 0j
    mapping = PhysicsMapping(geom, part)
    links = mapping.scatter_gauge(gauge)
    lpsi = mapping.scatter_field(psi)

    def program(api):
        ctx = DistributedWilsonContext(api, mapping.local_shape, links[api.rank], mass=0.2)
        out = yield from ctx.apply(lpsi[api.rank])
        return out

    events = machine.sim.events_processed
    start = time.perf_counter()
    results = machine.run_partition(part, program)
    machine.quiesce()
    seconds = time.perf_counter() - start
    events = machine.sim.events_processed - events
    return events / seconds, mapping.gather_field(np.stack(results)).tobytes()


def shard_curve() -> Dict[str, float]:
    """The executor curve (the gpaw 1 -> NCORES protocol): the same dslash
    at shards=1, 2, 4 serial lanes and 2 forked workers.  Read it beside
    the stamped ``host_cores``; a point whose result differs from
    ``shards=1`` reads 0."""
    out: Dict[str, float] = {}
    reference = None
    points = [("s1", 1, "serial"), ("s2", 2, "serial"), ("s4", 4, "serial")]
    if hasattr(os, "fork"):
        points.append(("fork2", 2, "fork"))
    for key, shards, workers in points:
        rate, blob = _dslash64(shards, workers)
        if reference is None:
            reference = blob
        out[f"sim.shard.events_per_host_s.{key}"] = rate if blob == reference else 0.0
    return out


def global_sum() -> Dict[str, float]:
    """One 64-rank global sum through the SCU tree, on both clocks."""
    machine = QCDOCMachine(MachineConfig(dims=DIMS64), word_batch="face", shards=4)
    machine.bring_up()
    part = machine.partition(groups=GROUPS64)

    def program(api):
        total = yield api.global_sum(np.array([float(api.rank)]))
        return total

    t_sim = machine.sim.now
    start = time.perf_counter()
    results = machine.run_partition(part, program)
    seconds = time.perf_counter() - start
    n = part.n_nodes
    if any(float(r[0]) != n * (n - 1) / 2 for r in results):
        return {}
    return {
        "machine.globalops.sim_us_per_sum": (machine.sim.now - t_sim) * 1e6,
        "machine.globalops.host_us_per_sum": seconds * 1e6,
    }


#: workload -> the probes its traced pass runs
PROBES: Dict[str, Tuple[Callable[[], Dict[str, float]], ...]] = {
    "dslash-wire": (event_kernel,),
    "torus64-cg": (shard_curve, global_sum),
}
