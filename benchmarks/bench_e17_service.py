"""E17 — Machine-as-a-service chaos benchmark.

Sustained multi-tenant traffic against the PR 8 job service: 200 Wilson
CGNE solves from four tenants queued onto one sharded 64-node torus,
packed 16-at-a-time as congruent 4-node sub-torus partitions, while a
seeded campaign of hard faults (cables cut, daughterboards powered off)
fires mid-traffic.  The acceptance artifact (``BENCH_service.json`` at
the repo root) records the service-level objectives:

* **zero lost jobs** — every submission reaches a terminal state;
* **bounded queue latency** — p50/p99/max of submit-to-launch, p99
  within the campaign makespan;
* **packing efficiency** — busy node-seconds over the machine's
  node-second capacity for the makespan;
* **bit-identical physics** — every solve, including the fault-remapped
  ones, reproduces its undisturbed single-job baseline byte for byte
  (the paper's section-4 criterion under multi-tenant scheduling).
"""


import pytest

from conftest import emit, write_artifact
from repro.host.qdaemon import Qdaemon
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.faults import FaultSchedule
from repro.machine.machine import QCDOCMachine
from repro.parallel.pcg import solve_on_machine
from repro.service import QcdocService, WilsonJobSpec
from repro.util import rng_stream

DIMS = (2, 2, 2, 2, 2, 2)  # 64 nodes, 4 shard lanes
SHARDS = 4
GROUPS = [(0,), (1,), (2,), (3,)]
EXTENTS = (2, 2, 1, 1, 1, 1)  # 4-node sub-tori: 16 fit at once
N_JOBS = 200
N_PROBLEMS = 4
TENANTS = ["alice", "bob", "carol", "dave"]
FAULT_SEED = 23
N_FAULTS = 4


def problem(k):
    r = rng_stream(41 + k, "e17-service")
    geom = LatticeGeometry((4, 4, 2, 2))
    gauge = GaugeField.weak(geom, r, eps=0.3)
    b = r.standard_normal((geom.volume, 4, 3)) + 0j
    return gauge, b


def spec(k):
    gauge, b = problem(k)
    return WilsonJobSpec(
        gauge, b, mass=0.3, groups=GROUPS, extents=EXTENTS, tol=1e-6
    )


def undisturbed_baselines():
    """One pristine-machine reference solve per distinct problem."""
    out = {}
    for k in range(N_PROBLEMS):
        m = QCDOCMachine(
            MachineConfig(dims=(2, 2, 1, 1, 1, 1)),
            word_batch="face",
            watchdog=True,
        )
        m.bring_up()
        p = m.partition(GROUPS, extents=EXTENTS)
        gauge, b = problem(k)
        res = solve_on_machine(m, p, gauge, b, mass=0.3, tol=1e-6, max_time=1e9)
        assert res.converged
        out[k] = (res.x.tobytes(), tuple(res.residuals))
    return out


def run_campaign():
    baselines = undisturbed_baselines()

    machine = QCDOCMachine(
        MachineConfig(dims=DIMS), word_batch="face", watchdog=True, shards=SHARDS
    )
    daemon = Qdaemon(machine)
    ok = daemon.boot()
    assert all(ok.values())
    service = QcdocService(daemon, checkpoint_every=10)

    jobs = []
    for i in range(N_JOBS):
        k = i % N_PROBLEMS
        jobs.append((k, service.submit(spec(k), tenant=TENANTS[i % 4])))

    t0 = machine.sim.now
    sched = FaultSchedule.random(
        FAULT_SEED,
        N_FAULTS,
        (t0 + 1e-3, t0 + 2e-2),
        n_nodes=machine.n_nodes,
        n_directions=machine.topology.n_directions,
        kinds=("link-dead", "node-dead"),
    )
    sched.arm(machine, daemon)

    report = service.run_until_drained()

    identical = all(
        (job.result.x.tobytes(), tuple(job.result.residuals)) == baselines[k]
        for k, job in jobs
    )
    return {
        "report": report,
        "identical": identical,
        "restarts": sum(job.restarts for _, job in jobs),
        "faults": [
            {"kind": e.kind, "node": e.node, "direction": e.direction,
             "time": e.time}
            for e in sched.injected
        ],
    }


@pytest.mark.service
def test_e17_service_chaos(benchmark, report):
    out = benchmark.pedantic(run_campaign, rounds=1, iterations=1)
    svc = out["report"]

    t = report(
        "E17: 200-job multi-tenant campaign, 64-node sharded torus, "
        f"{len(out['faults'])} hard faults",
        ["objective", "measured", "target"],
    )
    lat = svc["queue_latency"]
    pack = svc["packing"]
    t.add_row(["jobs submitted", svc["jobs"]["submitted"], f">= {N_JOBS}"])
    t.add_row(["jobs lost", svc["jobs"]["lost"], "0"])
    t.add_row(["states", str(svc["jobs"]["states"]), f"{{'done': {N_JOBS}}}"])
    t.add_row(["fault restarts", out["restarts"], ">= 1"])
    t.add_row(["queue latency p50", f"{lat['p50'] * 1e3:.2f} ms", "-"])
    t.add_row(
        ["queue latency p99", f"{lat['p99'] * 1e3:.2f} ms", "< makespan"]
    )
    t.add_row(["makespan", f"{pack['makespan'] * 1e3:.2f} ms", "-"])
    t.add_row(["packing efficiency", f"{pack['efficiency']:.3f}", "-"])
    t.add_row(
        ["bit-identical to baselines", "yes" if out["identical"] else "NO",
         "yes"]
    )
    emit(t)

    assert svc["jobs"]["submitted"] == N_JOBS
    assert svc["jobs"]["lost"] == 0
    assert svc["jobs"]["states"] == {"done": N_JOBS}
    assert len(out["faults"]) == N_FAULTS, "the campaign must actually fire"
    assert out["restarts"] >= 1, "at least one job must ride out a fault"
    assert out["identical"], "a fault-remapped solve diverged from baseline"
    assert 0.0 < lat["p99"] <= pack["makespan"]
    assert svc["machine"]["in_flight_words"] == 0
    assert svc["machine"]["held_nodes"] == 0

    payload = {
        "experiment": "E17 machine-as-a-service chaos campaign",
        "machine": {
            "dims": list(DIMS),
            "nodes": svc["machine"]["nodes"],
            "shards": svc["machine"]["shards"],
            "partition_extents": list(EXTENTS),
        },
        "workload": {
            "jobs": N_JOBS,
            "tenants": TENANTS,
            "distinct_problems": N_PROBLEMS,
        },
        "faults": out["faults"],
        "fault_restarts": out["restarts"],
        "jobs": svc["jobs"],
        "queue_latency": lat,
        "packing": pack,
        "tenants": svc["tenants"],
        "bit_identical": out["identical"],
        "quarantined_cables": svc["machine"]["quarantined_cables"],
        "failed_nodes": svc["machine"]["failed_nodes"],
    }
    write_artifact("service", payload)
