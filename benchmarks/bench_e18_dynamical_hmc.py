"""E18 — Dynamical-fermion HMC on the machine, through a hard fault.

The paper's production story, end to end: a two-flavor Wilson HMC
evolution whose heat-bath, force solves and Metropolis Hamiltonian all
run as node programs on a multi-node sharded torus — and whose chain
survives the companion papers' operating reality.  Mid-trajectory a
seeded hard fault kills a cable; the SCU watchdog trips, the partition
aborts, the qdaemon quarantines the cable and re-allocates the job on a
healthy sub-torus, the evolution restores its newest checkpoint onto the
rebound partition and replays — reproducing the undisturbed run's
``delta_h``, acceptances and final gauge configuration **bit for bit**
(the section-4 verification criterion carried through a hardware loss
*and* a dynamical-fermion action).

Writes ``BENCH_hmc.json`` at the repo root.
"""


import pytest

from conftest import emit, write_artifact
from repro.hmc.checkpoint import HMCCheckpoint
from repro.host.qdaemon import Qdaemon
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.faults import FaultEvent, FaultSchedule
from repro.machine.machine import QCDOCMachine
from repro.parallel.phmc import DistributedTwoFlavorHMC
from repro.util import rng_stream
from repro.util.errors import FaultError

DIMS = (2, 2, 2, 1, 1, 1)
GROUPS = [(0,), (1,), (2,), (3,)]
#: 4-node jobs on the 8-node machine: the spare hyperplane along machine
#: axis 2 is what the qdaemon remaps onto after the fault
EXTENTS = (2, 2, 1, 1, 1, 1)
SHAPE = (4, 4, 2, 2)
N_TRAJ = 3
WORD_BATCH = 4096


def build():
    machine = QCDOCMachine(
        MachineConfig(dims=DIMS),
        word_batch=WORD_BATCH,
        shards=2,
        watchdog=True,
        trace=True,
    )
    daemon = Qdaemon(machine)
    ok = daemon.boot()
    assert all(ok.values())
    return machine, daemon


def driver(machine, partition):
    gauge = GaugeField.hot(LatticeGeometry(SHAPE), rng_stream(11, "e18"))
    return DistributedTwoFlavorHMC(
        machine,
        partition,
        gauge,
        beta=5.5,
        mass=0.5,
        seed=3,
        n_steps=1,
        dt=0.05,
        word_batch=WORD_BATCH,
    )


def run_campaign():
    # -- undisturbed reference ---------------------------------------------
    m0, d0 = build()
    alloc0 = d0.allocate("e18-ref", GROUPS, extents=EXTENTS)
    ref = driver(m0, alloc0.partition)
    t0 = m0.sim.now
    traj_end = []
    for _ in range(N_TRAJ):
        ref.trajectory()
        traj_end.append(m0.sim.now - t0)

    # -- the chaos run: cable dies mid-trajectory-2 ------------------------
    m, d = build()
    alloc = d.allocate("e18-hmc", GROUPS, extents=EXTENTS)
    hmc = driver(m, alloc.partition)
    t_start = m.sim.now
    t_fault = t_start + traj_end[0] + 0.4 * (traj_end[1] - traj_end[0])
    sched = FaultSchedule(
        [FaultEvent(time=t_fault, kind="link-dead", node=0, direction=0)]
    )
    sched.arm(m, d)

    checkpoints = [HMCCheckpoint.save(hmc)]
    restarts = 0
    resumed_from = None
    old_nodes = [
        alloc.partition.physical_node(i) for i in range(alloc.partition.n_nodes)
    ]
    while hmc.trajectory_index < N_TRAJ:
        try:
            hmc.trajectory()
            checkpoints.append(HMCCheckpoint.save(hmc))
        except FaultError:
            restarts += 1
            d.release(alloc)
            diagnosis = d.handle_fault()
            assert diagnosis["quarantined_cables"]
            alloc = d.allocate("e18-hmc", GROUPS, extents=EXTENTS)
            hmc.rebind(m, alloc.partition)
            checkpoints[-1].restore(hmc)
            resumed_from = checkpoints[-1].trajectory_index
    new_nodes = [
        alloc.partition.physical_node(i) for i in range(alloc.partition.n_nodes)
    ]
    trips = [r.time for r in m.trace.records if r.tag == "scu.link_down"]

    identical = (
        [t.delta_h for t in hmc.history] == [t.delta_h for t in ref.history]
        and [t.accepted for t in hmc.history] == [t.accepted for t in ref.history]
        and hmc.cg_iterations == ref.cg_iterations
        and hmc.fingerprint() == ref.fingerprint()
    )
    return {
        "ref": ref,
        "hmc": hmc,
        "restarts": restarts,
        "resumed_from": resumed_from,
        "identical": identical,
        "moved": new_nodes != old_nodes,
        "detection_latency": min(trips) - t_fault if trips else None,
        "budget": m.config.asic.watchdog_detection_budget
        + m.config.asic.watchdog_timeout,
        "overhead": (m.sim.now - t_start) / traj_end[-1] - 1.0,
    }


@pytest.mark.perf
@pytest.mark.hmc
def test_e18_dynamical_hmc(benchmark, report):
    out = benchmark.pedantic(run_campaign, rounds=1, iterations=1)
    ref, hmc = out["ref"], out["hmc"]

    t = report(
        "E18: dynamical HMC through a mid-trajectory cable death "
        "(8-node sharded torus, 4-node job)",
        ["trajectory", "delta_h (ref)", "delta_h (chaos)", "accepted", "identical"],
    )
    for a, b in zip(ref.history, hmc.history):
        t.add_row(
            [
                a.index,
                f"{a.delta_h:+.6e}",
                f"{b.delta_h:+.6e}",
                "yes" if a.accepted else "no",
                "yes" if a.delta_h == b.delta_h else "NO",
            ]
        )
    t.add_row(
        [
            "restarts=1" if out["restarts"] == 1 else f"restarts={out['restarts']}",
            f"resumed from traj {out['resumed_from']}",
            f"detected in {out['detection_latency'] * 1e3:.2f} ms",
            f"job moved: {'yes' if out['moved'] else 'no'}",
            "BIT-IDENTICAL" if out["identical"] else "DIVERGED",
        ]
    )
    emit(t)

    payload = {
        "experiment": "E18 dynamical HMC fault/remap/resume",
        "machine_dims": list(DIMS),
        "job_extents": list(EXTENTS),
        "lattice": list(SHAPE),
        "n_trajectories": N_TRAJ,
        "restarts": out["restarts"],
        "resumed_from_trajectory": out["resumed_from"],
        "detection_latency_s": out["detection_latency"],
        "time_overhead": out["overhead"],
        "bit_identical": out["identical"],
        "delta_h": [tr.delta_h for tr in hmc.history],
        "accepted": [tr.accepted for tr in hmc.history],
        "cg_iterations": hmc.cg_iterations,
        "acceptance_rate": hmc.acceptance_rate,
    }
    write_artifact("hmc", payload)

    assert out["restarts"] == 1
    assert out["identical"], "resumed dynamical chain diverged from reference"
    assert out["moved"], "the job should have been remapped off the dead cable"
    assert out["detection_latency"] is not None
    assert out["detection_latency"] <= out["budget"]
