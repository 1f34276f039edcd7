"""E16 — Sharded event-engine scaling sweep (``shards=1 .. NCORES``).

The tentpole measurement of the sharded simulator PR: the same 64-node
distributed Wilson dslash run at every shard count, checked bit-identical
against the single-heap engine, with wall time, processed events and
events/second tabulated for both executors — plus the scale probe the
paper's machine actually demands: a full 4^4-torus (256-node) machine
booted (batched link training) and driven through a distributed dslash.

Honesty note: the sweep reports *overhead and determinism*, not speedup
claims — on a single-core container (``os.cpu_count() == 1``) the forked
executor cannot beat serial, and the table says so rather than
cherry-picking.  The artifact lands gpaw-style in
``BENCH_sim_scaling.json`` at the repo root.
"""

import os
import time

import pytest

from conftest import emit, write_artifact
from repro.lattice import GaugeField, LatticeGeometry
from repro.machine.asic import MachineConfig
from repro.machine.machine import QCDOCMachine
from repro.parallel import PhysicsMapping, apply_on_machine
from repro.parallel.pcg import wilson_context
from repro.util import rng_stream

NCORES = os.cpu_count() or 1

# -- the sweep workload: 2^6 torus, 64 ranks, one Wilson dslash --------------
SWEEP_DIMS = (2, 2, 2, 2, 2, 2)
SWEEP_GROUPS = [(0,), (1,), (2,), (3, 4, 5)]  # logical (2, 2, 2, 8)
SWEEP_LATTICE = (4, 4, 4, 16)

# -- the scale probe: the full 4^4 torus of the paper's building block -------
PROBE_DIMS = (4, 4, 4, 4, 1, 1)
PROBE_GROUPS = [(0,), (1,), (2,), (3,)]  # logical (4, 4, 4, 4)
PROBE_LATTICE = (8, 8, 8, 8)
PROBE_SHARDS = 8


def _dslash(dims, groups, lattice, shards, workers="serial", seed=64):
    """One sharded bring-up + distributed Wilson dslash.

    Returns the measured row plus the gathered result bytes (the
    bit-identity reference across shard counts).
    """
    machine = QCDOCMachine(
        MachineConfig(dims=dims),
        word_batch=4096,
        shards=shards,
        shard_workers=workers,
    )
    t0 = time.perf_counter()
    machine.bring_up()
    t_boot = time.perf_counter() - t0
    partition = machine.partition(groups=groups)

    rng = rng_stream(seed, "e16-scaling")
    geom = LatticeGeometry(lattice)
    gauge = GaugeField.hot(geom, rng)
    psi = rng.standard_normal((geom.volume, 4, 3)) + 1j * rng.standard_normal(
        (geom.volume, 4, 3)
    )
    context = wilson_context(PhysicsMapping(geom, partition), gauge, 0.2)

    t_sim0 = machine.sim.now
    t1 = time.perf_counter()
    out = apply_on_machine(machine, partition, context, psi)
    machine.quiesce()
    wall = time.perf_counter() - t1
    events = machine.sim.events_processed
    row = {
        "nodes": machine.n_nodes,
        "shards": shards,
        "workers": workers,
        "boot_wall_s": round(t_boot, 4),
        "dslash_wall_s": round(wall, 4),
        "events": events,
        "events_per_s": round(events / wall) if wall > 0 else None,
        "simulated_s": machine.sim.now - t_sim0,
        "checksums_clean": machine.audit_checksums() == [],
    }
    return row, out.tobytes()


def run_sweep():
    shard_counts = sorted({1, 2, 4, max(1, NCORES)})
    rows, ref = [], None
    for shards in shard_counts:
        row, blob = _dslash(SWEEP_DIMS, SWEEP_GROUPS, SWEEP_LATTICE, shards)
        if ref is None:
            ref = blob
        row["bit_identical"] = blob == ref
        rows.append(row)
    if hasattr(os, "fork"):
        for shards in sorted({2, max(2, NCORES)}):
            row, blob = _dslash(
                SWEEP_DIMS, SWEEP_GROUPS, SWEEP_LATTICE, shards, workers="fork"
            )
            row["bit_identical"] = blob == ref
            rows.append(row)
    return rows


def run_probe():
    row, blob = _dslash(
        PROBE_DIMS, PROBE_GROUPS, PROBE_LATTICE, PROBE_SHARDS, seed=256
    )
    row["result_bytes"] = len(blob)
    return row


@pytest.mark.perf
def test_e16_sim_scaling(report):
    sweep = run_sweep()
    probe = run_probe()

    t = report(
        f"E16: sharded-engine scaling, 64-node Wilson dslash "
        f"(host has {NCORES} core{'s' if NCORES != 1 else ''})",
        [
            "shards",
            "executor",
            "dslash wall",
            "events",
            "events/s",
            "bit-identical",
        ],
    )
    for r in sweep:
        t.add_row(
            [
                r["shards"],
                r["workers"],
                f"{r['dslash_wall_s'] * 1e3:.0f} ms",
                r["events"],
                r["events_per_s"],
                "yes" if r["bit_identical"] else "NO",
            ]
        )
    t.add_row(
        [
            f"{probe['shards']} (4^4 torus, {probe['nodes']} nodes)",
            probe["workers"],
            f"{probe['dslash_wall_s'] * 1e3:.0f} ms",
            probe["events"],
            probe["events_per_s"],
            "-",
        ]
    )
    emit(t)

    payload = {
        "host_cores": NCORES,
        "sweep": {
            "dims": list(SWEEP_DIMS),
            "lattice": list(SWEEP_LATTICE),
            "rows": sweep,
        },
        "probe_256_node": {
            "dims": list(PROBE_DIMS),
            "lattice": list(PROBE_LATTICE),
            "row": probe,
        },
    }
    out = write_artifact("sim_scaling", payload)

    # determinism is the hard claim; wall numbers ride on host noise
    assert all(r["bit_identical"] for r in sweep)
    assert all(r["checksums_clean"] for r in sweep)
    assert probe["checksums_clean"]
    assert probe["nodes"] == 256
    print(
        f"\nBENCH_sim_scaling: {len(sweep)} sweep rows bit-identical, "
        f"256-node probe {probe['dslash_wall_s']:.1f}s wall, "
        f"{probe['events']} events -> {out.name}"
    )
