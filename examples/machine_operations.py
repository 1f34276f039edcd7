#!/usr/bin/env python
"""A day in the machine room: operations on a shared QCDOC.

Walks the paper's host-software story (sections 2.3 and 3) end to end:

1. boot a 16-node machine through the qdaemon (PROM-less, ~100 UDP
   packets per kernel stage, one hardware-faulty node detected);
2. two users allocate disjoint partitions via qcsh text commands and run
   jobs concurrently-in-spirit;
3. a machine-wide partition interrupt stops-the-world coherently: every
   node observes the same bits at the same global-clock sample instant.

Run:  python examples/machine_operations.py
"""

import numpy as np

from repro import MachineConfig, QCDOCMachine, Qcsh, Qdaemon
from repro.util import Table


def main() -> None:
    # -- 1. boot, with node 5 failing its hardware self-test ------------------
    machine = QCDOCMachine(MachineConfig(dims=(4, 2, 2, 1, 1, 1)), word_batch=64)
    daemon = Qdaemon(machine, faulty_nodes=[5])
    results = daemon.boot()
    t = Table(["check", "value"], title="boot report (16 nodes, node 5 faulty)")
    t.add_row(["healthy nodes", len(daemon.healthy_nodes())])
    t.add_row(["failed nodes", daemon.failed_nodes()])
    t.add_row(["status of node 5", daemon.node_status[5]])
    a = daemon.agents[0].report
    t.add_row(["UDP packets/node", f"{a.jtag_packets} JTAG + {a.run_kernel_packets} loader"])
    print(t.render())
    assert results[5] is False and sum(results.values()) == 15

    # -- 2. two users, two disjoint sub-box partitions ----------------------------
    alice, bob = Qcsh(daemon, "alice"), Qcsh(daemon, "bob")
    # alice: the x=0 slab as a 2x2 machine; bob: the x=1 slab folded into a
    # 4-ring.  Axes 1 and 2 are full machine axes, so both keep torus wrap.
    alice.alloc(
        groups=[(1,), (2,)], origin=(0, 0, 0, 0, 0, 0),
        extents=(1, 2, 2, 1, 1, 1),
    )
    bob_alloc = daemon.allocate(
        "bob", groups=[(1, 2)], origin=(1, 0, 0, 0, 0, 0),
        extents=(1, 2, 2, 1, 1, 1),
    )
    print("\nbob>  allocated job", bob_alloc.job_id,
          "logical", "x".join(map(str, bob_alloc.partition.logical_dims)))
    print("alice>", alice.execute("qstat"))

    def alice_job(api):
        total = yield api.global_sum(np.array([float(api.rank)]))
        return float(total[0])

    out = alice.run(alice_job)
    print(f"alice's job returned {out[0]} on each of {len(out)} ranks")

    # -- 3. stop the world ---------------------------------------------------
    sample_times = {}
    for nid, ctrl in machine.interrupts.items():
        ctrl.on_present = lambda bits, n=nid: sample_times.__setitem__(
            n, machine.sim.now
        )
    machine.raise_partition_interrupt(3, 0b1)
    machine.sim.run()
    instants = set(sample_times.values())
    print(
        f"partition interrupt: {len(sample_times)} nodes sampled it at "
        f"{len(instants)} distinct instant(s)"
    )
    assert len(instants) == 1

    alice.free()
    daemon.release(bob_alloc)
    print("\nmachine_operations OK")


if __name__ == "__main__":
    main()
