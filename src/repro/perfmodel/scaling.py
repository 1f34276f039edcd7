"""Hard scaling: a fixed problem on ever more nodes (experiment E8).

Paper section 1: "low latency is also vital if a problem of a fixed size is
to be run on a machine with tens of thousands of nodes, since adding more
nodes generally increases the ratio of inter-node communication to local
floating point operations."

The model runs the paper's target problem (a ``32^3 x 64`` lattice — the
8,192-node, 4^4-local-volume configuration of section 4) across a node
sweep on three machines: QCDOC (calibrated model + explicit comm
exposure), QCDSP, and a 2004 commodity cluster.  The headline *shape*:
QCDOC keeps scaling to O(10^4) nodes while the cluster's sustained speed
saturates when communication startup costs eat the shrinking local work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fermions.flops import operator_cost
from repro.machine.asic import ASICConfig
from repro.perfmodel.baselines import CLUSTER_2004, QCDSP, BaselineMachine
from repro.perfmodel.collectives import ethernet_allreduce_time
from repro.perfmodel.dirac_perf import DiracPerfModel
from repro.util.errors import ConfigError

#: the paper's production problem
TARGET_GLOBAL_SHAPE = (32, 32, 32, 64)


def decompose_shape(
    global_shape: Sequence[int], n_nodes: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split a lattice over ``n_nodes``, halving the largest axis first.

    Returns ``(machine_dims, local_shape)``; raises if ``n_nodes`` cannot
    be factored into the axes (it must divide the lattice volume through
    repeated halvings — powers of two for the paper's shapes).
    """
    dims = [1] * len(global_shape)
    local = list(global_shape)
    remaining = n_nodes
    while remaining > 1:
        if remaining % 2 != 0:
            raise ConfigError(
                f"cannot decompose {global_shape} over {n_nodes} nodes "
                "(non power-of-two remainder)"
            )
        axis = int(np.argmax(local))
        if local[axis] < 2:
            raise ConfigError(
                f"{n_nodes} nodes exceed the {global_shape} lattice volume"
            )
        local[axis] //= 2
        dims[axis] *= 2
        remaining //= 2
    return tuple(dims), tuple(local)


@dataclass
class ScalingPoint:
    """One machine size in the hard-scaling sweep."""

    machine: str
    n_nodes: int
    local_volume: int
    seconds_per_iteration: float
    sustained_flops: float
    efficiency: float
    comm_fraction: float


class HardScalingModel:
    """Sustained CG speed vs node count at fixed global volume."""

    def __init__(
        self,
        op: str = "wilson",
        global_shape: Sequence[int] = TARGET_GLOBAL_SHAPE,
        asic: Optional[ASICConfig] = None,
    ):
        self.op = op
        self.cost = operator_cost(op)
        self.global_shape = tuple(global_shape)
        self.global_volume = int(np.prod(global_shape))
        self.qcdoc = DiracPerfModel(asic)

    # -- QCDOC ------------------------------------------------------------
    def qcdoc_point(self, n_nodes: int) -> ScalingPoint:
        """:class:`DiracPerfModel` evaluated at this node count's tile."""
        machine_dims, local_shape = decompose_shape(self.global_shape, n_nodes)
        local_volume = int(np.prod(local_shape))
        asic = self.qcdoc.asic
        t_iter = (
            self.qcdoc.cg_cycles_per_site(self.op, local_shape, machine_dims)
            * local_volume
            / asic.clock_hz
        )
        exposed = self.qcdoc.exposed_comm_seconds(
            self.op, local_shape, machine_dims
        )
        flops_iter = self.qcdoc.cg_flops_per_site(self.op) * self.global_volume
        sustained = flops_iter / t_iter
        return ScalingPoint(
            "qcdoc",
            n_nodes,
            local_volume,
            t_iter,
            sustained,
            sustained / (n_nodes * asic.peak_flops),
            self.cost.dirac_applications_per_cg_iteration * exposed / t_iter,
        )

    # -- baselines ------------------------------------------------------------
    def baseline_point(self, machine: BaselineMachine, n_nodes: int) -> ScalingPoint:
        _dims, local_shape = decompose_shape(self.global_shape, n_nodes)
        local_volume = int(np.prod(local_shape))
        net = machine.network

        compute = (
            local_volume * self.cost.flops_per_site / machine.node_sustained()
        )
        # per-direction messages; with few NICs they serialise.  Generic
        # MPI codes on commodity clusters exchange *full* spinors — the
        # half-spinor compression is part of QCDOC's hand-tuned kernel
        # contract (sender-side projection fused into the SCU send), so
        # the baseline pays the uncompressed payload.
        msgs = []
        for axis, L in enumerate(local_shape):
            face_bytes = (
                local_volume // L
            ) * self.cost.uncompressed_comm_bytes_per_face_site
            msgs.extend([net.startup_latency + face_bytes / net.bandwidth] * 2)
        if net.concurrent_links >= len(msgs):
            comm = max(msgs)
        else:
            comm = sum(msgs) / net.concurrent_links
        # No DMA engines: communication is not overlapped with compute.
        allreduce = 2 * ethernet_allreduce_time(
            n_nodes, 1, net.startup_latency, net.bandwidth
        )
        t_iter = 2 * (compute + comm) + allreduce
        flops_iter = (
            2 * self.cost.flops_per_site * self.global_volume
        )
        sustained = flops_iter / t_iter
        return ScalingPoint(
            machine.name,
            n_nodes,
            local_volume,
            t_iter,
            sustained,
            sustained / (n_nodes * machine.node_peak_flops),
            2 * comm / t_iter,
        )

    # -- the sweep ------------------------------------------------------------
    def sweep(
        self, node_counts: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
    ) -> List[ScalingPoint]:
        points: List[ScalingPoint] = []
        for n in node_counts:
            points.append(self.qcdoc_point(n))
            points.append(self.baseline_point(CLUSTER_2004, n))
            points.append(self.baseline_point(QCDSP, n))
        return points

    def crossover_nodes(self) -> int:
        """Smallest node count where QCDOC's sustained speed beats the
        cluster's — 'who wins' as machines grow."""
        for n in (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384):
            q = self.qcdoc_point(n).sustained_flops
            c = self.baseline_point(CLUSTER_2004, n).sustained_flops
            if q > c:
                return n
        return -1
