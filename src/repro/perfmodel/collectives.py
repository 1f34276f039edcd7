"""Analytic global-operation costs (experiment E5).

The cut-through timing model of the ASIC sheet at machine sizes the
functional simulator cannot reach (the paper's 8,192-node ``32^3 x 64``
target machine, the 12,288-node production machines), beside the
commodity-Ethernet baseline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.machine.asic import ASICConfig


def global_sum_time(
    machine_dims: Sequence[int],
    nwords: int = 1,
    doubled: bool = True,
    asic: Optional[ASICConfig] = None,
) -> float:
    """Seconds for a dimension-sequenced global sum: the machine's own
    figure (:meth:`~repro.machine.asic.ASICConfig.global_sum_time`), at
    the design-point ASIC unless one is given."""
    asic = asic if asic is not None else ASICConfig()
    return asic.global_sum_time(machine_dims, nwords, doubled)


def ethernet_allreduce_time(
    n_nodes: int,
    nwords: int = 1,
    latency: float = 7.5e-6,
    bandwidth: float = 100e6 / 8,
) -> float:
    """Baseline: a binary-tree allreduce over commodity Ethernet.

    ``2 * log2(N)`` stages (reduce + broadcast), each paying the kernel/NIC
    latency the paper cites as "5-10 us just to begin a transfer".
    """
    import math

    stages = 2 * max(1, math.ceil(math.log2(max(2, n_nodes))))
    per_stage = latency + (nwords * 8) / bandwidth
    return stages * per_stage
